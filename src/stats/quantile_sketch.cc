#include "stats/quantile_sketch.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "common/telemetry.h"

namespace bbv::stats {

namespace {

constexpr char kSketchMagic[] = "BBVQS";
constexpr uint32_t kSketchVersion = 1;
constexpr char kBankMagic[] = "BBVQB";
constexpr uint32_t kBankVersion = 1;
constexpr int kMaxResolutionBits = 24;

bool GridsMatch(const QuantileSketch::Options& a,
                const QuantileSketch::Options& b) {
  // Exact comparison is intended: merging is only sound when both sketches
  // quantize to the very same grid points.
  return a.resolution_bits == b.resolution_bits && a.lo == b.lo && a.hi == b.hi;
}

}  // namespace

QuantileSketch::QuantileSketch(Options options) : options_(options) {
  BBV_CHECK(options_.resolution_bits >= 1 &&
            options_.resolution_bits <= kMaxResolutionBits)
      << "resolution_bits must lie in [1, " << kMaxResolutionBits << "], got "
      << options_.resolution_bits;
  BBV_CHECK(std::isfinite(options_.lo) && std::isfinite(options_.hi) &&
            options_.lo < options_.hi)
      << "sketch domain must be a finite non-empty interval";
  cells_.assign((size_t{1} << options_.resolution_bits) + 1, 0);
}

size_t QuantileSketch::CellIndex(double value, const Options& options) {
  const double clamped = std::clamp(value, options.lo, options.hi);
  const double unit = (clamped - options.lo) / (options.hi - options.lo);
  const size_t last = size_t{1} << options.resolution_bits;
  const double scaled = unit * static_cast<double>(last);
  const size_t index = static_cast<size_t>(std::llround(scaled));
  return std::min(index, last);
}

double QuantileSketch::CellValue(size_t index) const {
  const double unit =
      static_cast<double>(index) /
      static_cast<double>(size_t{1} << options_.resolution_bits);
  return options_.lo + unit * (options_.hi - options_.lo);
}

size_t QuantileSketch::Add(double value, uint64_t weight) {
  BBV_CHECK(std::isfinite(value)) << "QuantileSketch::Add of NaN/Inf";
  const size_t cell = CellIndex(value, options_);
  cells_[cell] += weight;
  count_ += weight;
  return cell;
}

common::Status QuantileSketch::AddCells(std::span<const uint32_t> cells) {
  for (const uint32_t cell : cells) {
    if (cell >= cells_.size()) {
      return common::Status::InvalidArgument("cell index off the grid");
    }
  }
  for (const uint32_t cell : cells) ++cells_[cell];
  count_ += cells.size();
  return common::Status::OK();
}

common::Status QuantileSketch::RemoveCells(std::span<const uint32_t> cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    const uint32_t cell = cells[i];
    if (cell < cells_.size() && cells_[cell] > 0) {
      --cells_[cell];
      continue;
    }
    // Put back what this call already took so a rejection leaves the
    // sketch unchanged.
    for (size_t j = 0; j < i; ++j) ++cells_[cells[j]];
    return common::Status::InvalidArgument(
        cell < cells_.size() ? "removing more than a sketch cell holds"
                             : "cell index off the grid");
  }
  count_ -= cells.size();
  return common::Status::OK();
}

common::Status QuantileSketch::Merge(const QuantileSketch& other) {
  if (!GridsMatch(options_, other.options_)) {
    return common::Status::InvalidArgument(
        "QuantileSketch::Merge requires identical grids (resolution and "
        "domain)");
  }
  for (size_t i = 0; i < cells_.size(); ++i) {
    cells_[i] += other.cells_[i];
  }
  count_ += other.count_;
  return common::Status::OK();
}

double QuantileSketch::Quantile(double q) const {
  return Quantiles({q}).front();
}

std::vector<double> QuantileSketch::Quantiles(
    const std::vector<double>& qs) const {
  BBV_CHECK(count_ > 0) << "Quantile of an empty sketch";
  BBV_CHECK(std::is_sorted(qs.begin(), qs.end()))
      << "percentile points must be ascending";
  // Interpolation positions over the expanded multiset, mirroring
  // stats::SortedView::Percentile: position p = q/100 * (n-1), interpolate
  // between the order statistics at floor(p) and ceil(p).
  struct Query {
    size_t lower_rank = 0;
    size_t upper_rank = 0;
    double weight = 0.0;
    double lower_value = 0.0;
    double upper_value = 0.0;
  };
  std::vector<Query> queries(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    const double q = qs[i];
    BBV_CHECK(q >= 0.0 && q <= 100.0) << "percentile out of [0, 100]: " << q;
    const double position = (q / 100.0) * static_cast<double>(count_ - 1);
    queries[i].lower_rank = static_cast<size_t>(std::floor(position));
    queries[i].upper_rank = static_cast<size_t>(std::ceil(position));
    queries[i].weight =
        position - static_cast<double>(queries[i].lower_rank);
  }
  // One cumulative pass resolves every needed order statistic: rank r lives
  // in the first cell whose inclusive cumulative weight exceeds r.
  size_t next = 0;  // queries with lower_rank not yet resolved
  size_t next_upper = 0;
  uint64_t cumulative = 0;
  for (size_t cell = 0; cell < cells_.size(); ++cell) {
    if (cells_[cell] == 0) continue;
    cumulative += cells_[cell];
    const double value = CellValue(cell);
    while (next < queries.size() && queries[next].lower_rank < cumulative) {
      queries[next].lower_value = value;
      ++next;
    }
    while (next_upper < queries.size() &&
           queries[next_upper].upper_rank < cumulative) {
      queries[next_upper].upper_value = value;
      ++next_upper;
    }
    if (next == queries.size() && next_upper == queries.size()) break;
  }
  BBV_DCHECK(next == queries.size() && next_upper == queries.size());
  std::vector<double> out(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& query = queries[i];
    if (query.lower_rank == query.upper_rank) {
      out[i] = query.lower_value;
    } else {
      out[i] = query.lower_value * (1.0 - query.weight) +
               query.upper_value * query.weight;
    }
  }
  return out;
}

double QuantileSketch::Cdf(double x) const {
  BBV_CHECK(count_ > 0) << "Cdf of an empty sketch";
  if (x < options_.lo) return 0.0;
  const size_t limit = CellIndex(x, options_);
  uint64_t below = 0;
  for (size_t cell = 0; cell <= limit; ++cell) {
    // Mass at grid point `cell` has quantized value CellValue(cell) <= the
    // quantized x, so it counts as <= x in the quantized distribution.
    below += cells_[cell];
  }
  return static_cast<double>(below) / static_cast<double>(count_);
}

size_t QuantileSketch::num_nonzero_cells() const {
  return static_cast<size_t>(
      std::count_if(cells_.begin(), cells_.end(),
                    [](uint64_t weight) { return weight > 0; }));
}

size_t QuantileSketch::MemoryBytes() const {
  return sizeof(QuantileSketch) + cells_.capacity() * sizeof(uint64_t);
}

double QuantileSketch::CellWidth() const {
  return (options_.hi - options_.lo) /
         static_cast<double>(size_t{1} << options_.resolution_bits);
}

common::Status QuantileSketch::Save(std::ostream& out) const {
  common::BinaryWriter writer(out);
  writer.WriteMagic(kSketchMagic, kSketchVersion);
  writer.WriteInt32(options_.resolution_bits);
  writer.WriteDouble(options_.lo);
  writer.WriteDouble(options_.hi);
  writer.WriteUint64(count_);
  writer.WriteUint64(num_nonzero_cells());
  for (size_t cell = 0; cell < cells_.size(); ++cell) {
    if (cells_[cell] == 0) continue;
    writer.WriteUint64(cell);
    writer.WriteUint64(cells_[cell]);
  }
  return writer.status();
}

common::Result<QuantileSketch> QuantileSketch::Load(std::istream& in) {
  common::BinaryReader reader(in);
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kSketchMagic, kSketchVersion));
  BBV_ASSIGN_OR_RETURN(int32_t resolution_bits, reader.ReadInt32());
  if (resolution_bits < 1 || resolution_bits > kMaxResolutionBits) {
    return common::Status::InvalidArgument("corrupt sketch resolution");
  }
  Options options;
  options.resolution_bits = resolution_bits;
  BBV_ASSIGN_OR_RETURN(options.lo, reader.ReadDouble());
  BBV_ASSIGN_OR_RETURN(options.hi, reader.ReadDouble());
  if (!std::isfinite(options.lo) || !std::isfinite(options.hi) ||
      !(options.lo < options.hi)) {
    return common::Status::InvalidArgument("corrupt sketch domain");
  }
  QuantileSketch sketch(options);
  BBV_ASSIGN_OR_RETURN(uint64_t total, reader.ReadUint64());
  BBV_ASSIGN_OR_RETURN(uint64_t nonzero, reader.ReadUint64());
  if (nonzero > sketch.cells_.size()) {
    return common::Status::InvalidArgument("corrupt sketch cell count");
  }
  uint64_t sum = 0;
  for (uint64_t i = 0; i < nonzero; ++i) {
    BBV_ASSIGN_OR_RETURN(uint64_t cell, reader.ReadUint64());
    BBV_ASSIGN_OR_RETURN(uint64_t weight, reader.ReadUint64());
    if (cell >= sketch.cells_.size() || weight == 0) {
      return common::Status::InvalidArgument("corrupt sketch cell entry");
    }
    sketch.cells_[cell] = weight;
    sum += weight;
  }
  if (sum != total) {
    return common::Status::InvalidArgument(
        "sketch cell weights disagree with the stored total");
  }
  sketch.count_ = total;
  return sketch;
}

common::Result<double> KsStatistic(const QuantileSketch& a,
                                   const QuantileSketch& b) {
  if (!GridsMatch(a.options(), b.options())) {
    return common::Status::InvalidArgument(
        "KsStatistic requires sketches on identical grids");
  }
  if (a.empty() || b.empty()) {
    return common::Status::InvalidArgument(
        "KsStatistic requires non-empty sketches");
  }
  // Both CDFs are step functions jumping only at grid points, so the
  // supremum of |F_a - F_b| is attained at a grid point; one joint
  // cumulative pass over the shared grid.
  double statistic = 0.0;
  uint64_t below_a = 0;
  uint64_t below_b = 0;
  const double total_a = static_cast<double>(a.count());
  const double total_b = static_cast<double>(b.count());
  for (size_t cell = 0; cell < a.cell_counts().size(); ++cell) {
    below_a += a.cell_counts()[cell];
    below_b += b.cell_counts()[cell];
    const double gap = std::abs(static_cast<double>(below_a) / total_a -
                                static_cast<double>(below_b) / total_b);
    statistic = std::max(statistic, gap);
  }
  return statistic;
}

QuantileSketchBank::QuantileSketchBank(size_t num_columns,
                                       QuantileSketch::Options options)
    : options_(options) {
  sketches_.reserve(num_columns);
  for (size_t k = 0; k < num_columns; ++k) {
    sketches_.emplace_back(options_);
  }
}

CellBatch CellBatch::Of(const linalg::Matrix& values,
                        const QuantileSketch::Options& grid) {
  CellBatch batch;
  batch.grid = grid;
  batch.columns = values.cols();
  batch.cells.resize(values.rows() * values.cols());
  for (size_t k = 0; k < values.cols(); ++k) {
    uint32_t* column = batch.cells.data() + k * values.rows();
    for (size_t i = 0; i < values.rows(); ++i) {
      const double value = values.At(i, k);
      BBV_CHECK(std::isfinite(value)) << "CellBatch::Of of NaN/Inf";
      column[i] = static_cast<uint32_t>(QuantileSketch::CellIndex(value, grid));
    }
  }
  return batch;
}

common::Status QuantileSketchBank::Observe(const linalg::Matrix& values,
                                           CellBatch* cells) {
  const common::telemetry::TraceSpan span("sketch_bank.observe");
  if (values.rows() == 0) {
    return common::Status::InvalidArgument(
        "QuantileSketchBank::Observe on an empty batch");
  }
  if (sketches_.empty()) {
    // First batch fixes the width of a default-constructed bank.
    sketches_.reserve(values.cols());
    for (size_t k = 0; k < values.cols(); ++k) {
      sketches_.emplace_back(options_);
    }
  } else if (values.cols() != sketches_.size()) {
    return common::Status::InvalidArgument(
        "batch has " + std::to_string(values.cols()) +
        " columns but the bank tracks " + std::to_string(sketches_.size()));
  }
  const size_t rows = values.rows();
  if (cells != nullptr) {
    cells->grid = options_;
    cells->columns = sketches_.size();
    cells->cells.resize(rows * sketches_.size());
  }
  // Column sketches are independent: each task touches only its own sketch
  // (and its own slice of `cells`), so results are bit-identical at every
  // thread count.
  BBV_RETURN_NOT_OK(common::ParallelFor(
      sketches_.size(), [&](size_t k) -> common::Status {
        QuantileSketch& sketch = sketches_[k];
        if (cells == nullptr) {
          for (size_t i = 0; i < rows; ++i) sketch.Add(values.At(i, k));
          return common::Status::OK();
        }
        uint32_t* column = cells->cells.data() + k * rows;
        for (size_t i = 0; i < rows; ++i) {
          column[i] = static_cast<uint32_t>(sketch.Add(values.At(i, k)));
        }
        return common::Status::OK();
      }));
  rows_observed_ += values.rows();
  common::telemetry::IncrementCounter("sketch_bank.rows", values.rows());
  return common::Status::OK();
}

common::Status QuantileSketchBank::Merge(const QuantileSketchBank& other) {
  if (other.sketches_.empty()) return common::Status::OK();
  if (sketches_.empty()) {
    *this = other;
    return common::Status::OK();
  }
  if (sketches_.size() != other.sketches_.size()) {
    return common::Status::InvalidArgument(
        "QuantileSketchBank::Merge across different column counts");
  }
  for (size_t k = 0; k < sketches_.size(); ++k) {
    BBV_RETURN_NOT_OK(sketches_[k].Merge(other.sketches_[k]));
  }
  rows_observed_ += other.rows_observed_;
  return common::Status::OK();
}

namespace {

/// Shape checks shared by AddCells and RemoveCells.
common::Status ValidateCellBatch(const CellBatch& batch,
                                 const QuantileSketch::Options& grid,
                                 size_t columns) {
  if (!GridsMatch(batch.grid, grid)) {
    return common::Status::InvalidArgument(
        "cell batch was mapped on a different grid than the bank's");
  }
  if (batch.columns == 0 || batch.cells.size() % batch.columns != 0) {
    return common::Status::InvalidArgument("malformed cell batch");
  }
  if (columns != 0 && batch.columns != columns) {
    return common::Status::InvalidArgument(
        "cell batch has " + std::to_string(batch.columns) +
        " columns but the bank tracks " + std::to_string(columns));
  }
  return common::Status::OK();
}

std::span<const uint32_t> ColumnCells(const CellBatch& batch, size_t k) {
  return std::span<const uint32_t>(batch.cells)
      .subspan(k * batch.rows(), batch.rows());
}

}  // namespace

common::Status QuantileSketchBank::AddCells(const CellBatch& batch) {
  BBV_RETURN_NOT_OK(ValidateCellBatch(batch, options_, sketches_.size()));
  const bool adopt = sketches_.empty();
  if (adopt) sketches_.assign(batch.columns, QuantileSketch(options_));
  for (size_t k = 0; k < batch.columns; ++k) {
    const common::Status added = sketches_[k].AddCells(ColumnCells(batch, k));
    if (!added.ok()) {
      for (size_t j = 0; j < k; ++j) {
        BBV_CHECK(sketches_[j].RemoveCells(ColumnCells(batch, j)).ok());
      }
      if (adopt) sketches_.clear();
      return added;
    }
  }
  rows_observed_ += batch.rows();
  return common::Status::OK();
}

common::Status QuantileSketchBank::RemoveCells(const CellBatch& batch) {
  BBV_RETURN_NOT_OK(ValidateCellBatch(batch, options_, sketches_.size()));
  if (sketches_.empty() || batch.rows() > rows_observed_) {
    return common::Status::InvalidArgument(
        "removing more rows than the bank holds");
  }
  for (size_t k = 0; k < batch.columns; ++k) {
    const common::Status removed =
        sketches_[k].RemoveCells(ColumnCells(batch, k));
    if (!removed.ok()) {
      for (size_t j = 0; j < k; ++j) {
        BBV_CHECK(sketches_[j].AddCells(ColumnCells(batch, j)).ok());
      }
      return removed;
    }
  }
  rows_observed_ -= batch.rows();
  return common::Status::OK();
}

std::vector<double> QuantileSketchBank::PercentileFeatures(
    const std::vector<double>& percentile_points) const {
  BBV_CHECK(rows_observed_ > 0)
      << "PercentileFeatures before any observed rows";
  BBV_CHECK(!percentile_points.empty());
  std::vector<double> features;
  features.reserve(sketches_.size() * percentile_points.size());
  for (const QuantileSketch& sketch : sketches_) {
    const std::vector<double> column = sketch.Quantiles(percentile_points);
    features.insert(features.end(), column.begin(), column.end());
  }
  return features;
}

const QuantileSketch& QuantileSketchBank::sketch(size_t column) const {
  BBV_CHECK(column < sketches_.size());
  return sketches_[column];
}

size_t QuantileSketchBank::MemoryBytes() const {
  size_t bytes = sizeof(QuantileSketchBank);
  for (const QuantileSketch& sketch : sketches_) {
    bytes += sketch.MemoryBytes();
  }
  return bytes;
}

double QuantileSketchBank::ValueErrorBound() const {
  return sketches_.empty() ? 0.0 : sketches_.front().ValueErrorBound();
}

common::Status QuantileSketchBank::Save(std::ostream& out) const {
  common::BinaryWriter writer(out);
  writer.WriteMagic(kBankMagic, kBankVersion);
  writer.WriteInt32(options_.resolution_bits);
  writer.WriteDouble(options_.lo);
  writer.WriteDouble(options_.hi);
  writer.WriteUint64(rows_observed_);
  writer.WriteUint64(sketches_.size());
  BBV_RETURN_NOT_OK(writer.status());
  for (const QuantileSketch& sketch : sketches_) {
    BBV_RETURN_NOT_OK(sketch.Save(out));
  }
  return common::Status::OK();
}

common::Result<QuantileSketchBank> QuantileSketchBank::Load(std::istream& in) {
  common::BinaryReader reader(in);
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kBankMagic, kBankVersion));
  BBV_ASSIGN_OR_RETURN(int32_t resolution_bits, reader.ReadInt32());
  if (resolution_bits < 1 || resolution_bits > kMaxResolutionBits) {
    return common::Status::InvalidArgument("corrupt bank resolution");
  }
  QuantileSketch::Options options;
  options.resolution_bits = resolution_bits;
  BBV_ASSIGN_OR_RETURN(options.lo, reader.ReadDouble());
  BBV_ASSIGN_OR_RETURN(options.hi, reader.ReadDouble());
  if (!std::isfinite(options.lo) || !std::isfinite(options.hi) ||
      !(options.lo < options.hi)) {
    return common::Status::InvalidArgument("corrupt bank domain");
  }
  BBV_ASSIGN_OR_RETURN(uint64_t rows, reader.ReadUint64());
  BBV_ASSIGN_OR_RETURN(uint64_t columns, reader.ReadUint64());
  if (columns > (uint64_t{1} << 20)) {
    return common::Status::InvalidArgument("corrupt bank column count");
  }
  if (columns == 0 && rows != 0) {
    return common::Status::InvalidArgument(
        "bank claims observed rows but has no columns");
  }
  QuantileSketchBank bank(static_cast<size_t>(columns), options);
  for (uint64_t k = 0; k < columns; ++k) {
    BBV_ASSIGN_OR_RETURN(bank.sketches_[static_cast<size_t>(k)],
                         QuantileSketch::Load(in));
    if (!GridsMatch(bank.sketches_[static_cast<size_t>(k)].options(),
                    options)) {
      return common::Status::InvalidArgument(
          "bank sketch grid disagrees with the bank header");
    }
    // Every row contributes exactly one value per column, so a sketch whose
    // count disagrees with the header is corrupt state. Without this guard a
    // bank claiming rows > 0 over empty sketches would pass Load and then
    // crash PercentileFeatures (which BBV_CHECKs non-emptiness) — a process
    // abort reachable from untrusted bytes.
    if (bank.sketches_[static_cast<size_t>(k)].count() != rows) {
      return common::Status::InvalidArgument(
          "bank sketch count disagrees with the stored row count");
    }
  }
  bank.rows_observed_ = rows;
  return bank;
}

QuantileSketchWindow::QuantileSketchWindow(size_t max_batches,
                                           QuantileSketch::Options grid)
    : max_batches_(max_batches), bank_(0, grid) {
  BBV_CHECK(max_batches_ > 0) << "a window holds at least one batch";
}

common::Result<CellBatch> QuantileSketchWindow::Push(CellBatch batch) {
  if (batch.empty()) {
    return common::Status::InvalidArgument("empty batch pushed to a window");
  }
  BBV_RETURN_NOT_OK(bank_.AddCells(batch));
  ring_.push_back(std::move(batch));
  CellBatch evicted;
  if (ring_.size() > max_batches_) {
    evicted = std::move(ring_.front());
    ring_.pop_front();
    // The evicted batch was added before, so its cells are all held.
    BBV_CHECK(bank_.RemoveCells(evicted).ok());
  }
  return evicted;
}

void QuantileSketchWindow::Undo(CellBatch evicted) {
  BBV_CHECK(!ring_.empty()) << "Undo without a Push";
  BBV_CHECK(bank_.RemoveCells(ring_.back()).ok());
  ring_.pop_back();
  if (ring_.empty() && evicted.empty()) {
    // Back to the zero-column bank the first Push found.
    Clear();
  } else if (!evicted.empty()) {
    BBV_CHECK(bank_.AddCells(evicted).ok());
    ring_.push_front(std::move(evicted));
  }
}

void QuantileSketchWindow::Clear() {
  bank_ = QuantileSketchBank(0, bank_.options());
  ring_.clear();
}

}  // namespace bbv::stats
