#include "stats/quantile_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "common/telemetry.h"

namespace bbv::stats {

namespace {

constexpr char kBankMagic[] = "BBVQB";
/// Version 2: each column is its PackCells. Load rejects version 1, which
/// wrote each column as a sketch archive of (cell, weight) pairs.
constexpr uint32_t kBankVersion = 2;
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
  blocks_.assign((cells_.size() + kBlockCells - 1) / kBlockCells, 0);
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
  blocks_[cell / kBlockCells] += weight;
  count_ += weight;
  return cell;
}

common::Status QuantileSketch::AddCells(std::span<const uint32_t> cells) {
  for (const uint32_t cell : cells) {
    if (cell >= cells_.size()) {
      return common::Status::InvalidArgument("cell index off the grid");
    }
  }
  for (const uint32_t cell : cells) {
    ++cells_[cell];
    ++blocks_[cell / kBlockCells];
  }
  count_ += cells.size();
  return common::Status::OK();
}

common::Status QuantileSketch::RemoveCells(std::span<const uint32_t> cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    const uint32_t cell = cells[i];
    if (cell < cells_.size() && cells_[cell] > 0) {
      --cells_[cell];
      --blocks_[cell / kBlockCells];
      continue;
    }
    // Put back what this call already took so a rejection leaves the
    // sketch unchanged.
    for (size_t j = 0; j < i; ++j) {
      ++cells_[cells[j]];
      ++blocks_[cells[j] / kBlockCells];
    }
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
  for (size_t block = 0; block < blocks_.size(); ++block) {
    if (other.blocks_[block] == 0) continue;
    blocks_[block] += other.blocks_[block];
    const size_t end = BlockEnd(block);
    for (size_t cell = block * kBlockCells; cell < end; ++cell) {
      cells_[cell] += other.cells_[cell];
    }
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
  // in the first cell whose inclusive cumulative weight exceeds r (never an
  // empty cell, which adds nothing). Ranks ascend with the queries, so only
  // the smallest unresolved rank is compared, and a block whose mass ends
  // at or below it holds no answer and is skipped by its count.
  size_t next = 0;  // queries with lower_rank not yet resolved
  size_t next_upper = 0;
  const auto smallest_pending = [&]() {
    uint64_t rank = std::numeric_limits<uint64_t>::max();
    if (next < queries.size()) rank = queries[next].lower_rank;
    if (next_upper < queries.size()) {
      rank = std::min<uint64_t>(rank, queries[next_upper].upper_rank);
    }
    return rank;
  };
  uint64_t pending = smallest_pending();
  uint64_t cumulative = 0;
  for (size_t block = 0; block < blocks_.size(); ++block) {
    const uint64_t block_end = cumulative + blocks_[block];
    if (pending >= block_end) {
      cumulative = block_end;
      continue;
    }
    const size_t end = BlockEnd(block);
    for (size_t cell = block * kBlockCells; cell < end; ++cell) {
      cumulative += cells_[cell];
      if (pending >= cumulative) continue;
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
      pending = smallest_pending();
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

size_t QuantileSketch::num_nonzero_cells() const {
  size_t nonzero = 0;
  for (size_t block = 0; block < blocks_.size(); ++block) {
    if (blocks_[block] == 0) continue;
    const size_t end = BlockEnd(block);
    for (size_t cell = block * kBlockCells; cell < end; ++cell) {
      if (cells_[cell] > 0) ++nonzero;
    }
  }
  return nonzero;
}

size_t QuantileSketch::MemoryBytes() const {
  return sizeof(QuantileSketch) +
         (cells_.capacity() + blocks_.capacity()) * sizeof(uint64_t);
}

size_t QuantileSketch::BlockEnd(size_t block) const {
  return std::min(cells_.size(), (block + 1) * kBlockCells);
}

double QuantileSketch::CellWidth() const {
  return (options_.hi - options_.lo) /
         static_cast<double>(size_t{1} << options_.resolution_bits);
}

namespace {

/// Byte width code (0..3 for 1, 2, 4 or 8 bytes) of the narrowest unsigned
/// type that holds `value`.
uint64_t WidthCode(uint64_t value) {
  if (value <= 0xFF) return 0;
  if (value <= 0xFFFF) return 1;
  if (value <= 0xFFFFFFFF) return 2;
  return 3;
}

template <typename T>
void NarrowCells(std::span<const uint64_t> cells, char* out) {
  for (size_t i = 0; i < cells.size(); ++i) {
    const auto value = static_cast<T>(cells[i]);
    std::memcpy(out + i * sizeof(T), &value, sizeof(T));
  }
}

/// Widens packed values into `cells`; false when they add up to more than
/// `*budget`, which is reduced by what they add up to.
template <typename T>
bool WidenCells(const char* in, std::span<uint64_t> cells, uint64_t* budget) {
  for (size_t i = 0; i < cells.size(); ++i) {
    T value;
    std::memcpy(&value, in + i * sizeof(T), sizeof(T));
    if (value > *budget) return false;
    *budget -= value;
    cells[i] = value;
  }
  return true;
}

}  // namespace

void QuantileSketch::PackCells(common::BinaryWriter& writer) const {
  size_t next_block = 0;  // one past the previous packed block
  for (size_t block = 0; block < blocks_.size(); ++block) {
    if (blocks_[block] == 0) continue;
    const size_t begin = block * kBlockCells;
    const auto cells = std::span<const uint64_t>(cells_).subspan(
        begin, BlockEnd(block) - begin);
    const uint64_t code =
        WidthCode(*std::max_element(cells.begin(), cells.end()));
    writer.WriteVarUint64(((block + 1 - next_block) << 2) | code);
    char* out = writer.Extend(cells.size() << code);
    switch (code) {
      case 0:
        NarrowCells<uint8_t>(cells, out);
        break;
      case 1:
        NarrowCells<uint16_t>(cells, out);
        break;
      case 2:
        NarrowCells<uint32_t>(cells, out);
        break;
      default:
        NarrowCells<uint64_t>(cells, out);
        break;
    }
    next_block = block + 1;
  }
  writer.WriteVarUint64(0);
}

common::Result<QuantileSketch> QuantileSketch::UnpackCells(
    common::BinaryReader& reader, const Options& grid, uint64_t count) {
  QuantileSketch sketch(grid);
  size_t next_block = 0;
  uint64_t budget = count;
  while (true) {
    BBV_ASSIGN_OR_RETURN(uint64_t header, reader.ReadVarUint64());
    if (header == 0) break;
    const uint64_t gap = header >> 2;
    const uint64_t code = header & 3;
    if (gap == 0 || gap > sketch.blocks_.size() - next_block) {
      return common::Status::InvalidArgument("corrupt packed sketch block");
    }
    const size_t block = next_block + static_cast<size_t>(gap) - 1;
    const size_t begin = block * kBlockCells;
    const auto cells = std::span<uint64_t>(sketch.cells_).subspan(
        begin, sketch.BlockEnd(block) - begin);
    BBV_ASSIGN_OR_RETURN(std::span<const char> in,
                         reader.ReadBytes(cells.size() << code));
    const uint64_t before = budget;
    bool fits = false;
    switch (code) {
      case 0:
        fits = WidenCells<uint8_t>(in.data(), cells, &budget);
        break;
      case 1:
        fits = WidenCells<uint16_t>(in.data(), cells, &budget);
        break;
      case 2:
        fits = WidenCells<uint32_t>(in.data(), cells, &budget);
        break;
      default:
        fits = WidenCells<uint64_t>(in.data(), cells, &budget);
        break;
    }
    if (!fits) {
      return common::Status::InvalidArgument(
          "packed sketch cells exceed the count");
    }
    // PackCells writes only non-empty blocks, each at the narrowest width
    // that holds its largest weight; other bytes would not save back.
    const uint64_t widest = *std::max_element(cells.begin(), cells.end());
    if (widest == 0) {
      return common::Status::InvalidArgument("empty packed sketch block");
    }
    if (WidthCode(widest) != code) {
      return common::Status::InvalidArgument(
          "packed sketch block is wider than its largest weight needs");
    }
    sketch.blocks_[block] = before - budget;
    next_block = block + 1;
  }
  if (budget != 0) {
    return common::Status::InvalidArgument(
        "packed sketch cells disagree with the count");
  }
  sketch.count_ = count;
  return sketch;
}

QuantileSketchBank::QuantileSketchBank(size_t num_columns,
                                       QuantileSketch::Options options)
    : options_(options) {
  sketches_.reserve(num_columns);
  for (size_t k = 0; k < num_columns; ++k) {
    sketches_.emplace_back(options_);
  }
}

common::Result<CellBatch> CellBatch::Of(const linalg::Matrix& values,
                                        const QuantileSketch::Options& grid) {
  CellBatch batch;
  batch.grid = grid;
  batch.columns = values.cols();
  batch.cells.resize(values.rows() * values.cols());
  for (size_t k = 0; k < values.cols(); ++k) {
    uint32_t* column = batch.cells.data() + k * values.rows();
    for (size_t i = 0; i < values.rows(); ++i) {
      const double value = values.At(i, k);
      if (!std::isfinite(value)) {
        return common::Status::InvalidArgument(
            "batch holds a non-finite value at row " + std::to_string(i));
      }
      column[i] = static_cast<uint32_t>(QuantileSketch::CellIndex(value, grid));
    }
  }
  return batch;
}

common::Status QuantileSketchBank::Observe(const linalg::Matrix& values,
                                           CellBatch* cells) {
  const common::telemetry::TraceSpan span("sketch_bank.observe");
  if (values.rows() == 0 || values.cols() == 0) {
    return common::Status::InvalidArgument(
        "QuantileSketchBank::Observe on an empty batch");
  }
  if (!sketches_.empty() && values.cols() != sketches_.size()) {
    return common::Status::InvalidArgument(
        "batch has " + std::to_string(values.cols()) +
        " columns but the bank tracks " + std::to_string(sketches_.size()));
  }
  // Reject NaN/Inf before any count moves, so a rejected batch leaves no
  // trace: the sketches treat non-finite input as a programming error, but
  // a serving stream must degrade recoverably.
  for (size_t i = 0; i < values.rows(); ++i) {
    const double* row = values.RowData(i);
    for (size_t k = 0; k < values.cols(); ++k) {
      if (!std::isfinite(row[k])) {
        return common::Status::InvalidArgument(
            "batch holds a non-finite value at row " + std::to_string(i));
      }
    }
  }
  if (sketches_.empty()) {
    // First batch fixes the width of a default-constructed bank.
    sketches_.assign(values.cols(), QuantileSketch(options_));
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

common::Status QuantileSketchBank::Save(common::BinaryWriter& writer) const {
  writer.WriteMagic(kBankMagic, kBankVersion);
  writer.WriteInt32(options_.resolution_bits);
  writer.WriteDouble(options_.lo);
  writer.WriteDouble(options_.hi);
  writer.WriteVarUint64(rows_observed_);
  writer.WriteVarUint64(sketches_.size());
  for (const QuantileSketch& sketch : sketches_) sketch.PackCells(writer);
  return common::Status::OK();
}

common::Status QuantileSketchBank::Save(std::ostream& out) const {
  return common::SaveToStream(
      out, [&](common::BinaryWriter& writer) { return Save(writer); });
}

common::Result<QuantileSketchBank> QuantileSketchBank::Load(
    common::BinaryReader& reader) {
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
  BBV_ASSIGN_OR_RETURN(uint64_t rows, reader.ReadVarUint64());
  BBV_ASSIGN_OR_RETURN(uint64_t columns, reader.ReadVarUint64());
  const uint64_t column_bytes =
      ((uint64_t{1} << resolution_bits) + 1) * sizeof(uint64_t);
  if (columns > kMaxLoadedStateBytes / column_bytes) {
    return common::Status::InvalidArgument(
        "bank header claims more dense sketch state than Load accepts");
  }
  // Every column takes at least its terminating byte.
  if (columns > reader.remaining()) {
    return common::Status::IoError("truncated stream");
  }
  if (columns == 0 && rows != 0) {
    return common::Status::InvalidArgument(
        "bank claims observed rows but has no columns");
  }
  QuantileSketchBank bank(0, options);
  bank.sketches_.reserve(static_cast<size_t>(columns));
  for (uint64_t k = 0; k < columns; ++k) {
    // Every row contributes exactly one value per column, so each column's
    // cells must add up to the row count (UnpackCells' budget). Without
    // this a bank claiming rows over empty sketches would load and then
    // abort PercentileFeatures.
    BBV_ASSIGN_OR_RETURN(QuantileSketch sketch,
                         QuantileSketch::UnpackCells(reader, options, rows));
    bank.sketches_.push_back(std::move(sketch));
  }
  bank.rows_observed_ = rows;
  return bank;
}

common::Result<QuantileSketchBank> QuantileSketchBank::Load(std::istream& in) {
  return common::LoadFromStream(
      in, [](common::BinaryReader& reader) { return Load(reader); });
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
