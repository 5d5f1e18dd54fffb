// Property tests for the deterministic mergeable quantile sketch: every
// percentile must agree with the exact stats::SortedView path within the
// sketch's value-error bound, and the sketch state must be a pure function
// of the input multiset — identical bytes for any batch split, merge order
// and thread count.

#include "stats/quantile_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/prediction_statistics.h"
#include "stats/descriptive.h"

namespace bbv::stats {
namespace {

/// A sketch's part of the bank's canonical bytes: its cells, packed.
std::string SketchBytes(const QuantileSketch& sketch) {
  common::BinaryWriter writer;
  sketch.PackCells(writer);
  return writer.bytes();
}

/// The sketch UnpackCells rebuilds from `sketch`'s packed cells.
QuantileSketch Repacked(const QuantileSketch& sketch) {
  const std::string bytes = SketchBytes(sketch);
  common::BinaryReader reader(bytes);
  auto unpacked =
      QuantileSketch::UnpackCells(reader, sketch.options(), sketch.count());
  BBV_CHECK(unpacked.ok()) << unpacked.status().ToString();
  BBV_CHECK(reader.remaining() == 0);
  return std::move(unpacked).value();
}

std::string BankBytes(const QuantileSketchBank& bank) {
  std::ostringstream out;
  BBV_CHECK(bank.Save(out).ok());
  return out.str();
}

/// Sample shapes covering the distributions the serving layer actually
/// sees: smooth, tail-concentrated (confident classifiers pile mass at
/// 0/1), heavily tied, and degenerate.
std::vector<std::vector<double>> SampleShapes(common::Rng& rng, size_t n) {
  std::vector<std::vector<double>> shapes(4);
  for (size_t i = 0; i < n; ++i) {
    shapes[0].push_back(rng.Uniform());
    // Push uniform draws toward the {0, 1} edges (confident model outputs).
    const double u = rng.Uniform();
    shapes[1].push_back(u < 0.5 ? u * u : 1.0 - (1.0 - u) * (1.0 - u));
    // Few distinct values with heavy ties.
    shapes[2].push_back(static_cast<double>(rng.UniformInt(0, 4)) / 4.0);
    shapes[3].push_back(0.75);
  }
  return shapes;
}

TEST(QuantileSketchTest, QuantilesMatchSortedViewWithinBound) {
  common::Rng rng(17);
  const std::vector<double> grid = core::DefaultPercentilePoints();
  for (const std::vector<double>& values : SampleShapes(rng, 5000)) {
    QuantileSketch sketch;
    for (double v : values) sketch.Add(v);
    const SortedView exact(values);
    const std::vector<double> streamed = sketch.Quantiles(grid);
    for (size_t i = 0; i < grid.size(); ++i) {
      EXPECT_NEAR(streamed[i], exact.Percentile(grid[i]),
                  sketch.ValueErrorBound() + 1e-12)
          << "q=" << grid[i];
    }
  }
}

TEST(QuantileSketchTest, ErrorBoundTightensWithResolution) {
  common::Rng rng(18);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.Uniform());
  const SortedView exact(values);
  double previous_bound = 1.0;
  for (int bits : {4, 8, 12, 16}) {
    QuantileSketch::Options options;
    options.resolution_bits = bits;
    QuantileSketch sketch(options);
    for (double v : values) sketch.Add(v);
    EXPECT_LT(sketch.ValueErrorBound(), previous_bound);
    previous_bound = sketch.ValueErrorBound();
    for (double q : {1.0, 25.0, 50.0, 95.0, 99.0}) {
      EXPECT_NEAR(sketch.Quantile(q), exact.Percentile(q),
                  sketch.ValueErrorBound() + 1e-12);
    }
  }
}

TEST(QuantileSketchTest, StateIsIndependentOfBatchSplit) {
  common::Rng rng(19);
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) values.push_back(rng.Uniform());

  QuantileSketch one_shot;
  for (double v : values) one_shot.Add(v);
  const std::string reference = SketchBytes(one_shot);

  for (size_t batch : {1ul, 7ul, 100ul, 1024ul, 3000ul}) {
    QuantileSketch merged;
    for (size_t begin = 0; begin < values.size(); begin += batch) {
      QuantileSketch chunk;
      const size_t end = std::min(begin + batch, values.size());
      for (size_t i = begin; i < end; ++i) chunk.Add(values[i]);
      ASSERT_TRUE(merged.Merge(chunk).ok());
    }
    EXPECT_EQ(SketchBytes(merged), reference) << "batch=" << batch;
  }
}

TEST(QuantileSketchTest, MergeIsCommutativeAndAssociative) {
  common::Rng rng(20);
  std::vector<QuantileSketch> parts(3);
  for (QuantileSketch& part : parts) {
    for (int i = 0; i < 500; ++i) part.Add(rng.Uniform());
  }
  // (A + B) + C
  QuantileSketch left = parts[0];
  ASSERT_TRUE(left.Merge(parts[1]).ok());
  ASSERT_TRUE(left.Merge(parts[2]).ok());
  // A + (B + C)
  QuantileSketch inner = parts[1];
  ASSERT_TRUE(inner.Merge(parts[2]).ok());
  QuantileSketch right = parts[0];
  ASSERT_TRUE(right.Merge(inner).ok());
  // C + B + A
  QuantileSketch reversed = parts[2];
  ASSERT_TRUE(reversed.Merge(parts[1]).ok());
  ASSERT_TRUE(reversed.Merge(parts[0]).ok());

  const std::string reference = SketchBytes(left);
  EXPECT_EQ(SketchBytes(right), reference);
  EXPECT_EQ(SketchBytes(reversed), reference);
}

TEST(QuantileSketchTest, WeightedAddEqualsRepeatedAdd) {
  QuantileSketch weighted;
  QuantileSketch repeated;
  weighted.Add(0.25, 10);
  weighted.Add(0.5, 3);
  weighted.Add(0.5, 0);  // zero weight is a no-op
  for (int i = 0; i < 10; ++i) repeated.Add(0.25);
  for (int i = 0; i < 3; ++i) repeated.Add(0.5);
  EXPECT_EQ(weighted.count(), 13u);
  EXPECT_EQ(SketchBytes(weighted), SketchBytes(repeated));
}

TEST(QuantileSketchTest, ValuesOutsideDomainAreClamped) {
  QuantileSketch sketch;
  sketch.Add(-3.5);
  sketch.Add(42.0);
  EXPECT_EQ(sketch.count(), 2u);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(100.0), 1.0);
}

TEST(QuantileSketchTest, MergeRejectsMismatchedGrids) {
  QuantileSketch::Options coarse;
  coarse.resolution_bits = 6;
  QuantileSketch a(coarse);
  QuantileSketch b;
  EXPECT_FALSE(a.Merge(b).ok());
  QuantileSketch::Options shifted;
  shifted.lo = -1.0;
  QuantileSketch c(shifted);
  QuantileSketch d;
  EXPECT_FALSE(c.Merge(d).ok());
}

TEST(QuantileSketchTest, PackedCellsRoundTripCanonically) {
  common::Rng rng(21);
  QuantileSketch sketch;
  for (int i = 0; i < 1000; ++i) sketch.Add(rng.Uniform());
  const QuantileSketch unpacked = Repacked(sketch);
  EXPECT_EQ(unpacked.count(), sketch.count());
  EXPECT_EQ(unpacked.cell_counts(), sketch.cell_counts());
  EXPECT_EQ(SketchBytes(unpacked), SketchBytes(sketch));
}

TEST(QuantileSketchTest, UnpackRejectsCorruptCells) {
  QuantileSketch sketch;
  sketch.Add(0.5);
  std::string bytes = SketchBytes(sketch);
  const auto unpack = [&](const std::string& packed) {
    common::BinaryReader reader(packed);
    return QuantileSketch::UnpackCells(reader, sketch.options(),
                                       sketch.count());
  };
  EXPECT_TRUE(unpack(bytes).ok());
  EXPECT_FALSE(unpack(bytes.substr(0, bytes.size() / 2)).ok());
  // A cell weight that disagrees with the count.
  bytes[bytes.size() - 3] = static_cast<char>(0x7f);
  EXPECT_FALSE(unpack(bytes).ok());
}

/// Sets BBV_THREADS for one scope and restores the previous value after.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* previous = std::getenv("BBV_THREADS");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
    ::setenv("BBV_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (had_previous_) {
      ::setenv("BBV_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("BBV_THREADS");
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  bool had_previous_ = false;
  std::string previous_;
};

linalg::Matrix RandomProbabilities(size_t rows, size_t classes,
                                   common::Rng& rng) {
  linalg::Matrix matrix(rows, classes);
  for (size_t i = 0; i < rows; ++i) {
    double sum = 0.0;
    for (size_t k = 0; k < classes; ++k) {
      matrix.At(i, k) = rng.Uniform() + 1e-6;
      sum += matrix.At(i, k);
    }
    for (size_t k = 0; k < classes; ++k) matrix.At(i, k) /= sum;
  }
  return matrix;
}

TEST(QuantileSketchBankTest, FeaturesMatchExactPredictionStatistics) {
  common::Rng rng(23);
  const linalg::Matrix probabilities = RandomProbabilities(4000, 3, rng);
  const std::vector<double> grid = core::DefaultPercentilePoints();
  QuantileSketchBank bank;
  ASSERT_TRUE(bank.Observe(probabilities).ok());
  const std::vector<double> streamed = bank.PercentileFeatures(grid);
  const std::vector<double> exact =
      core::PredictionStatistics(probabilities, grid);
  ASSERT_EQ(streamed.size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(streamed[i], exact[i], bank.ValueErrorBound() + 1e-12) << i;
  }
}

TEST(QuantileSketchBankTest, RejectsEmptyAndMismatchedBatches) {
  common::Rng rng(24);
  QuantileSketchBank bank;
  EXPECT_FALSE(bank.Observe(linalg::Matrix()).ok());
  // Rows without columns would leave a bank whose Save bytes Load rejects.
  EXPECT_EQ(bank.Observe(linalg::Matrix(5, 0)).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(bank.rows_observed(), 0u);
  EXPECT_EQ(bank.num_columns(), 0u);
  ASSERT_TRUE(bank.Observe(RandomProbabilities(10, 3, rng)).ok());
  EXPECT_FALSE(bank.Observe(RandomProbabilities(10, 2, rng)).ok());
  EXPECT_FALSE(bank.Observe(linalg::Matrix(5, 0)).ok());
  EXPECT_EQ(bank.rows_observed(), 10u);
  EXPECT_EQ(bank.num_columns(), 3u);
  std::istringstream in(BankBytes(bank));
  EXPECT_TRUE(QuantileSketchBank::Load(in).ok());
}

TEST(QuantileSketchBankTest, NonFiniteBatchIsRejectedWithoutATrace) {
  for (const char* threads : {"1", "4"}) {
    ScopedThreadsEnv env(threads);
    common::Rng rng(24);
    QuantileSketchBank fresh;
    QuantileSketchBank bank;
    ASSERT_TRUE(bank.Observe(RandomProbabilities(40, 3, rng)).ok());
    const std::string fresh_bytes = BankBytes(fresh);
    const std::string bytes = BankBytes(bank);
    for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()}) {
      // First, middle and last entry: a column task may already have run
      // on the other columns when a late entry is reached.
      for (const auto& [row, column] :
           {std::pair<size_t, size_t>{0, 0}, {7, 1}, {29, 2}}) {
        linalg::Matrix batch = RandomProbabilities(30, 3, rng);
        batch.At(row, column) = poison;
        CellBatch cells;
        EXPECT_EQ(bank.Observe(batch, &cells).code(),
                  common::StatusCode::kInvalidArgument);
        EXPECT_EQ(BankBytes(bank), bytes) << "threads " << threads;
        EXPECT_FALSE(fresh.Observe(batch).ok());
        EXPECT_EQ(BankBytes(fresh), fresh_bytes) << "threads " << threads;
        EXPECT_EQ(fresh.num_columns(), 0u);
        EXPECT_FALSE(CellBatch::Of(batch, bank.options()).ok());
      }
    }
  }
}

TEST(QuantileSketchBankTest, BytesIdenticalAcrossSplitsAndThreadCounts) {
  common::Rng rng(25);
  const linalg::Matrix probabilities = RandomProbabilities(2048, 4, rng);

  auto bytes_for = [&](const char* threads, size_t batch) {
    ScopedThreadsEnv env(threads);
    QuantileSketchBank bank;
    for (size_t begin = 0; begin < probabilities.rows(); begin += batch) {
      const size_t end = std::min(begin + batch, probabilities.rows());
      std::vector<size_t> row_ids;
      for (size_t i = begin; i < end; ++i) row_ids.push_back(i);
      BBV_CHECK(bank.Observe(probabilities.SelectRows(row_ids)).ok());
    }
    return BankBytes(bank);
  };

  const std::string reference = bytes_for("1", 2048);
  EXPECT_EQ(bytes_for("1", 100), reference);
  EXPECT_EQ(bytes_for("8", 1), reference);
  EXPECT_EQ(bytes_for("8", 333), reference);
  EXPECT_EQ(bytes_for("8", 2048), reference);
}

TEST(QuantileSketchBankTest, MergeAccumulatesAndValidates) {
  common::Rng rng(26);
  const linalg::Matrix first = RandomProbabilities(300, 2, rng);
  const linalg::Matrix second = RandomProbabilities(200, 2, rng);

  QuantileSketchBank all;
  ASSERT_TRUE(all.Observe(first).ok());
  ASSERT_TRUE(all.Observe(second).ok());

  QuantileSketchBank left;
  ASSERT_TRUE(left.Observe(first).ok());
  QuantileSketchBank right;
  ASSERT_TRUE(right.Observe(second).ok());
  ASSERT_TRUE(left.Merge(right).ok());
  EXPECT_EQ(left.rows_observed(), 500u);
  EXPECT_EQ(BankBytes(left), BankBytes(all));

  // Merging into or from an empty bank is the identity.
  QuantileSketchBank empty;
  ASSERT_TRUE(left.Merge(empty).ok());
  EXPECT_EQ(BankBytes(left), BankBytes(all));
  QuantileSketchBank target;
  ASSERT_TRUE(target.Merge(all).ok());
  EXPECT_EQ(BankBytes(target), BankBytes(all));

  QuantileSketchBank narrow;
  ASSERT_TRUE(narrow.Observe(RandomProbabilities(10, 3, rng)).ok());
  EXPECT_FALSE(left.Merge(narrow).ok());
}

TEST(QuantileSketchBankTest, SaveLoadRoundTrips) {
  common::Rng rng(27);
  QuantileSketchBank bank;
  ASSERT_TRUE(bank.Observe(RandomProbabilities(500, 3, rng)).ok());
  const std::string bytes = BankBytes(bank);
  std::istringstream in(bytes);
  const auto loaded = QuantileSketchBank::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rows_observed(), 500u);
  EXPECT_EQ(loaded->num_columns(), 3u);
  EXPECT_EQ(BankBytes(*loaded), bytes);
}

/// Bank bytes by hand: a header on a `bits` grid over [0, 1], then `body`
/// as given (the columns' packed cells).
std::string HandBuiltBank(int32_t bits, uint64_t rows, uint64_t columns,
                          const std::string& body, uint32_t version = 2) {
  common::BinaryWriter writer;
  writer.WriteMagic("BBVQB", version);
  writer.WriteInt32(bits);
  writer.WriteDouble(0.0);
  writer.WriteDouble(1.0);
  writer.WriteVarUint64(rows);
  writer.WriteVarUint64(columns);
  return writer.bytes() + body;
}

common::Result<QuantileSketchBank> LoadBytes(const std::string& bytes) {
  common::BinaryReader reader(bytes);
  return QuantileSketchBank::Load(reader);
}

TEST(QuantileSketchBankTest, LoadRejectsInconsistentRowCounts) {
  // A header whose row count disagrees with the columns' cells would pass
  // into PercentileFeatures and abort the process there; untrusted state
  // must be rejected at the Load boundary. On a 1-bit grid a column
  // is one block of three cells: header byte (gap 1, width code 0) = 4.
  const std::string column = std::string("\x04\x01\x01\x01\x00", 5);
  // 5 rows over a column holding 3, and over an empty column.
  EXPECT_FALSE(LoadBytes(HandBuiltBank(1, 5, 1, column)).ok());
  EXPECT_FALSE(LoadBytes(HandBuiltBank(1, 5, 1, std::string(1, '\0'))).ok());
  // Observed rows with no columns at all.
  EXPECT_FALSE(LoadBytes(HandBuiltBank(1, 5, 0, "")).ok());
  // The same construction with a consistent count loads and saves back.
  const std::string consistent = HandBuiltBank(1, 3, 1, column);
  const auto loaded = LoadBytes(consistent);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(BankBytes(*loaded), consistent);
}

TEST(QuantileSketchBankTest, MemoryIsIndependentOfRowCount) {
  common::Rng rng(28);
  QuantileSketchBank small;
  ASSERT_TRUE(small.Observe(RandomProbabilities(100, 2, rng)).ok());
  QuantileSketchBank large;
  ASSERT_TRUE(large.Observe(RandomProbabilities(20000, 2, rng)).ok());
  EXPECT_EQ(small.MemoryBytes(), large.MemoryBytes());
}

CellBatch MapCells(const linalg::Matrix& values,
                   const QuantileSketch::Options& grid) {
  return CellBatch::Of(values, grid).ValueOrDie();
}

std::vector<uint64_t> FeatureBits(const QuantileSketchBank& bank) {
  std::vector<uint64_t> bits;
  for (const double feature :
       bank.PercentileFeatures(core::DefaultPercentilePoints())) {
    bits.push_back(std::bit_cast<uint64_t>(feature));
  }
  return bits;
}

TEST(QuantileSketchWindowTest, RunningWindowEqualsMergedBanks) {
  for (const char* threads : {"1", "8"}) {
    ScopedThreadsEnv env(threads);
    for (const int bits : {12, 5}) {
      QuantileSketch::Options grid;
      grid.resolution_bits = bits;
      for (const size_t window_batches : {1ul, 2ul, 8ul}) {
        SCOPED_TRACE(std::string("threads=") + threads +
                     " bits=" + std::to_string(bits) +
                     " window=" + std::to_string(window_batches));
        common::Rng rng(29 + window_batches);
        QuantileSketchWindow window(window_batches, grid);
        // The oracle: the per-batch banks of the batches in the window.
        std::deque<QuantileSketchBank> oracle;
        QuantileSketchBank cumulative(0, grid);
        for (size_t b = 0; b < 40; ++b) {
          if (b == 13 || b == 27) {
            // Mid-stream epoch boundaries.
            window.Clear();
            oracle.clear();
          }
          const linalg::Matrix values =
              RandomProbabilities(1 + rng.UniformInt(0, 299), 3, rng);
          // Both mappings must agree: the cells a bank records while
          // observing and the standalone CellBatch::Of.
          CellBatch cells;
          ASSERT_TRUE(cumulative.Observe(values, &cells).ok());
          const CellBatch mapped = MapCells(values, grid);
          ASSERT_EQ(cells.cells, mapped.cells);
          ASSERT_EQ(cells.columns, mapped.columns);
          ASSERT_TRUE(window.Push(b % 2 == 0 ? cells : mapped).ok());

          oracle.emplace_back(0, grid);
          ASSERT_TRUE(oracle.back().Observe(values).ok());
          if (oracle.size() > window_batches) oracle.pop_front();
          QuantileSketchBank merged(0, grid);
          for (const QuantileSketchBank& bank : oracle) {
            ASSERT_TRUE(merged.Merge(bank).ok());
          }
          ASSERT_EQ(window.batches(), oracle.size());
          ASSERT_EQ(BankBytes(window.bank()), BankBytes(merged)) << b;
          ASSERT_EQ(FeatureBits(window.bank()), FeatureBits(merged)) << b;
        }
      }
    }
  }
}

TEST(QuantileSketchWindowTest, UndoRestoresTheWindowExactly) {
  common::Rng rng(30);
  const QuantileSketch::Options grid;
  QuantileSketchWindow window(2, grid);
  // Undo of a push that evicted nothing, then of one that evicted.
  for (size_t b = 0; b < 4; ++b) {
    const std::string before = BankBytes(window.bank());
    const size_t batches = window.batches();
    const auto evicted =
        window.Push(MapCells(RandomProbabilities(50, 2, rng), grid));
    ASSERT_TRUE(evicted.ok());
    EXPECT_EQ(evicted->empty(), b < 2);
    window.Undo(*evicted);
    EXPECT_EQ(BankBytes(window.bank()), before);
    EXPECT_EQ(window.batches(), batches);
    ASSERT_TRUE(
        window.Push(MapCells(RandomProbabilities(40, 2, rng), grid))
            .ok());
  }
}

TEST(QuantileSketchWindowTest, RejectsUnderflowAndMismatchWithStatus) {
  common::Rng rng(31);
  const QuantileSketch::Options grid;

  // Sketch level: removing more than a cell holds, or an off-grid cell.
  QuantileSketch sketch(grid);
  ASSERT_TRUE(sketch.AddCells(std::vector<uint32_t>{5, 5, 7}).ok());
  const std::string sketch_bytes = SketchBytes(sketch);
  EXPECT_FALSE(sketch.RemoveCells(std::vector<uint32_t>{5, 5, 5}).ok());
  EXPECT_FALSE(sketch.RemoveCells(std::vector<uint32_t>{7, 1u << 20}).ok());
  EXPECT_FALSE(sketch.AddCells(std::vector<uint32_t>{1, 1u << 20}).ok());
  EXPECT_EQ(SketchBytes(sketch), sketch_bytes);
  ASSERT_TRUE(sketch.RemoveCells(std::vector<uint32_t>{7, 5, 5}).ok());
  EXPECT_TRUE(sketch.empty());

  // Bank level: removing a batch that was never added, or from an empty
  // bank, fails and leaves the bank as it was.
  const CellBatch held = MapCells(RandomProbabilities(30, 2, rng), grid);
  const CellBatch other = MapCells(RandomProbabilities(30, 2, rng), grid);
  QuantileSketchBank empty(0, grid);
  EXPECT_FALSE(empty.RemoveCells(held).ok());
  QuantileSketchBank bank(0, grid);
  ASSERT_TRUE(bank.AddCells(held).ok());
  const std::string bank_bytes = BankBytes(bank);
  EXPECT_FALSE(bank.RemoveCells(other).ok());
  EXPECT_EQ(BankBytes(bank), bank_bytes);
  CellBatch twice = held;
  twice.cells.insert(twice.cells.end(), held.cells.begin(), held.cells.end());
  EXPECT_FALSE(bank.RemoveCells(twice).ok());
  EXPECT_EQ(BankBytes(bank), bank_bytes);

  // Window level: a batch on another grid, of another width, malformed,
  // off the grid or empty is rejected and the window is unchanged.
  QuantileSketchWindow window(3, grid);
  ASSERT_TRUE(window.Push(held).ok());
  const std::string window_bytes = BankBytes(window.bank());
  QuantileSketch::Options coarse;
  coarse.resolution_bits = 10;
  const auto rejected = [&](const CellBatch& batch) {
    const common::Status pushed = window.Push(batch).status();
    return !pushed.ok() && BankBytes(window.bank()) == window_bytes &&
           window.batches() == 1;
  };
  EXPECT_TRUE(
      rejected(MapCells(RandomProbabilities(30, 2, rng), coarse)));
  EXPECT_TRUE(rejected(MapCells(RandomProbabilities(30, 3, rng), grid)));
  CellBatch ragged = held;
  ragged.cells.pop_back();
  EXPECT_TRUE(rejected(ragged));
  CellBatch off_grid = held;
  off_grid.cells.back() = 1u << 20;
  EXPECT_TRUE(rejected(off_grid));
  EXPECT_TRUE(rejected(CellBatch{grid, 2, {}}));
}

// ---------------------------------------------------------------------------
// Block index and archive
// ---------------------------------------------------------------------------

/// Percentiles by a full scan of cell_counts(), the pre-block-index
/// algorithm: the reference the block-skipping Quantiles must equal bit for
/// bit.
std::vector<double> FullScanQuantiles(const QuantileSketch& sketch,
                                      const std::vector<double>& qs) {
  const std::vector<uint64_t>& cells = sketch.cell_counts();
  const QuantileSketch::Options& grid = sketch.options();
  const auto order_statistic = [&](uint64_t rank) {
    uint64_t cumulative = 0;
    for (size_t cell = 0; cell < cells.size(); ++cell) {
      cumulative += cells[cell];
      if (rank < cumulative) {
        const double unit =
            static_cast<double>(cell) /
            static_cast<double>(size_t{1} << grid.resolution_bits);
        return grid.lo + unit * (grid.hi - grid.lo);
      }
    }
    ADD_FAILURE() << "rank " << rank << " beyond the sketch";
    return 0.0;
  };
  std::vector<double> out;
  for (const double q : qs) {
    const double position =
        (q / 100.0) * static_cast<double>(sketch.count() - 1);
    const auto lower = static_cast<uint64_t>(std::floor(position));
    const auto upper = static_cast<uint64_t>(std::ceil(position));
    const double weight = position - static_cast<double>(lower);
    const double low = order_statistic(lower);
    out.push_back(lower == upper ? low
                                 : low * (1.0 - weight) +
                                       order_statistic(upper) * weight);
  }
  return out;
}

/// Checks every block-indexed query against its full-scan reference.
void ExpectQueriesMatchFullScan(const QuantileSketch& sketch) {
  const std::vector<uint64_t>& cells = sketch.cell_counts();
  EXPECT_EQ(sketch.num_nonzero_cells(),
            static_cast<size_t>(std::count_if(
                cells.begin(), cells.end(),
                [](uint64_t weight) { return weight > 0; })));
  if (sketch.empty()) return;
  const std::vector<double> qs = {0.0,  0.5,  1.0,  5.0,  25.0, 33.3,
                                  50.0, 66.7, 90.0, 99.0, 99.9, 100.0};
  const std::vector<double> got = sketch.Quantiles(qs);
  const std::vector<double> want = FullScanQuantiles(sketch, qs);
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << "q=" << qs[i] << " got " << got[i] << " want " << want[i];
  }
}

TEST(QuantileSketchTest, BlockIndexAnswersEqualAFullScan) {
  common::Rng rng(41);
  // 1 bit is one partial block; 6 bits one full block plus the last cell;
  // 7 and 12 bits span many blocks.
  for (const int bits : {1, 6, 7, 12}) {
    QuantileSketch::Options grid;
    grid.resolution_bits = bits;
    QuantileSketch sketch(grid);
    for (const std::vector<double>& values : SampleShapes(rng, 400)) {
      std::vector<uint32_t> cells;
      for (const double value : values) {
        cells.push_back(
            static_cast<uint32_t>(QuantileSketch::CellIndex(value, grid)));
      }
      ASSERT_TRUE(sketch.AddCells(cells).ok());
      ExpectQueriesMatchFullScan(sketch);
      sketch.Add(values.front(), 1000);
      ExpectQueriesMatchFullScan(sketch);
      QuantileSketch other(grid);
      for (size_t i = 0; i < values.size(); i += 3) other.Add(values[i]);
      ASSERT_TRUE(sketch.Merge(other).ok());
      ExpectQueriesMatchFullScan(sketch);
      cells.resize(cells.size() / 2);
      ASSERT_TRUE(sketch.RemoveCells(cells).ok());
      ExpectQueriesMatchFullScan(sketch);
      ExpectQueriesMatchFullScan(Repacked(sketch));
    }
    // A rejected RemoveCells leaves the index consistent too.
    const std::vector<uint32_t> too_many(sketch.count() + 1, 0);
    EXPECT_FALSE(sketch.RemoveCells(too_many).ok());
    ExpectQueriesMatchFullScan(sketch);
  }
}

TEST(QuantileSketchBankTest, LoadRejectsOversizedHeaderBeforeAllocating) {
  // A 32-byte header claiming 1024 columns at 24 bits (128 GiB of dense
  // cells) and no column bytes, rejected before any column is allocated.
  const std::string huge = HandBuiltBank(24, 10, 1024, "");
  ASSERT_EQ(huge.size(), 32u);
  EXPECT_EQ(LoadBytes(huge).status().code(),
            common::StatusCode::kInvalidArgument);
  // The cap sits where the header says: 7 columns at 24 bits fit, 8 do not,
  // and 8 are rejected by the cap, not as the truncation they also are.
  EXPECT_EQ(QuantileSketchBank::kMaxLoadedStateBytes /
                (((uint64_t{1} << 24) + 1) * sizeof(uint64_t)),
            7u);
  EXPECT_EQ(LoadBytes(HandBuiltBank(24, 10, 8, "")).status().code(),
            common::StatusCode::kInvalidArgument);
  // Within the cap, the missing column bytes are a truncation.
  EXPECT_EQ(LoadBytes(HandBuiltBank(12, 10, 4, "")).status().code(),
            common::StatusCode::kIoError);
}

TEST(QuantileSketchBankTest, LoadAcceptsOnlyTheBytesSaveWrites) {
  // One column on a 1-bit grid: a single block of three cells. Header byte
  // = gap << 2 | width code, so 4 is the first block at one byte a cell.
  const auto bytes_of = [](std::initializer_list<int> bytes) {
    std::string out;
    for (const int byte : bytes) out.push_back(static_cast<char>(byte));
    return out;
  };
  const std::string valid = HandBuiltBank(1, 5, 1, bytes_of({4, 2, 0, 3, 0}));
  const auto loaded = LoadBytes(valid);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(BankBytes(*loaded), valid);
  const size_t rows_at = valid.size() - 7;  // rows, columns, 5 column bytes
  ASSERT_EQ(valid[rows_at], 5);

  const auto rejected = [](const std::string& bytes) {
    return !LoadBytes(bytes).ok();
  };
  // A version-1 stream gets a plain Status.
  EXPECT_EQ(LoadBytes(HandBuiltBank(1, 5, 1, bytes_of({4, 2, 0, 3, 0}), 1))
                .status()
                .code(),
            common::StatusCode::kInvalidArgument);
  // An empty block: its cells add up to the (zero) rows, but Save never
  // writes it.
  EXPECT_TRUE(rejected(HandBuiltBank(1, 0, 1, bytes_of({4, 0, 0, 0, 0}))));
  // Two bytes a cell where one holds the largest weight.
  EXPECT_TRUE(
      rejected(HandBuiltBank(1, 5, 1, bytes_of({5, 2, 0, 0, 0, 3, 0, 0}))));
  // Over-long varints: the rows as 0x85 0x00, the terminator as 0x80 0x00.
  std::string padded_rows = valid;
  padded_rows.replace(rows_at, 1, bytes_of({0x85, 0x00}));
  EXPECT_TRUE(rejected(padded_rows));
  std::string padded_end = valid;
  padded_end.replace(valid.size() - 1, 1, bytes_of({0x80, 0x00}));
  EXPECT_TRUE(rejected(padded_end));
  // Cells over the rows (LoadRejectsInconsistentRowCounts has them short).
  EXPECT_TRUE(rejected(HandBuiltBank(1, 5, 1, bytes_of({4, 2, 0, 4, 0}))));
  // Weights whose sum wraps around to the rows.
  std::string wrapping = bytes_of({7});
  for (const uint64_t weight : {uint64_t{1} << 63, uint64_t{1} << 63,
                                uint64_t{2}}) {
    wrapping.append(reinterpret_cast<const char*>(&weight), sizeof(weight));
  }
  wrapping.push_back(0);
  EXPECT_TRUE(rejected(HandBuiltBank(1, 2, 1, wrapping)));
  // A gap past the grid, and the same block twice (gap 0).
  EXPECT_TRUE(rejected(HandBuiltBank(1, 5, 1, bytes_of({8, 2, 0, 3, 0}))));
  EXPECT_TRUE(rejected(
      HandBuiltBank(1, 5, 1, bytes_of({4, 2, 0, 2, 1, 0, 0, 1, 0}))));
  // An empty domain: lo raised to hi.
  std::string reversed = valid;
  const double one = 1.0;
  std::memcpy(reversed.data() + 13, &one, sizeof(one));
  EXPECT_TRUE(rejected(reversed));
}

QuantileSketchBank FilledBank(common::Rng& rng, size_t rows, size_t columns) {
  QuantileSketchBank bank;
  BBV_CHECK(bank.Observe(RandomProbabilities(rows, columns, rng)).ok());
  return bank;
}

/// Saved banks covering the format's corners: no columns, one row, a dense
/// 20,000 x 3 bank, cells in the first and the last (one-cell) block of the
/// default grid, and a 1-bit grid.
std::vector<QuantileSketchBank> CornerBanks() {
  common::Rng rng(45);
  const QuantileSketch::Options grid;
  std::vector<QuantileSketchBank> banks;
  banks.emplace_back(0, grid);
  banks.push_back(FilledBank(rng, 1, 2));
  banks.push_back(FilledBank(rng, 20000, 3));
  QuantileSketchBank edges(0, grid);
  BBV_CHECK(edges.AddCells(CellBatch{grid, 1, {0, 64, 64, 4096}}).ok());
  banks.push_back(edges);
  QuantileSketch::Options one_bit;
  one_bit.resolution_bits = 1;
  QuantileSketchBank coarse(0, one_bit);
  BBV_CHECK(coarse.Observe(RandomProbabilities(50, 2, rng)).ok());
  banks.push_back(coarse);
  return banks;
}

/// Load either rejects `bytes` or consumes a prefix of them that the
/// loaded bank saves back to exactly, and every column of that bank counts
/// the bank's rows. The prefix is all of `bytes` unless the change lowered
/// the column count, which leaves the last columns' bytes unread, as for
/// objects saved back to back.
::testing::AssertionResult LoadsCanonicallyOrFails(const std::string& bytes) {
  common::BinaryReader reader(bytes);
  const auto loaded = QuantileSketchBank::Load(reader);
  if (!loaded.ok()) return ::testing::AssertionSuccess();
  for (size_t k = 0; k < loaded->num_columns(); ++k) {
    const std::vector<uint64_t>& cells = loaded->sketch(k).cell_counts();
    const uint64_t held = std::accumulate(cells.begin(), cells.end(),
                                          uint64_t{0});
    if (held != loaded->rows_observed() ||
        loaded->sketch(k).count() != held) {
      return ::testing::AssertionFailure()
             << "column " << k << " holds " << held << " of "
             << loaded->rows_observed() << " rows";
    }
  }
  if (BankBytes(*loaded) == bytes.substr(0, reader.position())) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "loaded bytes save back differently after " << reader.position()
         << " of " << bytes.size() << " bytes";
}

TEST(SketchArchiveTest, EveryTruncationIsRejected) {
  for (const QuantileSketchBank& bank : CornerBanks()) {
    const std::string bytes = BankBytes(bank);
    for (size_t size = 0; size < bytes.size(); ++size) {
      common::BinaryReader reader(std::span<const char>(bytes.data(), size));
      EXPECT_FALSE(QuantileSketchBank::Load(reader).ok()) << "prefix " << size;
    }
  }
}

TEST(SketchArchiveTest, EverySingleByteChangeFailsOrSavesBack) {
  for (const QuantileSketchBank& bank : CornerBanks()) {
    const std::string bytes = BankBytes(bank);
    ASSERT_TRUE(LoadsCanonicallyOrFails(bytes));
    // Every value at every position, except on the dense bank, where every
    // position gets the changes that move one bit, a whole byte or a
    // varint's continuation bit (12,000 positions x 255 values would take
    // minutes under the sanitizers).
    const bool dense = bytes.size() > 4096;
    for (size_t at = 0; at < bytes.size(); ++at) {
      std::string mutated = bytes;
      for (int change = 1; change < 256; ++change) {
        if (dense && change != 0x01 && change != 0x02 && change != 0x80 &&
            change != 0xFF) {
          continue;
        }
        mutated[at] = static_cast<char>(bytes[at] ^ change);
        EXPECT_TRUE(LoadsCanonicallyOrFails(mutated))
            << "byte " << at << " xor " << change;
      }
    }
  }
}

TEST(SketchArchiveTest, ObjectsSavedBackToBackLoadInOrder) {
  common::Rng rng(44);
  const QuantileSketchBank small = FilledBank(rng, 12, 2);
  const QuantileSketchBank bank = FilledBank(rng, 40, 3);
  std::stringstream stream;
  ASSERT_TRUE(small.Save(stream).ok());
  ASSERT_TRUE(bank.Save(stream).ok());
  ASSERT_TRUE(small.Save(stream).ok());
  const auto small_size = static_cast<std::streamoff>(BankBytes(small).size());
  const auto bank_size = static_cast<std::streamoff>(BankBytes(bank).size());

  const auto first = QuantileSketchBank::Load(stream);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(stream.tellg(), small_size);
  const auto second = QuantileSketchBank::Load(stream);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(stream.tellg(), small_size + bank_size);
  const auto third = QuantileSketchBank::Load(stream);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(stream.peek(), std::char_traits<char>::eof());
  EXPECT_EQ(BankBytes(*first), BankBytes(small));
  EXPECT_EQ(BankBytes(*second), BankBytes(bank));
  EXPECT_EQ(BankBytes(*third), BankBytes(small));
  // Nothing is left for a fourth object.
  EXPECT_FALSE(QuantileSketchBank::Load(stream).ok());
}

TEST(QuantileSketchBankTest, LoadRestoresTheSavedCells) {
  const std::vector<QuantileSketchBank> banks = CornerBanks();
  for (const QuantileSketchBank& bank : banks) {
    const std::string bytes = BankBytes(bank);
    common::BinaryReader reader(bytes);
    const auto loaded = QuantileSketchBank::Load(reader);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(reader.remaining(), 0u);
    EXPECT_EQ(BankBytes(*loaded), bytes);
    EXPECT_EQ(loaded->rows_observed(), bank.rows_observed());
    for (size_t k = 0; k < bank.num_columns(); ++k) {
      EXPECT_EQ(loaded->sketch(k).cell_counts(), bank.sketch(k).cell_counts());
    }
  }
  // A dense bank saves one byte a cell, plus a header byte a block.
  const QuantileSketchBank& dense = banks[2];
  const size_t cells = dense.sketch(0).cell_counts().size();
  const size_t blocks = (cells + QuantileSketch::kBlockCells - 1) /
                        QuantileSketch::kBlockCells;
  EXPECT_LE(BankBytes(dense).size(),
            29 + 3 + 1 + dense.num_columns() * (cells + blocks + 1));

  // Weights that need every packed width: 1, 2, 4 and 8 bytes.
  const QuantileSketch::Options grid;
  QuantileSketch heavy(grid);
  heavy.Add(0.5, uint64_t{1} << 40);
  heavy.Add(0.25, 70000);
  heavy.Add(0.75, 300);
  heavy.Add(0.125, 7);
  EXPECT_EQ(SketchBytes(Repacked(heavy)), SketchBytes(heavy));
  const std::string packed = SketchBytes(heavy);
  common::BinaryReader short_count(packed);
  EXPECT_FALSE(
      QuantileSketch::UnpackCells(short_count, grid, heavy.count() - 1).ok());
}

}  // namespace
}  // namespace bbv::stats
