// Property tests for the deterministic mergeable quantile sketch: every
// percentile must agree with the exact stats::SortedView path within the
// sketch's value-error bound, and the sketch state must be a pure function
// of the input multiset — identical bytes for any batch split, merge order
// and thread count.

#include "stats/quantile_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/prediction_statistics.h"
#include "stats/descriptive.h"

namespace bbv::stats {
namespace {

std::string SketchBytes(const QuantileSketch& sketch) {
  std::ostringstream out;
  BBV_CHECK(sketch.Save(out).ok());
  return out.str();
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

TEST(QuantileSketchTest, SaveLoadRoundTripsCanonically) {
  common::Rng rng(21);
  QuantileSketch sketch;
  for (int i = 0; i < 1000; ++i) sketch.Add(rng.Uniform());
  const std::string bytes = SketchBytes(sketch);
  std::istringstream in(bytes);
  const auto loaded = QuantileSketch::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->count(), sketch.count());
  EXPECT_EQ(SketchBytes(*loaded), bytes);
}

TEST(QuantileSketchTest, LoadRejectsCorruptStreams) {
  QuantileSketch sketch;
  sketch.Add(0.5);
  std::string bytes = SketchBytes(sketch);
  // Truncated stream.
  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(QuantileSketch::Load(truncated).ok());
  // Flipped byte inside the payload (after the magic) must be caught by the
  // total-vs-cells consistency check or a range check.
  bytes[bytes.size() - 3] = static_cast<char>(0x7f);
  std::istringstream corrupted(bytes);
  EXPECT_FALSE(QuantileSketch::Load(corrupted).ok());
}

TEST(QuantileSketchTest, CdfMatchesEmpiricalFractions) {
  QuantileSketch sketch;
  for (int i = 0; i < 10; ++i) sketch.Add(0.1);
  for (int i = 0; i < 30; ++i) sketch.Add(0.6);
  EXPECT_NEAR(sketch.Cdf(0.05), 0.0, 1e-12);
  EXPECT_NEAR(sketch.Cdf(0.1), 0.25, 1e-12);
  EXPECT_NEAR(sketch.Cdf(0.3), 0.25, 1e-12);
  EXPECT_NEAR(sketch.Cdf(0.6), 1.0, 1e-12);
  EXPECT_NEAR(sketch.Cdf(1.0), 1.0, 1e-12);
}

TEST(QuantileSketchTest, KsStatisticSeparatesShiftedDistributions) {
  common::Rng rng(22);
  QuantileSketch low;
  QuantileSketch high;
  QuantileSketch low_copy;
  for (int i = 0; i < 2000; ++i) {
    const double u = rng.Uniform();
    low.Add(u * 0.4);
    low_copy.Add(u * 0.4);
    high.Add(0.6 + u * 0.4);
  }
  const auto identical = KsStatistic(low, low_copy);
  ASSERT_TRUE(identical.ok());
  EXPECT_NEAR(*identical, 0.0, 1e-12);
  const auto disjoint = KsStatistic(low, high);
  ASSERT_TRUE(disjoint.ok());
  EXPECT_NEAR(*disjoint, 1.0, 1e-12);
  QuantileSketch::Options coarse;
  coarse.resolution_bits = 4;
  QuantileSketch other_grid(coarse);
  other_grid.Add(0.5);
  EXPECT_FALSE(KsStatistic(low, other_grid).ok());
  QuantileSketch empty;
  EXPECT_FALSE(KsStatistic(low, empty).ok());
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
  ASSERT_TRUE(bank.Observe(RandomProbabilities(10, 3, rng)).ok());
  EXPECT_FALSE(bank.Observe(RandomProbabilities(10, 2, rng)).ok());
  EXPECT_EQ(bank.rows_observed(), 10u);
  EXPECT_EQ(bank.num_columns(), 3u);
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

TEST(QuantileSketchBankTest, LoadRejectsInconsistentRowCounts) {
  // Hand-built stream with a structurally valid header whose claimed row
  // count disagrees with the member sketches. Such bytes used to pass Load
  // and then crash the process inside PercentileFeatures' consistency
  // BBV_CHECK; untrusted state must be rejected at the Load boundary.
  const QuantileSketch::Options options;
  const auto bank_header = [&](common::BinaryWriter& writer, uint64_t rows,
                               uint64_t sketches) {
    writer.WriteMagic("BBVQB", 1);
    writer.WriteInt32(options.resolution_bits);
    writer.WriteDouble(options.lo);
    writer.WriteDouble(options.hi);
    writer.WriteUint64(rows);
    writer.WriteUint64(sketches);
  };

  // Claims 5 observed rows over one sketch that has counted none.
  std::ostringstream empty_sketch;
  {
    common::BinaryWriter writer(empty_sketch);
    bank_header(writer, 5, 1);
    ASSERT_TRUE(QuantileSketch(options).Save(empty_sketch).ok());
  }
  std::istringstream in_empty(empty_sketch.str());
  EXPECT_FALSE(QuantileSketchBank::Load(in_empty).ok());

  // Claims observed rows with no columns at all.
  std::ostringstream no_columns;
  {
    common::BinaryWriter writer(no_columns);
    bank_header(writer, 5, 0);
  }
  std::istringstream in_no_columns(no_columns.str());
  EXPECT_FALSE(QuantileSketchBank::Load(in_no_columns).ok());

  // Sanity: the same construction with a consistent count loads fine.
  std::ostringstream consistent;
  {
    common::BinaryWriter writer(consistent);
    bank_header(writer, 3, 1);
    QuantileSketch sketch(options);
    for (double v : {0.1, 0.5, 0.9}) sketch.Add(v);
    ASSERT_TRUE(sketch.Save(consistent).ok());
  }
  std::istringstream in_consistent(consistent.str());
  EXPECT_TRUE(QuantileSketchBank::Load(in_consistent).ok());
}

TEST(QuantileSketchBankTest, MemoryIsIndependentOfRowCount) {
  common::Rng rng(28);
  QuantileSketchBank small;
  ASSERT_TRUE(small.Observe(RandomProbabilities(100, 2, rng)).ok());
  QuantileSketchBank large;
  ASSERT_TRUE(large.Observe(RandomProbabilities(20000, 2, rng)).ok());
  EXPECT_EQ(small.MemoryBytes(), large.MemoryBytes());
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
          const CellBatch mapped = CellBatch::Of(values, grid);
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
        window.Push(CellBatch::Of(RandomProbabilities(50, 2, rng), grid));
    ASSERT_TRUE(evicted.ok());
    EXPECT_EQ(evicted->empty(), b < 2);
    window.Undo(*evicted);
    EXPECT_EQ(BankBytes(window.bank()), before);
    EXPECT_EQ(window.batches(), batches);
    ASSERT_TRUE(
        window.Push(CellBatch::Of(RandomProbabilities(40, 2, rng), grid))
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
  const CellBatch held = CellBatch::Of(RandomProbabilities(30, 2, rng), grid);
  const CellBatch other = CellBatch::Of(RandomProbabilities(30, 2, rng), grid);
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
      rejected(CellBatch::Of(RandomProbabilities(30, 2, rng), coarse)));
  EXPECT_TRUE(rejected(CellBatch::Of(RandomProbabilities(30, 3, rng), grid)));
  CellBatch ragged = held;
  ragged.cells.pop_back();
  EXPECT_TRUE(rejected(ragged));
  CellBatch off_grid = held;
  off_grid.cells.back() = 1u << 20;
  EXPECT_TRUE(rejected(off_grid));
  EXPECT_TRUE(rejected(CellBatch{grid, 2, {}}));
}

}  // namespace
}  // namespace bbv::stats
