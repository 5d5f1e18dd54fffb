// Contracts of the conformal calibration layer behind ScoreEstimate:
//  - marginal coverage of the intervals meets the nominal level (minus a
//    sampling tolerance) on every distribution shape the serving layer
//    sees (uniform, tail-concentrated, heavily tied, constant), for both
//    the split-conformal and the quantile-forest nonconformity modes;
//  - interval width is monotone in the requested coverage level and always
//    brackets the point estimate;
//  - the batch estimate surface is bit-identical to the scalar one;
//  - calibration state survives Save/Load byte-identically and the
//    serialized predictor is byte-identical at BBV_THREADS 1 vs 8;
//  - too few meta-training examples degrade to degenerate (uncalibrated)
//    estimates instead of failing.

#include "core/conformal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/performance_predictor.h"
#include "linalg/matrix.h"

namespace bbv::core {
namespace {

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

/// One draw from the distribution shapes the serving layer actually sees
/// (mirrors ml_forest_fast_path_test): smooth, tail-concentrated, heavily
/// tied, degenerate-constant.
double DrawShape(size_t shape, common::Rng& rng) {
  switch (shape) {
    case 0:
      return rng.Uniform();
    case 1: {
      const double u = rng.Uniform();
      return u < 0.5 ? u * u : 1.0 - (1.0 - u) * (1.0 - u);
    }
    case 2:
      return static_cast<double>(rng.UniformInt(0, 4)) / 4.0;
    default:
      return 0.75;
  }
}

constexpr size_t kFeatureDim = 6;

/// Synthetic meta-training pairs: statistics drawn from `shape`, score a
/// noisy monotone function of their mean, clamped to the score range.
std::pair<std::vector<std::vector<double>>, std::vector<double>> MakeMeta(
    size_t n, size_t shape, common::Rng& rng) {
  std::vector<std::vector<double>> statistics;
  std::vector<double> scores;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(kFeatureDim);
    double mean = 0.0;
    for (double& v : row) {
      v = DrawShape(shape, rng);
      mean += v;
    }
    mean /= static_cast<double>(kFeatureDim);
    const double score =
        std::clamp(0.2 + 0.6 * mean + rng.Gaussian(0.0, 0.04), 0.0, 1.0);
    statistics.push_back(std::move(row));
    scores.push_back(score);
  }
  return {std::move(statistics), std::move(scores)};
}

PerformancePredictor TrainOnShape(size_t shape, size_t n, common::Rng& rng,
                                  ConformalCalibrator::Mode mode) {
  PerformancePredictor::Options options;
  options.tree_count_grid = {25};
  options.conformal_mode = mode;
  // Load() checks feature_dimension % |percentile grid| == 0; pin a grid
  // consistent with the synthetic kFeatureDim so Save/Load tests validate.
  options.percentile_points = {25.0, 50.0, 75.0};
  PerformancePredictor predictor(options);
  auto [statistics, scores] = MakeMeta(n, shape, rng);
  BBV_CHECK(
      predictor.TrainFromStatistics(statistics, scores, 0.8, rng).ok());
  return predictor;
}

// ---------------------------------------------------------------------------
// ConformalCalibrator unit contracts
// ---------------------------------------------------------------------------

TEST(ConformalCalibratorTest, CalibrateValidatesInputs) {
  const std::vector<double> truths = {0.5, 0.6};
  const std::vector<double> predictions = {0.55, 0.58};
  EXPECT_FALSE(ConformalCalibrator::Calibrate(
                   ConformalCalibrator::Mode::kSplitConformal, {}, {}, {})
                   .ok());
  EXPECT_FALSE(ConformalCalibrator::Calibrate(
                   ConformalCalibrator::Mode::kSplitConformal, truths,
                   std::vector<double>{0.5}, {})
                   .ok());
  const std::vector<double> poisoned = {0.55,
                                        std::numeric_limits<double>::infinity()};
  EXPECT_FALSE(ConformalCalibrator::Calibrate(
                   ConformalCalibrator::Mode::kSplitConformal, truths,
                   poisoned, {})
                   .ok());
  // Quantile-forest mode needs one spread per example.
  EXPECT_FALSE(ConformalCalibrator::Calibrate(
                   ConformalCalibrator::Mode::kQuantileForest, truths,
                   predictions, {})
                   .ok());
  EXPECT_TRUE(ConformalCalibrator::Calibrate(
                  ConformalCalibrator::Mode::kSplitConformal, truths,
                  predictions, {})
                  .ok());
}

TEST(ConformalCalibratorTest, QuantileUsesFiniteSampleRank) {
  // Residuals 0.01..0.05; n = 5. rank = ceil(6 * coverage), capped at 5.
  const std::vector<double> truths = {0.51, 0.62, 0.73, 0.84, 0.95};
  const std::vector<double> predictions = {0.50, 0.60, 0.70, 0.80, 0.90};
  const auto calibrator = ConformalCalibrator::Calibrate(
      ConformalCalibrator::Mode::kSplitConformal, truths, predictions, {});
  ASSERT_TRUE(calibrator.ok());
  ASSERT_TRUE(calibrator->calibrated());
  EXPECT_EQ(calibrator->num_calibration_examples(), 5u);
  EXPECT_NEAR(calibrator->QuantileAt(0.5), 0.03, 1e-12);   // rank 3
  EXPECT_NEAR(calibrator->QuantileAt(0.66), 0.04, 1e-12);  // rank 4
  EXPECT_NEAR(calibrator->QuantileAt(0.9), 0.05, 1e-12);   // rank 6 -> cap 5
  EXPECT_NEAR(calibrator->QuantileAt(0.99), 0.05, 1e-12);
}

TEST(ConformalCalibratorTest, IntervalClampsEndpointsButNotThePoint) {
  const std::vector<double> truths = {0.9, 0.1};
  const std::vector<double> predictions = {0.5, 0.5};
  const auto calibrator = ConformalCalibrator::Calibrate(
      ConformalCalibrator::Mode::kSplitConformal, truths, predictions, {});
  ASSERT_TRUE(calibrator.ok());
  const ScoreEstimate near_edge = calibrator->Interval(0.95, 0.0, 0.9);
  EXPECT_DOUBLE_EQ(near_edge.point, 0.95);
  EXPECT_GE(near_edge.lo, 0.0);
  EXPECT_DOUBLE_EQ(near_edge.hi, 1.0);  // clamped
  const ScoreEstimate outside = calibrator->Interval(1.1, 0.0, 0.9);
  EXPECT_DOUBLE_EQ(outside.point, 1.1);  // raw regressor output survives
  EXPECT_LE(outside.hi, 1.0);
}

TEST(ConformalCalibratorTest, SaveLoadRoundTripsBytes) {
  common::Rng rng(7);
  std::vector<double> truths, predictions, spreads;
  for (int i = 0; i < 40; ++i) {
    truths.push_back(rng.Uniform());
    predictions.push_back(rng.Uniform());
    spreads.push_back(0.01 + 0.1 * rng.Uniform());
  }
  for (const auto mode : {ConformalCalibrator::Mode::kSplitConformal,
                          ConformalCalibrator::Mode::kQuantileForest}) {
    const auto calibrator =
        ConformalCalibrator::Calibrate(mode, truths, predictions, spreads);
    ASSERT_TRUE(calibrator.ok());
    common::BinaryWriter first;
    calibrator->Save(first);
    common::BinaryReader reader(first.bytes());
    const auto restored = ConformalCalibrator::Load(reader);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored->mode(), mode);
    EXPECT_EQ(restored->scores(), calibrator->scores());
    common::BinaryWriter second;
    restored->Save(second);
    EXPECT_EQ(first.bytes(), second.bytes());
  }
}

TEST(ConformalCalibratorTest, LoadRejectsCorruptState) {
  // Descending scores violate the canonical order.
  common::BinaryWriter descending;
  descending.WriteInt32(0);
  descending.WriteDoubleVector({0.5, 0.1});
  common::BinaryReader reader(descending.bytes());
  EXPECT_FALSE(ConformalCalibrator::Load(reader).ok());

  common::BinaryWriter bad_mode;
  bad_mode.WriteInt32(9);
  bad_mode.WriteDoubleVector({0.1});
  common::BinaryReader bad_reader(bad_mode.bytes());
  EXPECT_FALSE(ConformalCalibrator::Load(bad_reader).ok());
}

// ---------------------------------------------------------------------------
// Predictor-level interval contracts
// ---------------------------------------------------------------------------

TEST(ConformalPredictorTest, CoverageMeetsNominalLowerBoundAcrossShapes) {
  constexpr size_t kNumShapes = 4;
  constexpr size_t kEval = 250;
  for (size_t shape = 0; shape < kNumShapes; ++shape) {
    for (const auto mode : {ConformalCalibrator::Mode::kSplitConformal,
                            ConformalCalibrator::Mode::kQuantileForest}) {
      common::Rng rng(100 + shape);
      PerformancePredictor predictor = TrainOnShape(shape, 240, rng, mode);
      ASSERT_TRUE(predictor.calibrator().calibrated());
      auto [statistics, scores] = MakeMeta(kEval, shape, rng);
      size_t covered = 0;
      for (size_t i = 0; i < kEval; ++i) {
        const auto estimate =
            predictor.EstimateScoreFromStatistics(statistics[i]);  // bbv-lint: allow(batch-api) per-example coverage tally
        ASSERT_TRUE(estimate.ok());
        EXPECT_TRUE(estimate->calibrated());
        if (estimate->lo <= scores[i] && scores[i] <= estimate->hi) ++covered;
      }
      const double coverage =
          static_cast<double>(covered) / static_cast<double>(kEval);
      // Nominal 0.9 minus a tolerance for the finite evaluation sample and
      // the out-of-fold approximation.
      EXPECT_GE(coverage, 0.9 - 0.05)
          << "shape=" << shape << " mode=" << static_cast<int>(mode);
    }
  }
}

TEST(ConformalPredictorTest, IntervalWidthMonotoneInCoverageLevel) {
  common::Rng rng(200);
  PerformancePredictor predictor = TrainOnShape(
      0, 200, rng, ConformalCalibrator::Mode::kSplitConformal);
  auto [statistics, scores] = MakeMeta(10, 0, rng);
  for (const auto& row : statistics) {
    double previous_width = -1.0;
    for (const double coverage : {0.5, 0.7, 0.9, 0.95, 0.99}) {
      const auto estimate =
          predictor.EstimateScoreFromStatistics(row, coverage);  // bbv-lint: allow(batch-api) one row probed across coverage levels
      ASSERT_TRUE(estimate.ok());
      EXPECT_DOUBLE_EQ(estimate->coverage_level, coverage);
      EXPECT_LE(estimate->lo, estimate->point);
      EXPECT_GE(estimate->hi, estimate->point);
      EXPECT_GE(estimate->width(), previous_width);
      previous_width = estimate->width();
    }
  }
}

TEST(ConformalPredictorTest, BatchEstimatesMatchScalarBitwise) {
  for (const auto mode : {ConformalCalibrator::Mode::kSplitConformal,
                          ConformalCalibrator::Mode::kQuantileForest}) {
    common::Rng rng(300);
    PerformancePredictor predictor = TrainOnShape(1, 200, rng, mode);
    auto [statistics, scores] = MakeMeta(64, 1, rng);
    linalg::Matrix batch(statistics.size(), kFeatureDim);
    for (size_t i = 0; i < statistics.size(); ++i) {
      for (size_t j = 0; j < kFeatureDim; ++j) {
        batch.At(i, j) = statistics[i][j];
      }
    }
    std::vector<ScoreEstimate> estimates(statistics.size());
    ASSERT_TRUE(predictor
                    .EstimateScoresFromStatistics(
                        batch, std::span<ScoreEstimate>(estimates))
                    .ok());
    for (size_t i = 0; i < statistics.size(); ++i) {
      const auto scalar =
          predictor.EstimateScoreFromStatistics(statistics[i]);  // bbv-lint: allow(batch-api) the scalar side of the bitwise contract
      ASSERT_TRUE(scalar.ok());
      EXPECT_EQ(estimates[i], *scalar) << "row " << i;  // all four fields
    }
  }
}

TEST(ConformalPredictorTest, DegeneratesWhenMetaTrainingIsTooSmall) {
  common::Rng rng(400);
  PerformancePredictor::Options options;
  options.tree_count_grid = {5};
  PerformancePredictor predictor(options);
  // 4 examples < calibration_folds = 5: calibration must be skipped, not
  // fail the train.
  ASSERT_TRUE(predictor
                  .TrainFromStatistics(
                      {{0.1}, {0.2}, {0.3}, {0.4}},
                      {0.9, 0.8, 0.7, 0.6}, 0.8, rng)
                  .ok());
  EXPECT_FALSE(predictor.calibrator().calibrated());
  const auto estimate =
      predictor.EstimateScoreFromStatistics(std::vector<double>{0.25});
  ASSERT_TRUE(estimate.ok());
  EXPECT_FALSE(estimate->calibrated());
  EXPECT_DOUBLE_EQ(estimate->lo, estimate->point);
  EXPECT_DOUBLE_EQ(estimate->hi, estimate->point);
  EXPECT_DOUBLE_EQ(estimate->width(), 0.0);
}

TEST(ConformalPredictorTest, DisablingCalibrationPreservesPointBytes) {
  // The forest — and hence every point estimate — must be byte-for-byte
  // identical whether the conformal pass runs or not, and the caller's Rng
  // must resume at the same position after Train either way.
  auto train = [](bool calibrate, double* next_draw) {
    common::Rng rng(500);
    PerformancePredictor::Options options;
    options.tree_count_grid = {25};
    options.conformal_calibration = calibrate;
    PerformancePredictor predictor(options);
    auto [statistics, scores] = MakeMeta(150, 0, rng);
    BBV_CHECK(
        predictor.TrainFromStatistics(statistics, scores, 0.8, rng).ok());
    *next_draw = rng.Uniform();
    return predictor;
  };
  double calibrated_draw = 0.0;
  double uncalibrated_draw = 0.0;
  PerformancePredictor calibrated = train(true, &calibrated_draw);
  PerformancePredictor uncalibrated = train(false, &uncalibrated_draw);
  EXPECT_EQ(calibrated_draw, uncalibrated_draw);  // bbv-lint: allow(float-eq) stream position contract
  common::Rng eval_rng(501);
  auto [statistics, scores] = MakeMeta(20, 0, eval_rng);
  for (const auto& row : statistics) {
    const auto with = calibrated.EstimateScoreFromStatistics(row);  // bbv-lint: allow(batch-api) paired scalar probes
    const auto without = uncalibrated.EstimateScoreFromStatistics(row);  // bbv-lint: allow(batch-api) paired scalar probes
    ASSERT_TRUE(with.ok());
    ASSERT_TRUE(without.ok());
    EXPECT_EQ(with->point, without->point);  // bbv-lint: allow(float-eq) bitwise contract
    EXPECT_TRUE(with->calibrated());
    EXPECT_FALSE(without->calibrated());
  }
}

TEST(ConformalPredictorTest, SerializedBytesIdenticalAcrossThreadCounts) {
  auto bytes_at = [](const char* threads) {
    ScopedThreadsEnv env(threads);
    common::Rng rng(600);
    PerformancePredictor predictor = TrainOnShape(
        2, 200, rng, ConformalCalibrator::Mode::kQuantileForest);
    std::ostringstream out;
    BBV_CHECK(predictor.Save(out).ok());
    return out.str();
  };
  const std::string serial = bytes_at("1");
  const std::string threaded = bytes_at("8");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded)
      << "calibration state diverges between 1 and 8 threads";
}

TEST(ConformalPredictorTest, SaveLoadRoundTripsCalibrationByteIdentically) {
  for (const auto mode : {ConformalCalibrator::Mode::kSplitConformal,
                          ConformalCalibrator::Mode::kQuantileForest}) {
    common::Rng rng(700);
    PerformancePredictor predictor = TrainOnShape(0, 200, rng, mode);
    std::stringstream first;
    ASSERT_TRUE(predictor.Save(first).ok());
    auto restored = PerformancePredictor::Load(first);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    std::stringstream second;
    ASSERT_TRUE(restored->Save(second).ok());
    EXPECT_EQ(first.str(), second.str());
    EXPECT_EQ(restored->calibrator().mode(), mode);
    EXPECT_EQ(restored->calibrator().scores(),
              predictor.calibrator().scores());
    EXPECT_EQ(restored->coverage_level(), predictor.coverage_level());  // bbv-lint: allow(float-eq) round-trip contract
    auto [statistics, scores] = MakeMeta(10, 0, rng);
    for (const auto& row : statistics) {
      const auto original = predictor.EstimateScoreFromStatistics(row);  // bbv-lint: allow(batch-api) round-trip probe
      const auto reloaded = restored->EstimateScoreFromStatistics(row);  // bbv-lint: allow(batch-api) round-trip probe
      ASSERT_TRUE(original.ok());
      ASSERT_TRUE(reloaded.ok());
      EXPECT_EQ(*original, *reloaded);  // all four fields
    }
  }
}

}  // namespace
}  // namespace bbv::core
