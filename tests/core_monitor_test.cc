#include "core/monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "datasets/tabular.h"
#include "errors/numeric_errors.h"
#include "json_test_util.h"
#include "ml/black_box.h"
#include "ml/sgd_logistic_regression.h"
#include "stats/quantile_sketch.h"

namespace bbv::core {
namespace {

struct Fixture {
  data::Dataset serving;
  std::unique_ptr<ml::BlackBoxModel> model;
  PerformancePredictor predictor;
};

Fixture MakeFixture(common::Rng& rng) {
  data::Dataset dataset = datasets::MakeIncome(2500, rng);
  auto [source, serving] = data::TrainTestSplit(dataset, 0.7, rng);
  auto [train, test] = data::TrainTestSplit(source, 0.7, rng);
  Fixture fixture;
  fixture.serving = std::move(serving);
  fixture.model = std::make_unique<ml::BlackBoxModel>(
      std::make_unique<ml::SgdLogisticRegression>());
  BBV_CHECK(fixture.model->Train(train, rng).ok());
  PerformancePredictor::Options options;
  options.corruptions_per_generator = 25;
  options.tree_count_grid = {25};
  fixture.predictor = PerformancePredictor(options);
  static const errors::NumericOutliers kOutliers;
  static const errors::Scaling kScaling;
  std::vector<const errors::ErrorGen*> generators = {&kOutliers, &kScaling};
  BBV_CHECK(fixture.predictor.Train(*fixture.model, test, generators, rng)
                .ok());
  return fixture;
}

ModelMonitor MakeMonitor(const Fixture& fixture,
                         ModelMonitor::Options options = {}) {
  auto monitor = ModelMonitor::CreateForProba(
      fixture.model->Name(),
      std::make_shared<const PerformancePredictor>(fixture.predictor),
      options);
  BBV_CHECK(monitor.ok()) << monitor.status().ToString();
  return std::move(monitor).ValueOrDie();
}

linalg::Matrix Proba(const Fixture& fixture, const data::DataFrame& frame) {
  return fixture.model->PredictProba(frame).ValueOrDie();
}

TEST(ModelMonitorTest, CleanBatchesDoNotAlarm) {
  common::Rng rng(1);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor monitor = MakeMonitor(fixture);
  const auto report = monitor.Observe(Proba(fixture, fixture.serving.features));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->alarm);
  EXPECT_EQ(report->rows, fixture.serving.NumRows());
  EXPECT_EQ(report->batch_id, 0u);
  EXPECT_NEAR(report->estimate.point, report->reference_score, 0.06);
}

TEST(ModelMonitorTest, CatastrophicBatchesAlarm) {
  common::Rng rng(2);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.alarm_threshold = 0.05;
  ModelMonitor monitor = MakeMonitor(fixture, options);
  const errors::Scaling severe({}, errors::FractionRange{0.95, 1.0},
                               {1000.0});
  int alarms = 0;
  for (int i = 0; i < 5; ++i) {
    const auto corrupted =
        severe.Corrupt(fixture.serving.features, rng).ValueOrDie();
    const auto report = monitor.Observe(Proba(fixture, corrupted));
    ASSERT_TRUE(report.ok());
    if (report->alarm) ++alarms;
  }
  EXPECT_GE(alarms, 4);
  EXPECT_EQ(monitor.alarms_raised(), static_cast<size_t>(alarms));
}

TEST(ModelMonitorTest, HistoryIsBounded) {
  common::Rng rng(3);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.history_limit = 3;
  ModelMonitor monitor = MakeMonitor(fixture, options);
  const auto proba = Proba(fixture, fixture.serving.features);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(monitor.Observe(proba).ok());
  }
  EXPECT_EQ(monitor.history().size(), 3u);
  EXPECT_EQ(monitor.batches_observed(), 7u);
  // Oldest entries were dropped; the last report has id 6.
  EXPECT_EQ(monitor.history().back().batch_id, 6u);
  EXPECT_EQ(monitor.history().front().batch_id, 4u);
}

TEST(ModelMonitorTest, EmptyBatchRejected) {
  common::Rng rng(4);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor monitor = MakeMonitor(fixture);
  EXPECT_FALSE(monitor.Observe(linalg::Matrix()).ok());
}

TEST(ModelMonitorTest, SummaryMentionsCounts) {
  common::Rng rng(5);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor monitor = MakeMonitor(fixture);
  ASSERT_TRUE(monitor.Observe(Proba(fixture, fixture.serving.features)).ok());
  const std::string summary = monitor.Summary();
  EXPECT_NE(summary.find("1 batches observed"), std::string::npos);
  EXPECT_NE(summary.find("median="), std::string::npos);
  EXPECT_NE(summary.find("sliding window: last 1 batches"),
            std::string::npos);
  // The name passed to CreateForProba labels the monitor.
  EXPECT_NE(summary.find(fixture.model->Name()), std::string::npos);
}

TEST(ModelMonitorTest, AlarmFiresExactlyAtThreshold) {
  common::Rng rng(6);
  Fixture fixture = MakeFixture(rng);
  const errors::Scaling severe({}, errors::FractionRange{0.95, 1.0},
                               {1000.0});
  const auto corrupted =
      severe.Corrupt(fixture.serving.features, rng).ValueOrDie();
  const auto proba = Proba(fixture, corrupted);
  // Deterministic windowed relative drop of this exact batch: the alarm
  // thresholds on the window (here the batch's own 1-batch sketch).
  ModelMonitor::Options options;
  options.alarm_policy = ModelMonitor::AlarmPolicy::kPointDrop;
  ModelMonitor probe = MakeMonitor(fixture, options);
  const auto probed = probe.Observe(proba);
  ASSERT_TRUE(probed.ok());
  const double drop = probed->windowed_relative_drop;
  ASSERT_GT(drop, 0.0);
  ASSERT_LT(drop, 1.0);

  // >= semantics: a drop exactly at the threshold alarms... (point-drop
  // policy, so the comparison under test sees exactly `drop`)
  options.alarm_threshold = drop;
  ModelMonitor at_monitor = MakeMonitor(fixture, options);
  const auto at_report = at_monitor.Observe(proba);
  ASSERT_TRUE(at_report.ok());
  EXPECT_TRUE(at_report->alarm);

  // ...while a threshold just above it does not.
  options.alarm_threshold = drop + 1e-9;
  ModelMonitor above_monitor = MakeMonitor(fixture, options);
  const auto above_report = above_monitor.Observe(proba);
  ASSERT_TRUE(above_report.ok());
  EXPECT_FALSE(above_report->alarm);
}

TEST(ModelMonitorTest, HistoryTrimsAtExactBoundary) {
  common::Rng rng(7);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.history_limit = 3;
  ModelMonitor monitor = MakeMonitor(fixture, options);
  const auto proba = Proba(fixture, fixture.serving.features);
  // Exactly at the limit: nothing is dropped yet.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(monitor.Observe(proba).ok());
  }
  EXPECT_EQ(monitor.history().size(), 3u);
  EXPECT_EQ(monitor.history().front().batch_id, 0u);
  // One past the limit: only the oldest entry goes.
  ASSERT_TRUE(monitor.Observe(proba).ok());
  EXPECT_EQ(monitor.history().size(), 3u);
  EXPECT_EQ(monitor.history().front().batch_id, 1u);
  EXPECT_EQ(monitor.history().back().batch_id, 3u);
}

TEST(ModelMonitorTest, ExportJsonRoundTrips) {
  common::Rng rng(8);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor monitor = MakeMonitor(fixture);
  const auto proba = Proba(fixture, fixture.serving.features);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(monitor.Observe(proba).ok());
  }
  const std::string json = monitor.ExportJson();
  EXPECT_TRUE(bbv::testing::JsonParses(json)) << json;
  for (const char* key :
       {"\"monitor\"", "\"reference_score\"", "\"alarm_threshold\"",
        "\"batches_observed\"", "\"alarm_rate\"", "\"history\"",
        "\"batch_id\"", "\"relative_drop\"", "\"latency_seconds\"",
        "\"estimate_calls_total\"", "\"alarms_total\"",
        "\"window_batches\": 1", "\"windowed_estimate\"",
        "\"window_batches_used\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ModelMonitorTest, ExportJsonOfEmptyHistoryRoundTrips) {
  common::Rng rng(9);
  Fixture fixture = MakeFixture(rng);
  const ModelMonitor monitor = MakeMonitor(fixture);
  EXPECT_TRUE(bbv::testing::JsonParses(monitor.ExportJson()));
}

PerformancePredictor TrainTinyPredictor(double test_score, common::Rng& rng) {
  PerformancePredictor::Options options;
  options.tree_count_grid = {5};
  PerformancePredictor predictor(options);
  const std::vector<std::vector<double>> statistics = {
      {0.1}, {0.2}, {0.3}, {0.4}};
  const std::vector<double> scores = {0.9, 0.8, 0.7, 0.6};
  BBV_CHECK(
      predictor.TrainFromStatistics(statistics, scores, test_score, rng).ok());
  return predictor;
}

TEST(ModelMonitorTest, CreateRejectsDegenerateReferenceScore) {
  common::Rng rng(10);
  for (double degenerate :
       {0.0, -0.25, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    const auto monitor = ModelMonitor::CreateForProba(
        "tiny", std::make_shared<const PerformancePredictor>(
                    TrainTinyPredictor(degenerate, rng)),
        {});
    EXPECT_FALSE(monitor.ok()) << degenerate;
    EXPECT_NE(monitor.status().ToString().find("reference score"),
              std::string::npos);
  }
}

TEST(ModelMonitorTest, CreateRejectsBadConfiguration) {
  common::Rng rng(11);
  const auto predictor = std::make_shared<const PerformancePredictor>(
      TrainTinyPredictor(0.8, rng));
  const auto create = [&](const ModelMonitor::Options& options) {
    return ModelMonitor::CreateForProba("tiny", predictor, options).status();
  };
  EXPECT_EQ(ModelMonitor::CreateForProba("tiny", nullptr, {}).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_FALSE(ModelMonitor::CreateForProba(
                   "tiny", std::make_shared<const PerformancePredictor>(), {})
                   .ok());
  ModelMonitor::Options bad_threshold;
  bad_threshold.alarm_threshold = 1.5;
  EXPECT_EQ(create(bad_threshold).code(), common::StatusCode::kInvalidArgument);
  ModelMonitor::Options no_history;
  no_history.history_limit = 0;
  EXPECT_EQ(create(no_history).code(), common::StatusCode::kInvalidArgument);
  // There is no unwindowed mode: a zero-batch window is a configuration
  // error, not a request for per-batch alarms.
  ModelMonitor::Options no_window;
  no_window.window_batches = 0;
  EXPECT_EQ(create(no_window).code(), common::StatusCode::kInvalidArgument);
  EXPECT_TRUE(create({}).ok());
  EXPECT_EQ(ModelMonitor::Options{}.window_batches, 1u);
}

TEST(ModelMonitorTest, ReportsCarryLatencyAndTelemetrySnapshot) {
  const bool was_enabled = common::telemetry::Enabled();
  common::telemetry::SetEnabled(true);
  common::Rng rng(12);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor monitor = MakeMonitor(fixture);
  const auto report =
      monitor.Observe(Proba(fixture, fixture.serving.features));
  common::telemetry::SetEnabled(was_enabled);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->latency_seconds, 0.0);
  EXPECT_GE(report->estimate_calls_total, 1u);
  EXPECT_EQ(report->alarms_total, monitor.alarms_raised());
  EXPECT_EQ(monitor.history().back().latency_seconds,
            report->latency_seconds);
}

TEST(ModelMonitorTest, CreateRejectsBadSketchResolution) {
  common::Rng rng(13);
  const auto predictor = std::make_shared<const PerformancePredictor>(
      TrainTinyPredictor(0.8, rng));
  // Checked at every window size, the default 1 included.
  for (size_t window : {1u, 4u}) {
    ModelMonitor::Options options;
    options.window_batches = window;
    for (int bits : {0, -3, 25}) {
      options.sketch_resolution_bits = bits;
      EXPECT_EQ(ModelMonitor::CreateForProba("m", predictor, options)
                    .status()
                    .code(),
                common::StatusCode::kInvalidArgument)
          << window << " " << bits;
    }
    options.sketch_resolution_bits = 12;
    EXPECT_TRUE(ModelMonitor::CreateForProba("m", predictor, options).ok());
  }
}

TEST(ModelMonitorTest, WindowedHandlesEmptyAndSingleRowBatches) {
  common::Rng rng(14);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.window_batches = 3;
  ModelMonitor monitor = MakeMonitor(fixture, options);

  EXPECT_FALSE(monitor.Observe(linalg::Matrix()).ok());
  EXPECT_EQ(monitor.batches_observed(), 0u);

  const auto proba = Proba(fixture, fixture.serving.features);
  const auto single = monitor.Observe(proba.SelectRows({0}));
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->rows, 1u);
  EXPECT_EQ(single->window_batches_used, 1u);
  EXPECT_EQ(single->window_rows, 1u);
  EXPECT_TRUE(std::isfinite(single->windowed_estimate.point));
  EXPECT_TRUE(std::isfinite(single->windowed_relative_drop));
}

TEST(ModelMonitorTest, WindowedEvictsWhenBatchCountExceedsWindow) {
  common::Rng rng(15);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.window_batches = 2;
  ModelMonitor monitor = MakeMonitor(fixture, options);
  const auto proba = Proba(fixture, fixture.serving.features);
  for (int i = 0; i < 5; ++i) {
    const auto report = monitor.Observe(proba);
    ASSERT_TRUE(report.ok());
    // The merged summary never covers more than window_batches batches.
    EXPECT_EQ(report->window_batches_used,
              std::min<size_t>(static_cast<size_t>(i) + 1, 2u));
    EXPECT_EQ(report->window_rows,
              report->window_batches_used * proba.rows());
  }
  EXPECT_EQ(monitor.batches_observed(), 5u);
  const std::string summary = monitor.Summary();
  EXPECT_NE(summary.find("sliding window"), std::string::npos);
  const std::string json = monitor.ExportJson();
  EXPECT_TRUE(bbv::testing::JsonParses(json));
  for (const char* key :
       {"\"window_batches\"", "\"windowed_estimate\"",
        "\"windowed_relative_drop\"", "\"window_batches_used\"",
        "\"window_rows\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ModelMonitorTest, RejectsNonFiniteWithoutPollutingWindow) {
  common::Rng rng(16);
  Fixture fixture = MakeFixture(rng);
  const auto proba = Proba(fixture, fixture.serving.features);
  // NaN in the class-0 column of every third row, and a lone -inf: scoring
  // either would sort non-finite values into the percentile features.
  linalg::Matrix poisoned = proba;
  for (size_t i = 0; i < poisoned.rows(); i += 3) {
    poisoned.At(i, 0) = std::numeric_limits<double>::quiet_NaN();
  }
  linalg::Matrix infinite = proba;
  infinite.At(proba.rows() - 1, 1) = -std::numeric_limits<double>::infinity();
  // The default one-batch window and a window with room to spare.
  for (const size_t window : {1u, 4u}) {
    ModelMonitor::Options options;
    options.window_batches = window;
    ModelMonitor monitor = MakeMonitor(fixture, options);
    ASSERT_TRUE(monitor.Observe(proba).ok());
    EXPECT_EQ(monitor.Observe(poisoned).status().code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_EQ(monitor.Observe(infinite).status().code(),
              common::StatusCode::kInvalidArgument);
    EXPECT_EQ(monitor.batches_observed(), 1u);
    EXPECT_EQ(monitor.history().size(), 1u);

    // A rejected batch must not occupy a window slot.
    const auto next = monitor.Observe(proba);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next->window_batches_used, std::min<size_t>(2, window));
    EXPECT_EQ(next->window_rows, next->window_batches_used * proba.rows());
  }
}

TEST(ModelMonitorTest, WindowedEstimateMatchesMergedBankOracle) {
  common::Rng rng(19);
  Fixture fixture = MakeFixture(rng);
  ModelMonitor::Options options;
  options.window_batches = 3;
  options.alarm_policy = ModelMonitor::AlarmPolicy::kPointDrop;
  ModelMonitor monitor = MakeMonitor(fixture, options);
  const linalg::Matrix proba = Proba(fixture, fixture.serving.features);

  // Batches of different sizes; every other one has its confidence pulled
  // toward chance so the windowed estimate moves as batches slide.
  std::vector<linalg::Matrix> batches;
  for (size_t b = 0; b < 7; ++b) {
    std::vector<size_t> rows;
    for (size_t i = b * 37; i < std::min(proba.rows(), b * 37 + 90 + 40 * b);
         ++i) {
      rows.push_back(i);
    }
    linalg::Matrix batch = proba.SelectRows(rows);
    if (b % 2 == 1) {
      for (size_t i = 0; i < batch.rows(); ++i) {
        for (size_t k = 0; k < batch.cols(); ++k) {
          batch.At(i, k) = 0.5 + (batch.At(i, k) - 0.5) * 0.2;
        }
      }
    }
    batches.push_back(std::move(batch));
  }

  // The oracle: a fresh bank per batch, merged over the last
  // window_batches accepted batches, scored by the scalar estimate.
  std::deque<stats::QuantileSketchBank> oracle;
  std::vector<double> points;
  for (size_t b = 0; b < batches.size(); ++b) {
    if (b == 4) {
      // A rejected batch at a full window would have evicted the oldest
      // batch; the window must come out of the rejection unchanged.
      linalg::Matrix poisoned = batches[b];
      poisoned.At(1, 0) = std::numeric_limits<double>::infinity();
      EXPECT_FALSE(monitor.Observe(poisoned).ok());
    }
    const auto report = monitor.Observe(batches[b]);
    ASSERT_TRUE(report.ok());
    oracle.emplace_back(0, stats::QuantileSketch::Options{});
    ASSERT_TRUE(oracle.back().Observe(batches[b]).ok());
    if (oracle.size() > options.window_batches) oracle.pop_front();
    stats::QuantileSketchBank merged;
    for (const stats::QuantileSketchBank& bank : oracle) {
      ASSERT_TRUE(merged.Merge(bank).ok());
    }
    // bbv-lint: allow(batch-api) the scalar estimate is the oracle
    const auto expected = fixture.predictor.EstimateScoreFromStatistics(
        merged.PercentileFeatures(fixture.predictor.percentile_points()));
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(report->window_batches_used, oracle.size()) << b;
    EXPECT_EQ(report->window_rows, merged.rows_observed()) << b;
    EXPECT_EQ(std::bit_cast<uint64_t>(report->windowed_estimate.point),
              std::bit_cast<uint64_t>(expected->point))
        << b;
    EXPECT_EQ(std::bit_cast<uint64_t>(report->windowed_estimate.lo),
              std::bit_cast<uint64_t>(expected->lo));
    EXPECT_EQ(std::bit_cast<uint64_t>(report->windowed_estimate.hi),
              std::bit_cast<uint64_t>(expected->hi));
    EXPECT_EQ(report->windowed_estimate.coverage_level,
              expected->coverage_level);
    const ModelMonitor::Assessment drops =
        ModelMonitor::Assess(*expected, report->reference_score, options);
    EXPECT_EQ(report->windowed_relative_drop, drops.relative_drop);
    EXPECT_EQ(report->windowed_certified_drop, drops.certified_drop);
    EXPECT_EQ(report->alarm, drops.alarm);
    points.push_back(report->windowed_estimate.point);
  }
  EXPECT_EQ(monitor.batches_observed(), batches.size());
  // The windows genuinely differ, otherwise the oracle proves little.
  std::sort(points.begin(), points.end());
  EXPECT_GE(std::unique(points.begin(), points.end()) - points.begin(), 4);
}

TEST(ModelMonitorTest, SwapPredictorStartsNewEpochAndClearsWindow) {
  common::Rng rng(17);
  Fixture fixture = MakeFixture(rng);
  const auto shared =
      std::make_shared<const PerformancePredictor>(fixture.predictor);
  ModelMonitor::Options options;
  options.window_batches = 4;
  auto monitor = ModelMonitor::CreateForProba("tenant", shared, options);
  ASSERT_TRUE(monitor.ok());
  const auto proba = Proba(fixture, fixture.serving.features);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(monitor->Observe(proba).ok());
  }
  EXPECT_EQ(monitor->history().back().window_batches_used, 3u);
  EXPECT_EQ(monitor->history().back().epoch, 0u);
  EXPECT_EQ(monitor->epoch(), 0u);

  // Rejected swaps keep the old predictor, window and epoch.
  EXPECT_FALSE(monitor->SwapPredictor(nullptr).ok());
  EXPECT_FALSE(
      monitor->SwapPredictor(std::make_shared<const PerformancePredictor>())
          .ok());
  EXPECT_EQ(monitor->epoch(), 0u);

  ASSERT_TRUE(monitor->SwapPredictor(shared).ok());
  EXPECT_EQ(monitor->epoch(), 1u);
  // Epoch boundary: the window must not straddle the swap, so the first
  // post-swap report covers exactly its own batch.
  const auto report = monitor->Observe(proba);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->window_batches_used, 1u);
  EXPECT_EQ(report->window_rows, proba.rows());
  EXPECT_EQ(report->epoch, 1u);

  const std::string json = monitor->ExportJson();
  EXPECT_TRUE(bbv::testing::JsonParses(json));
  EXPECT_NE(json.find("\"predictor_epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\""), std::string::npos);
}

}  // namespace
}  // namespace bbv::core
