// Interval-aware alarm contracts of ModelMonitor:
//  - kCertifiedDrop thresholds on the drop the interval's optimistic
//    endpoint concedes, kPointDrop on the raw point drop, and both degrade
//    to identical behavior on an uncalibrated predictor;
//  - BatchReport's drop fields are exactly the documented functions of the
//    estimate and reference;
//  - ExportJson carries the interval and policy, and always carries the
//    window configuration and fields (every monitor alarms on its window;
//    the default window is one batch).

#include "core/monitor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/prediction_statistics.h"
#include "json_test_util.h"
#include "linalg/matrix.h"

namespace bbv::core {
namespace {

/// Two-class batch where `good_fraction` of the rows are confident (0.99)
/// and the rest ambiguous (0.51) — same construction the streaming tests
/// use, so batch composition maps linearly onto the estimated score.
linalg::Matrix MixtureBatch(double good_fraction, size_t rows) {
  linalg::Matrix batch(rows, 2);
  const size_t good_rows =
      static_cast<size_t>(good_fraction * static_cast<double>(rows) + 0.5);
  for (size_t i = 0; i < rows; ++i) {
    const double confidence = i < good_rows ? 0.99 : 0.51;
    const size_t winner = i % 2;
    batch.At(i, winner) = confidence;
    batch.At(i, 1 - winner) = 1.0 - confidence;
  }
  return batch;
}

/// Synthetic predictor whose score is a linear function of the confident
/// fraction; reference (clean-test) score 0.99. Calibrated by default.
std::shared_ptr<const PerformancePredictor> TrainSyntheticPredictor(
    common::Rng& rng, bool calibrate = true) {
  PerformancePredictor::Options options;
  options.tree_count_grid = {30};
  options.conformal_calibration = calibrate;
  auto predictor = std::make_shared<PerformancePredictor>(options);
  std::vector<std::vector<double>> statistics;
  std::vector<double> scores;
  for (size_t rows : {400ul, 410ul, 420ul}) {
    for (int level = 0; level <= 10; ++level) {
      const double fraction = static_cast<double>(level) / 10.0;
      statistics.push_back(PredictionStatistics(MixtureBatch(fraction, rows)));
      scores.push_back(0.51 + 0.48 * fraction);
    }
  }
  BBV_CHECK(
      predictor->TrainFromStatistics(statistics, scores, 0.99, rng).ok());
  return predictor;
}

ModelMonitor MakeMonitor(std::shared_ptr<const PerformancePredictor> predictor,
                         ModelMonitor::Options options,
                         const std::string& name = "synthetic") {
  auto monitor = ModelMonitor::CreateForProba(name, std::move(predictor),
                                              options);
  BBV_CHECK(monitor.ok());
  return std::move(monitor).ValueOrDie();
}

TEST(MonitorIntervalTest, ReportDropsAreExactFunctionsOfTheEstimate) {
  common::Rng rng(11);
  auto predictor = TrainSyntheticPredictor(rng);
  ASSERT_TRUE(predictor->calibrator().calibrated());
  ModelMonitor monitor = MakeMonitor(predictor, {});
  const auto report = monitor.Observe(MixtureBatch(0.6, 400));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->estimate.calibrated());
  EXPECT_LE(report->estimate.lo, report->estimate.point);
  EXPECT_GE(report->estimate.hi, report->estimate.point);
  EXPECT_DOUBLE_EQ(report->estimate.coverage_level,
                   predictor->coverage_level());
  const double reference = report->reference_score;
  EXPECT_DOUBLE_EQ(reference, 0.99);
  EXPECT_DOUBLE_EQ(report->relative_drop,
                   (reference - report->estimate.point) / reference);
  EXPECT_DOUBLE_EQ(report->certified_drop,
                   (reference - report->estimate.hi) / reference);
  // hi >= point, so the certified drop is never larger than the point drop.
  EXPECT_LE(report->certified_drop, report->relative_drop);
}

TEST(MonitorIntervalTest, CertifiedPolicyToleratesDropsInsideTheInterval) {
  common::Rng rng(12);
  auto predictor = TrainSyntheticPredictor(rng);
  // Probe a mid-drop batch to learn its two windowed drops (the alarm's
  // inputs), then pick a threshold strictly between them: the point drop
  // crosses it, the certified drop does not. The gap is the interval
  // half-width, which a calibrated predictor guarantees to be positive.
  ModelMonitor probe = MakeMonitor(predictor, {});
  const auto probed = probe.Observe(MixtureBatch(0.8, 400));
  ASSERT_TRUE(probed.ok());
  ASSERT_GT(probed->windowed_relative_drop, probed->windowed_certified_drop);
  ASSERT_GT(probed->windowed_relative_drop, 0.0);
  ModelMonitor::Options options;
  options.alarm_threshold = std::max(
      0.5 * (probed->windowed_relative_drop +
             probed->windowed_certified_drop),
      1e-6);
  options.alarm_policy = ModelMonitor::AlarmPolicy::kPointDrop;
  ModelMonitor point_monitor = MakeMonitor(predictor, options, "point");
  options.alarm_policy = ModelMonitor::AlarmPolicy::kCertifiedDrop;
  ModelMonitor certified_monitor =
      MakeMonitor(predictor, options, "certified");
  const auto point_report = point_monitor.Observe(MixtureBatch(0.8, 400));
  const auto certified_report =
      certified_monitor.Observe(MixtureBatch(0.8, 400));
  ASSERT_TRUE(point_report.ok());
  ASSERT_TRUE(certified_report.ok());
  // Same batch, same estimate — only the alarm policy differs.
  EXPECT_EQ(point_report->estimate, certified_report->estimate);
  EXPECT_TRUE(point_report->alarm);
  EXPECT_FALSE(certified_report->alarm);
  // A drop so large the whole interval clears the threshold alarms both.
  const auto point_crash = point_monitor.Observe(MixtureBatch(0.0, 400));
  const auto certified_crash =
      certified_monitor.Observe(MixtureBatch(0.0, 400));
  ASSERT_TRUE(point_crash.ok());
  ASSERT_TRUE(certified_crash.ok());
  EXPECT_TRUE(point_crash->alarm);
  EXPECT_TRUE(certified_crash->alarm);
  EXPECT_GE(certified_crash->windowed_certified_drop, options.alarm_threshold);
}

TEST(MonitorIntervalTest, PoliciesIdenticalOnUncalibratedPredictor) {
  common::Rng rng(13);
  auto predictor = TrainSyntheticPredictor(rng, /*calibrate=*/false);
  ASSERT_FALSE(predictor->calibrator().calibrated());
  ModelMonitor::Options options;
  options.alarm_threshold = 0.05;
  options.alarm_policy = ModelMonitor::AlarmPolicy::kCertifiedDrop;
  ModelMonitor certified_monitor =
      MakeMonitor(predictor, options, "certified");
  options.alarm_policy = ModelMonitor::AlarmPolicy::kPointDrop;
  ModelMonitor point_monitor = MakeMonitor(predictor, options, "point");
  for (const double fraction : {1.0, 0.9, 0.6, 0.2}) {
    const auto certified =
        certified_monitor.Observe(MixtureBatch(fraction, 400));
    const auto point = point_monitor.Observe(MixtureBatch(fraction, 400));
    ASSERT_TRUE(certified.ok());
    ASSERT_TRUE(point.ok());
    EXPECT_FALSE(certified->estimate.calibrated());
    // Degenerate interval: hi == point, so the two drops coincide and the
    // policies cannot disagree.
    EXPECT_DOUBLE_EQ(certified->certified_drop, certified->relative_drop);
    EXPECT_DOUBLE_EQ(certified->windowed_certified_drop,
                     certified->windowed_relative_drop);
    EXPECT_EQ(certified->alarm, point->alarm);
  }
}

TEST(MonitorIntervalTest, WindowedAlarmFollowsWindowedCertifiedDrop) {
  common::Rng rng(14);
  auto predictor = TrainSyntheticPredictor(rng);
  ModelMonitor::Options options;
  options.alarm_threshold = 0.2;
  options.window_batches = 3;
  ModelMonitor monitor = MakeMonitor(predictor, options, "windowed");
  // One good batch, then a stream of bad ones: the windowed estimate decays
  // toward the bad level as the window turns over.
  ASSERT_TRUE(monitor.Observe(MixtureBatch(1.0, 400)).ok());
  for (int i = 0; i < 4; ++i) {
    const auto report = monitor.Observe(MixtureBatch(0.0, 400));
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->windowed_estimate.calibrated());
    EXPECT_DOUBLE_EQ(
        report->windowed_certified_drop,
        (report->reference_score - report->windowed_estimate.hi) /
            report->reference_score);
    EXPECT_LE(report->windowed_certified_drop,
              report->windowed_relative_drop);
    // The alarm is driven by the windowed certified drop, never the
    // per-batch fields.
    EXPECT_EQ(report->alarm,
              report->windowed_certified_drop >= options.alarm_threshold);
  }
  // Once the window is all-bad the certified drop must clear 0.2: the
  // window estimate sits near 0.51 against reference 0.99.
  const auto steady = monitor.Observe(MixtureBatch(0.0, 400));
  ASSERT_TRUE(steady.ok());
  EXPECT_EQ(steady->window_batches_used, 3u);
  EXPECT_TRUE(steady->alarm);
}

TEST(MonitorIntervalTest, ExportJsonCarriesIntervalAndPolicy) {
  common::Rng rng(15);
  auto predictor = TrainSyntheticPredictor(rng);
  ModelMonitor monitor = MakeMonitor(predictor, {});
  ASSERT_TRUE(monitor.Observe(MixtureBatch(0.7, 400)).ok());
  const std::string json = monitor.ExportJson();
  EXPECT_TRUE(testing::JsonValidator(json).Validate()) << json;
  EXPECT_NE(json.find("\"alarm_policy\": \"certified_drop\""),
            std::string::npos);
  EXPECT_NE(json.find("\"coverage_level\""), std::string::npos);
  EXPECT_NE(json.find("\"estimate_lo\""), std::string::npos);
  EXPECT_NE(json.find("\"estimate_hi\""), std::string::npos);
  EXPECT_NE(json.find("\"estimate_width\""), std::string::npos);
  EXPECT_NE(json.find("\"certified_drop\""), std::string::npos);

  ModelMonitor::Options point_options;
  point_options.alarm_policy = ModelMonitor::AlarmPolicy::kPointDrop;
  ModelMonitor point_monitor = MakeMonitor(predictor, point_options, "point");
  EXPECT_NE(point_monitor.ExportJson().find("\"alarm_policy\": \"point_drop\""),
            std::string::npos);
}

TEST(MonitorIntervalTest, ExportJsonAlwaysCarriesWindowFields) {
  common::Rng rng(16);
  auto predictor = TrainSyntheticPredictor(rng);
  for (const size_t window : {1u, 2u}) {
    ModelMonitor::Options options;
    options.window_batches = window;
    ModelMonitor monitor = MakeMonitor(predictor, options);
    ASSERT_TRUE(monitor.Observe(MixtureBatch(0.9, 400)).ok());
    const std::string json = monitor.ExportJson();
    EXPECT_TRUE(testing::JsonValidator(json).Validate()) << json;
    EXPECT_NE(json.find("\"window_batches\": " + std::to_string(window)),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"windowed_estimate\""), std::string::npos);
    EXPECT_NE(json.find("\"windowed_certified_drop\""), std::string::npos);
    EXPECT_NE(json.find("\"window_batches_used\": 1"), std::string::npos);
  }
}

}  // namespace
}  // namespace bbv::core
