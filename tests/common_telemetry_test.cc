#include "common/telemetry.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/monitor.h"
#include "core/performance_predictor.h"
#include "core/performance_validator.h"
#include "datasets/tabular.h"
#include "errors/numeric_errors.h"
#include "json_test_util.h"
#include "ml/black_box.h"
#include "ml/sgd_logistic_regression.h"

namespace bbv::common::telemetry {
namespace {

/// Saves and restores the process-wide enablement flag around a test.
class ScopedTelemetryEnabled {
 public:
  explicit ScopedTelemetryEnabled(bool enabled) : previous_(Enabled()) {
    SetEnabled(enabled);
  }
  ~ScopedTelemetryEnabled() { SetEnabled(previous_); }
  ScopedTelemetryEnabled(const ScopedTelemetryEnabled&) = delete;
  ScopedTelemetryEnabled& operator=(const ScopedTelemetryEnabled&) = delete;

 private:
  bool previous_;
};

TEST(TelemetryTest, ConcurrentCounterUpdatesAreExact) {
  const ScopedTelemetryEnabled scoped(true);
  Counter& counter = Registry::Global().counter("test.concurrent_counter");
  counter.Reset();
  Histogram& histogram =
      Registry::Global().histogram("test.concurrent_histogram");
  histogram.Reset();
  constexpr size_t kItems = 10000;
  // Hammer the same instruments from every pool worker; the final tallies
  // must be exact (this is the race-detection target for tsan runs).
  const Status status = ParallelFor(
      kItems,
      [&](size_t i) {
        counter.Increment();
        histogram.Record(static_cast<double>(i % 7) + 1.0);
        IncrementCounter("test.concurrent_helper", 2);
        return Status::OK();
      },
      {.threads = 8});
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(counter.value(), kItems);
  EXPECT_EQ(histogram.count(), kItems);
  EXPECT_EQ(ReadCounter("test.concurrent_helper"), 2 * kItems);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 7.0);
}

TEST(TelemetryTest, DisabledTelemetryIsInert) {
  const ScopedTelemetryEnabled scoped(false);
  const uint64_t before = ReadCounter("test.disabled_counter");
  IncrementCounter("test.disabled_counter");
  SetGauge("test.disabled_gauge", 42.0);
  RecordValue("test.disabled_histogram", 1.0);
  const TraceSpan span("test.disabled_span");
  EXPECT_EQ(span.ElapsedSeconds(), 0.0);
  EXPECT_EQ(ReadCounter("test.disabled_counter"), before);
}

TEST(TelemetryTest, TraceSpanRecordsIntoHistogram) {
  const ScopedTelemetryEnabled scoped(true);
  Histogram& histogram = Registry::Global().histogram("test.span_histogram");
  histogram.Reset();
  const uint64_t before = histogram.count();
  {
    const TraceSpan span("test.span_histogram");
    EXPECT_GE(span.ElapsedSeconds(), 0.0);
  }
  EXPECT_EQ(histogram.count(), before + 1);
  EXPECT_GT(histogram.total(), 0.0);
}

TEST(TelemetryTest, ApproxPercentileClampsToObservedRange) {
  const ScopedTelemetryEnabled scoped(true);
  Histogram& histogram = Registry::Global().histogram("test.percentiles");
  histogram.Reset();
  for (int i = 0; i < 100; ++i) histogram.Record(1.0);
  // All mass in one bucket: every percentile clamps to the exact value.
  EXPECT_DOUBLE_EQ(histogram.ApproxPercentile(50.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.ApproxPercentile(99.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 1.0);
}

TEST(TelemetryTest, HistogramPercentilesAreOrderedAcrossBuckets) {
  const ScopedTelemetryEnabled scoped(true);
  Histogram& histogram = Registry::Global().histogram("test.octaves");
  histogram.Reset();
  for (int i = 0; i < 90; ++i) histogram.Record(0.001);
  for (int i = 0; i < 10; ++i) histogram.Record(8.0);
  const double p50 = histogram.ApproxPercentile(50.0);
  const double p95 = histogram.ApproxPercentile(95.0);
  EXPECT_LE(p50, p95);
  EXPECT_GE(p50, histogram.min());
  EXPECT_LE(p95, histogram.max());
}

TEST(TelemetryTest, RegistryJsonIsWellFormed) {
  const ScopedTelemetryEnabled scoped(true);
  IncrementCounter("test.json_counter", 3);
  SetGauge("test.json_gauge", 1.5);
  RecordValue("test.json_histogram", 0.25);
  const std::string json = Registry::Global().ToJson();
  EXPECT_TRUE(bbv::testing::JsonParses(json)) << json;
  for (const char* key : {"\"telemetry\"", "\"enabled\"", "\"counters\"",
                          "\"gauges\"", "\"histograms\"",
                          "\"test.json_counter\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  const std::string summary = Registry::Global().SummaryString();
  EXPECT_NE(summary.find("test.json_counter"), std::string::npos);
}

/// Trains predictor + validator + monitor on a small income fixture and
/// returns (serialized predictor bytes, estimate, validator verdicts, alarm
/// flags) — everything that must be byte-identical whether telemetry is on
/// or off.
struct PipelineOutputs {
  std::string predictor_bytes;
  double estimate = 0.0;
  std::vector<bool> verdicts;
  std::vector<bool> alarms;
};

PipelineOutputs RunPipeline() {
  common::Rng rng(17);
  data::Dataset dataset = datasets::MakeIncome(1200, rng);
  auto [source, serving] = data::TrainTestSplit(dataset, 0.7, rng);
  auto [train, test] = data::TrainTestSplit(source, 0.7, rng);
  ml::BlackBoxModel model(std::make_unique<ml::SgdLogisticRegression>());
  BBV_CHECK(model.Train(train, rng).ok());
  core::PerformancePredictor::Options options;
  options.corruptions_per_generator = 10;
  options.tree_count_grid = {10};
  core::PerformancePredictor predictor(options);
  const errors::NumericOutliers outliers;
  BBV_CHECK(predictor.Train(model, test, {&outliers}, rng).ok());

  PipelineOutputs outputs;
  std::ostringstream serialized;
  BBV_CHECK(predictor.Save(serialized).ok());
  outputs.predictor_bytes = serialized.str();

  core::PerformanceValidator::Options validator_options;
  validator_options.corruptions_per_generator = 10;
  validator_options.predictor_tree_count_grid = {10};
  validator_options.gbdt.num_rounds = 10;
  core::PerformanceValidator validator(validator_options);
  BBV_CHECK(validator.Train(model, test, {&outliers}, rng).ok());

  auto monitor = core::ModelMonitor::CreateForProba(
      model.Name(),
      std::make_shared<const core::PerformancePredictor>(predictor), {});
  BBV_CHECK(monitor.ok()) << monitor.status().ToString();
  const errors::Scaling severe({}, errors::FractionRange{0.95, 1.0},
                               {1000.0});
  for (int i = 0; i < 3; ++i) {
    const auto corrupted =
        severe.Corrupt(serving.features, rng).ValueOrDie();
    const auto proba = model.PredictProba(corrupted).ValueOrDie();
    outputs.verdicts.push_back(
        validator.ValidateFromProba(proba).ValueOrDie());
    const auto report = monitor->Observe(proba).ValueOrDie();
    outputs.alarms.push_back(report.alarm);
    outputs.estimate = report.estimate.point;
  }
  return outputs;
}

TEST(TelemetryTest, PipelineOutputsAreIdenticalWithTelemetryOnAndOff) {
  PipelineOutputs with_telemetry;
  {
    const ScopedTelemetryEnabled scoped(true);
    with_telemetry = RunPipeline();
  }
  PipelineOutputs without_telemetry;
  {
    const ScopedTelemetryEnabled scoped(false);
    without_telemetry = RunPipeline();
  }
  // Telemetry is observation-only: the serialized model, every estimate and
  // every alarm decision must be byte-identical either way.
  EXPECT_EQ(with_telemetry.predictor_bytes,
            without_telemetry.predictor_bytes);
  EXPECT_EQ(with_telemetry.estimate, without_telemetry.estimate);
  EXPECT_EQ(with_telemetry.verdicts, without_telemetry.verdicts);
  EXPECT_EQ(with_telemetry.alarms, without_telemetry.alarms);
}

}  // namespace
}  // namespace bbv::common::telemetry
