#include "bench/e2e/e2e.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/telemetry.h"

namespace bbv::bench::e2e {

namespace {
constexpr size_t kKeptFailures = 8;
}  // namespace

void WorkloadResult::Fail(std::string message) {
  ++failed_ops;
  if (failures.size() < kKeptFailures) failures.push_back(std::move(message));
}

void Digest::Add(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

void Digest::Add(const core::ScoreEstimate& estimate) {
  Add(estimate.point);
  Add(estimate.lo);
  Add(estimate.hi);
  Add(estimate.coverage_level);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameEstimate(const core::ScoreEstimate& a, const core::ScoreEstimate& b) {
  return SameBits(a.point, b.point) && SameBits(a.lo, b.lo) &&
         SameBits(a.hi, b.hi) && SameBits(a.coverage_level, b.coverage_level);
}

bool SameBytes(std::string_view a, std::string_view b) { return a == b; }

std::vector<std::string> OracleSelfTest() {
  std::vector<std::string> failures;
  const core::ScoreEstimate base{0.8125, 0.75, 0.875, 0.9};
  if (!SameEstimate(base, base)) {
    failures.emplace_back("an estimate does not match itself");
  }
  // One ulp up and down in each of the four fields must be caught.
  for (int field = 0; field < 4; ++field) {
    for (const double direction : {-1.0, 1.0}) {
      core::ScoreEstimate perturbed = base;
      double* value = field == 0   ? &perturbed.point
                      : field == 1 ? &perturbed.lo
                      : field == 2 ? &perturbed.hi
                                   : &perturbed.coverage_level;
      *value = std::nextafter(*value, direction * 2.0);
      if (SameEstimate(base, perturbed)) {
        failures.push_back("one-ulp change in estimate field " +
                           std::to_string(field) + " was accepted");
      }
    }
  }
  if (SameBits(0.0, -0.0)) {
    failures.emplace_back("+0.0 and -0.0 compare equal");
  }
  const std::string state = "BBVQS\x01\x02\x03 sketch state bytes";
  if (!SameBytes(state, state)) {
    failures.emplace_back("a state does not match itself");
  }
  for (size_t i = 0; i < state.size(); ++i) {
    std::string altered = state;
    altered[i] = static_cast<char>(altered[i] ^ 0x01);
    if (SameBytes(state, altered)) {
      failures.push_back("one-byte change at offset " + std::to_string(i) +
                         " was accepted");
    }
  }
  if (SameBytes(state, state.substr(0, state.size() - 1))) {
    failures.emplace_back("a truncated state was accepted");
  }
  Digest a;
  Digest b;
  a.Add(base);
  core::ScoreEstimate perturbed = base;
  perturbed.point = std::nextafter(perturbed.point, 1.0);
  b.Add(perturbed);
  if (a.value() == b.value()) {
    failures.emplace_back("digest ignores a one-ulp change");
  }
  return failures;
}

double Quantile(std::vector<double>& samples, double q) {
  BBV_CHECK(!samples.empty());
  BBV_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, samples.size() - 1);
  const double weight = position - static_cast<double>(lower);
  return samples[lower] + weight * (samples[upper] - samples[lower]);
}

namespace {

/// Per-window rows_per_s and latency quantiles (seconds) of a loop.
struct WindowStats {
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> p99s;
  /// Latency samples inside the complete windows.
  size_t used = 0;
};

WindowStats SplitWindows(const LoopSamples& samples, double window_seconds) {
  BBV_CHECK(!samples.latencies.empty());
  double end = 0.0;
  for (const auto& work : samples.work) end = std::max(end, work.end);
  // Complete windows only: the loop's tail after the last whole window is
  // dropped. Fewer than two whole windows fall back to one window.
  size_t windows = 1;
  if (window_seconds > 0.0 && end >= 2.0 * window_seconds) {
    windows = static_cast<size_t>(end / window_seconds);
  }
  const auto window_of = [&](double t) {
    return windows == 1 ? size_t{0} : static_cast<size_t>(t / window_seconds);
  };
  std::vector<double> rows(windows, 0.0);
  std::vector<double> seconds(windows, 0.0);
  std::vector<std::vector<double>> latencies(windows);
  for (const auto& work : samples.work) {
    const size_t w = window_of(work.end);
    if (w >= windows) continue;
    rows[w] += work.rows;
    seconds[w] += work.seconds;
  }
  WindowStats stats;
  for (const auto& latency : samples.latencies) {
    const size_t w = window_of(latency.end);
    if (w >= windows) continue;
    latencies[w].push_back(latency.seconds);
    ++stats.used;
  }
  for (size_t w = 0; w < windows; ++w) {
    if (latencies[w].empty() || seconds[w] <= 0.0) continue;
    stats.rates.push_back(rows[w] / seconds[w]);
    stats.p50s.push_back(Quantile(latencies[w], 0.5));
    stats.p90s.push_back(Quantile(latencies[w], 0.9));
    stats.p99s.push_back(Quantile(latencies[w], 0.99));
  }
  BBV_CHECK(!stats.rates.empty());
  return stats;
}

}  // namespace

void AddEndToEnd(WorkloadResult& result, double setup_seconds,
                 const LoopSamples& samples, double window_seconds) {
  WindowStats stats = SplitWindows(samples, window_seconds);
  result.Add("setup_s", setup_seconds, "s", 1);
  result.Add("rows_per_s", Quantile(stats.rates, 0.5), "rows/s", stats.used);
  result.Add("op_p50_ms", Quantile(stats.p50s, 0.5) * 1e3, "ms", stats.used);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in KiB on Linux.
  result.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MB", 1);
}

void AddTailLatency(WorkloadResult& result, const LoopSamples& samples,
                    double window_seconds) {
  WindowStats stats = SplitWindows(samples, window_seconds);
  result.Add("op_p90_ms", Quantile(stats.p90s, 0.5) * 1e3, "ms", stats.used);
  result.Add("op_p99_ms", Quantile(stats.p99s, 0.5) * 1e3, "ms", stats.used);
}

double Share(const Tracer& tracer, std::string_view layer,
             double denominator_seconds) {
  if (denominator_seconds <= 0.0) return 0.0;
  return tracer.Layer(layer).self_seconds / denominator_seconds;
}

void ResetLibraryTelemetry() {
  common::telemetry::Registry::Global().ResetForTesting();
}

LibrarySnapshot CaptureLibraryTelemetry() {
  namespace telemetry = common::telemetry;
  const telemetry::Registry& registry = telemetry::Registry::Global();
  LibrarySnapshot library;
  for (const auto& histogram : registry.TakeSnapshot().histograms) {
    if (histogram.name == "forest_kernel.predict") {
      library.kernel_predict_seconds = histogram.total;
    } else if (histogram.name == "sketch_bank.observe") {
      library.sketch_observe_seconds = histogram.total;
    } else if (histogram.name == "featurize.transform") {
      library.featurize_transform_seconds = histogram.total;
    } else if (histogram.name == "forest.fit") {
      library.forest_fit_seconds = histogram.total;
      library.forest_fit_calls = histogram.count;
    } else if (histogram.name == "predictor.calibrate") {
      library.calibrate_seconds = histogram.total;
    }
  }
  library.parallel_sections = telemetry::ReadCounter("parallel.sections");
  library.parallel_sections_serial =
      telemetry::ReadCounter("parallel.sections_serial");
  library.evictions = telemetry::ReadCounter("serve.service.evictions");
  library.rehydrations = telemetry::ReadCounter("serve.service.rehydrations");
  library.kernel_batches =
      telemetry::ReadCounter("serve.service.kernel_batches");
  library.coalesced_requests =
      telemetry::ReadCounter("serve.service.coalesced_requests");
  library.json = registry.ToJson();
  return library;
}

void AddCommonLayers(WorkloadResult& result, const LibrarySnapshot& library,
                     uint64_t traced_ops, double traced_seconds,
                     double untraced_seconds_per_op,
                     double traced_seconds_per_op, double attributed_share) {
  const auto sections = static_cast<double>(library.parallel_sections);
  const auto serial = static_cast<double>(library.parallel_sections_serial);
  const auto ops = static_cast<double>(std::max<uint64_t>(traced_ops, 1));
  result.Add("ml.kernel_predict_busy_share",
             traced_seconds > 0.0
                 ? library.kernel_predict_seconds / traced_seconds
                 : 0.0,
             "share", traced_ops);
  result.Add("common.parallel_sections_per_op", sections / ops, "count",
             traced_ops);
  result.Add("common.parallel_serial_share",
             sections > 0.0 ? serial / sections : 0.0, "share",
             static_cast<size_t>(sections));
  result.Add("trace.attributed_share", attributed_share, "share", traced_ops);
  result.Add("trace.overhead",
             untraced_seconds_per_op > 0.0
                 ? traced_seconds_per_op / untraced_seconds_per_op - 1.0
                 : 0.0,
             "ratio", traced_ops);
  result.Add("bench.ops", static_cast<double>(result.ops), "count", 1);
  result.Add("bench.failed_ops", static_cast<double>(result.failed_ops),
             "count", 1);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"serve.submit_share", "share"},
      {"serve.ingest_share", "share"},
      {"serve.features_share", "share"},
      {"serve.estimate_share", "share"},
      {"serve.monitor_share", "share"},
      {"serve.state_save_share", "share"},
      {"serve.state_load_share", "share"},
      {"serve.unattributed_share", "share"},
      {"serve.evictions_per_request", "1/op"},
      {"serve.rehydrations_per_request", "1/op"},
      {"stats.sketch_observe_busy_share", "share"},
      {"core.estimate_batch_rows_mean", "rows"},
      {"errors.corrupt_share", "share"},
      {"ml.black_box_predict_share", "share"},
      {"featurize.transform_busy_share", "share"},
      {"core.prediction_statistics_share", "share"},
      {"core.estimate_from_statistics_share", "share"},
      {"core.train_from_statistics_share", "share"},
      {"core.calibrate_share", "share"},
      {"ml.forest_fit_busy_share", "share"},
      {"ml.forest_fit_calls_per_op", "count"},
      {"ml.kernel_predict_busy_share", "share"},
      {"common.parallel_sections_per_op", "count"},
      {"common.parallel_serial_share", "share"},
      {"trace.attributed_share", "share"},
      {"trace.overhead", "ratio"},
      {"op_p90_ms", "ms"},
      {"op_p99_ms", "ms"},
      {"bench.ops", "count"},
      {"bench.failed_ops", "count"},
  };
  return kMetrics;
}

}  // namespace bbv::bench::e2e
