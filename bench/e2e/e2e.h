#ifndef BBV_BENCH_E2E_E2E_H_
#define BBV_BENCH_E2E_E2E_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/e2e/trace.h"
#include "core/score_estimate.h"

namespace bbv::bench::e2e {

/// How one workload run is driven.
struct RunSpec {
  uint64_t seed = 1;
  /// Wall seconds of the measured loop. A loop also runs until the
  /// workload's checked prefix is complete, so a short budget never
  /// weakens the output checks.
  double seconds = 10.0;
  /// Tiny inputs and fixed op counts (ctests); the numbers mean nothing.
  bool smoke = false;
};

/// One printed measurement: `METRIC <workload> <name> <value> <unit>
/// n=<samples>`.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// Outcome of one workload run. A traced run fills `metrics` with the
/// per-layer breakdown, a measured run with the end-to-end metrics.
struct WorkloadResult {
  std::vector<Metric> metrics;
  /// Operations attempted in the measured (or traced) loop.
  uint64_t ops = 0;
  /// Non-OK statuses plus output-check mismatches.
  uint64_t failed_ops = 0;
  /// Digest of the deterministic checked prefix of the outputs: equal for
  /// equal seeds, traced or not, whatever the run length.
  uint64_t digest = 0;
  /// First few failure descriptions.
  std::vector<std::string> failures;
  /// Library telemetry of the traced pass (traced runs only).
  std::string telemetry_json;

  void Fail(std::string message);
  void Add(std::string name, double value, std::string unit, size_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
};

/// FNV-1a over the exact bytes of outputs.
class Digest {
 public:
  void Add(const void* data, size_t size);
  void Add(std::string_view bytes) { Add(bytes.data(), bytes.size()); }
  void Add(double value) { Add(&value, sizeof(value)); }
  void Add(bool value) { Add(std::string_view(value ? "1" : "0")); }
  void Add(const core::ScoreEstimate& estimate);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

/// Bitwise equality: a one-ulp difference, a sign-of-zero difference or a
/// different NaN payload all count as mismatches.
bool SameBits(double a, double b);
bool SameEstimate(const core::ScoreEstimate& a, const core::ScoreEstimate& b);
bool SameBytes(std::string_view a, std::string_view b);

/// Checks that the comparison helpers reject a one-ulp-perturbed estimate
/// field and a one-byte-altered state. Returns the failures (empty = pass).
std::vector<std::string> OracleSelfTest();

/// Exact q-quantile (q in [0, 1]) with linear interpolation between order
/// statistics, over all samples. Reorders `samples`.
double Quantile(std::vector<double>& samples, double q);

/// Builds the workload's state anew at least `kMinSetups` times and
/// until a second of set-up has accumulated (once in smoke mode), dropping
/// the previous state before building the next. Returns the last state and
/// the median set-up wall time.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetSeconds = 1.0;
template <typename State, typename Setup>
std::unique_ptr<State> RepeatSetup(const RunSpec& spec, Setup&& setup,
                                   double* median_seconds) {
  std::vector<double> seconds;
  double total = 0.0;
  std::unique_ptr<State> state;
  while (seconds.empty() ||
         (!spec.smoke && seconds.size() < kMaxSetups &&
          (seconds.size() < kMinSetups || total < kSetupBudgetSeconds))) {
    state.reset();
    const WallTimer timer;
    state = setup();
    seconds.push_back(timer.Seconds());
    total += seconds.back();
  }
  *median_seconds = Quantile(seconds, 0.5);
  return state;
}

/// What a measured loop records; times are seconds since the loop started.
struct LoopSamples {
  /// One group of timed calls: when it completed, the rows it scored and
  /// the seconds spent inside the calls.
  struct Work {
    double end = 0.0;
    double rows = 0.0;
    double seconds = 0.0;
  };
  /// One op's latency and when it completed.
  struct Latency {
    double end = 0.0;
    double seconds = 0.0;
  };
  std::vector<Work> work;
  std::vector<Latency> latencies;
};

/// Wall-clock window the throughput and latency metrics are taken over.
constexpr double kWindowSeconds = 1.0;

/// Appends the end-to-end metrics every workload reports: setup_s, and
/// rows_per_s (rows / seconds inside the timed calls) and the exact p50 op
/// latency, each the median over the loop's complete windows of
/// `window_seconds` (0: one window over the whole loop) — a stall of the
/// shared machine then moves one window, not the result. Also appends
/// peak_rss_mb (getrusage max RSS so far); call it right after the measured
/// loop, so the output checks' own memory never counts.
void AddEndToEnd(WorkloadResult& result, double setup_seconds,
                 const LoopSamples& samples, double window_seconds);

/// Appends op_p90_ms and op_p99_ms, the exact p90 / p99 op latency as
/// medians over windows like AddEndToEnd's. They are per-layer metrics: on
/// a shared machine the tail moves with the neighbours' load more than any
/// bound allows, so traced runs report it from their untraced pass.
void AddTailLatency(WorkloadResult& result, const LoopSamples& samples,
                    double window_seconds);

/// Self time of `layer` as a share of `denominator_seconds` (0 when the
/// layer never ran).
double Share(const Tracer& tracer, std::string_view layer,
             double denominator_seconds);

/// The library's own telemetry over a traced pass: reset before the pass,
/// captured right after it, so replays and checks do not leak in.
/// Histogram totals are busy seconds summed over every thread that ran the
/// instrumented code.
struct LibrarySnapshot {
  double kernel_predict_seconds = 0.0;
  double sketch_observe_seconds = 0.0;
  double featurize_transform_seconds = 0.0;
  double forest_fit_seconds = 0.0;
  uint64_t forest_fit_calls = 0;
  double calibrate_seconds = 0.0;
  uint64_t parallel_sections = 0;
  uint64_t parallel_sections_serial = 0;
  uint64_t evictions = 0;
  uint64_t rehydrations = 0;
  uint64_t kernel_batches = 0;
  uint64_t coalesced_requests = 0;
  /// The full registry export, folded into the trace file.
  std::string json;
};
void ResetLibraryTelemetry();
LibrarySnapshot CaptureLibraryTelemetry();

/// Per-layer metrics every traced workload reports regardless of which
/// layers it exercises: kernel busy share, parallel-section counters, the
/// attributed share of the traced wall, trace overhead and the op counts.
/// `library` covers `traced_ops` ops taking `traced_seconds` of wall time.
void AddCommonLayers(WorkloadResult& result, const LibrarySnapshot& library,
                     uint64_t traced_ops, double traced_seconds,
                     double untraced_seconds_per_op,
                     double traced_seconds_per_op, double attributed_share);

/// The four workloads. `tracer` is enabled only for traced runs, which also
/// replay the measured ops through the public calls the workload's
/// top-level call makes internally.
WorkloadResult RunServeFleet(const RunSpec& spec, Tracer& tracer);
WorkloadResult RunServeMonitored(const RunSpec& spec, Tracer& tracer);
WorkloadResult RunTrainIncome(const RunSpec& spec, Tracer& tracer);
WorkloadResult RunValidateBatch(const RunSpec& spec, Tracer& tracer);

/// Every per-layer metric name with its unit, in print order. A traced run
/// prints each of them; a layer the workload never touches reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace bbv::bench::e2e

#endif  // BBV_BENCH_E2E_E2E_H_
