// Drift-scenario detection quality: replays the standard drift scenario
// library (errors::StandardDriftScenarios — sudden, gradual ramp, recurring
// seasonal mixture, feedback-skewed class priors, plus a clean control
// stream) through a core::ModelMonitor with a 4-batch window and reports
// per-scenario detection delay and false-alarm rate.
//
// CI contract: each scenario has a documented detection-quality bound
// (maximum delay in batches after the drift onset, maximum pre-onset
// false-alarm rate); the binary exits non-zero when any bound is violated,
// when the BBV_THREADS 1-vs-4 replay diverges, or when the streaming-scorer
// split/merge consistency check fails — so a regression in the predictor,
// the monitor window or the sketches fails the scheduled experiments job
// instead of silently degrading detection quality.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/monitor.h"
#include "core/performance_predictor.h"
#include "errors/drift_scenario.h"
#include "serve/streaming_scorer.h"

namespace bbv::bench {
namespace {

/// Detection-quality bounds per scenario. Delay counts batches from the
/// drift onset to the first post-onset alarm; `max_delay` of num_batches
/// means "must alarm before the stream ends". The pre-onset prefix (the
/// whole stream for the clean control) bounds the false-alarm rate.
struct ScenarioBound {
  std::string scenario;
  size_t max_delay = 0;
  double max_false_alarm_rate = 0.0;
};

/// Outcome of replaying one scenario stream through a windowed monitor.
struct ReplayOutcome {
  size_t detection_delay = 0;  // span sentinel when never detected
  bool detected = false;
  double false_alarm_rate = 0.0;
  size_t alarms = 0;
  /// Per-batch windowed estimates, for the determinism replay comparison.
  std::vector<double> windowed_estimates;
};

ReplayOutcome Replay(
    const errors::DriftScenario& scenario, const ml::BlackBox& model,
    const std::shared_ptr<const core::PerformancePredictor>& predictor,
    uint64_t seed) {
  core::ModelMonitor::Options monitor_options;
  monitor_options.alarm_threshold = 0.05;
  monitor_options.window_batches = 4;
  // The committed detection-delay/false-alarm bounds characterize the
  // point-drop alarm; the conservative certified (interval) policy trades
  // delay for certainty and is gated separately in ext_conformal.
  monitor_options.alarm_policy = core::ModelMonitor::AlarmPolicy::kPointDrop;
  auto monitor = core::ModelMonitor::CreateForProba(
      "drift:" + scenario.name(), predictor, monitor_options);
  BBV_CHECK(monitor.ok()) << monitor.status().ToString();

  // One pre-forked stream per batch index: the stream is a pure function of
  // (scenario, seed), independent of BBV_THREADS and replay order.
  common::Rng scenario_rng(seed);
  std::vector<common::Rng> batch_rngs =
      scenario_rng.ForkStreams(scenario.num_batches());

  ReplayOutcome outcome;
  const size_t onset = scenario.drift_onset();
  size_t pre_onset_alarms = 0;
  size_t first_alarm_after_onset = scenario.num_batches();
  for (size_t batch_index = 0; batch_index < scenario.num_batches();
       ++batch_index) {
    auto batch = scenario.MakeBatch(batch_index, batch_rngs[batch_index]);
    BBV_CHECK(batch.ok()) << batch.status().ToString();
    auto probabilities = model.PredictProba(batch->features);
    BBV_CHECK(probabilities.ok());
    auto report = monitor->Observe(*probabilities);
    BBV_CHECK(report.ok()) << report.status().ToString();
    outcome.windowed_estimates.push_back(report->windowed_estimate.point);
    if (report->alarm) {
      ++outcome.alarms;
      if (batch_index < onset) {
        ++pre_onset_alarms;
      } else if (first_alarm_after_onset == scenario.num_batches()) {
        first_alarm_after_onset = batch_index;
      }
    }
  }
  const size_t span = scenario.num_batches() - onset;
  outcome.detected = first_alarm_after_onset < scenario.num_batches();
  outcome.detection_delay =
      outcome.detected ? first_alarm_after_onset - onset : span;
  outcome.false_alarm_rate =
      onset > 0 ? static_cast<double>(pre_onset_alarms) /
                      static_cast<double>(onset)
                : 0.0;
  return outcome;
}

/// Split/merge consistency: sharding one batch's probabilities across two
/// scorers and merging must reproduce the unsharded scorer's estimate bit
/// for bit (the StreamingScorer determinism contract).
bool CheckStreamingConsistency(
    const linalg::Matrix& probabilities,
    const std::shared_ptr<const core::PerformancePredictor>& predictor) {
  auto full = serve::StreamingScorer::Create(predictor, {});
  auto left = serve::StreamingScorer::Create(predictor, {});
  auto right = serve::StreamingScorer::Create(predictor, {});
  BBV_CHECK(full.ok() && left.ok() && right.ok());
  const size_t split = probabilities.rows() / 2;
  linalg::Matrix head(split, probabilities.cols());
  linalg::Matrix tail(probabilities.rows() - split, probabilities.cols());
  for (size_t row = 0; row < probabilities.rows(); ++row) {
    for (size_t col = 0; col < probabilities.cols(); ++col) {
      if (row < split) {
        head.At(row, col) = probabilities.At(row, col);
      } else {
        tail.At(row - split, col) = probabilities.At(row, col);
      }
    }
  }
  BBV_CHECK(full->Ingest(probabilities).ok());
  BBV_CHECK(left->Ingest(head).ok());
  BBV_CHECK(right->Ingest(tail).ok());
  BBV_CHECK(left->MergeFrom(*right).ok());
  const core::ScoreEstimate merged = left->EstimateScore().ValueOrDie();
  const core::ScoreEstimate unsharded = full->EstimateScore().ValueOrDie();
  return merged == unsharded;
}

int Run(const RunConfig& config) {
  PrintHeader("Extension: drift scenarios",
              "detection delay and false-alarm rate of the windowed monitor "
              "across the drift scenario library (income, xgb, window=4)",
              config);
  common::Rng rng(config.seed);
  const ExperimentData data = PrepareDataset("income", config, rng);
  const auto model = TrainBlackBox("xgb", data.train, config, rng);

  errors::DriftScenarioOptions scenario_options;
  scenario_options.num_batches = config.fast ? 24 : 40;
  scenario_options.batch_size = 400;
  scenario_options.drift_onset = scenario_options.num_batches / 2;

  core::PerformancePredictor::Options predictor_options;
  predictor_options.corruptions_per_generator = config.CorruptionsPerGenerator();
  // Meta-train on scenario-sized batches so the percentile features carry
  // the same sampling noise as the replayed stream.
  predictor_options.meta_batch_size = scenario_options.batch_size;
  auto predictor = std::make_shared<core::PerformancePredictor>(
      predictor_options);
  const auto generators = KnownTabularErrors();
  BBV_CHECK(
      predictor->Train(*model, data.test, RawPointers(generators), rng).ok());
  std::shared_ptr<const core::PerformancePredictor> shared_predictor =
      predictor;
  std::printf("predictor trained: test_score=%.4f examples=%zu\n",
              predictor->test_score(), predictor->num_training_examples());

  auto serving = std::make_shared<const data::Dataset>(data.serving);
  const std::vector<errors::DriftScenario> scenarios =
      errors::StandardDriftScenarios(serving, scenario_options);

  const size_t span =
      scenario_options.num_batches - scenario_options.drift_onset;
  // The documented detection-quality bounds this binary gates on. The clean
  // control stream must stay (almost) quiet; the corruption scenarios must
  // alarm within a window-length or so of the onset; the slow regimes
  // (gradual ramp, feedback prior drift) only need to fire before the
  // stream ends, since their early batches are near-clean by construction.
  const std::vector<ScenarioBound> bounds = {
      {"no_drift", /*max_delay=*/span, /*max_false_alarm_rate=*/0.15},
      {"sudden", /*max_delay=*/6, /*max_false_alarm_rate=*/0.25},
      {"gradual_ramp", /*max_delay=*/span - 1, /*max_false_alarm_rate=*/0.25},
      {"recurring", /*max_delay=*/6, /*max_false_alarm_rate=*/0.25},
      {"feedback_loop", /*max_delay=*/span - 1,
       /*max_false_alarm_rate=*/0.25},
  };
  BBV_CHECK(bounds.size() == scenarios.size());

  bool all_within_bounds = true;
  bool deterministic = true;
  bool streaming_consistent = true;
  std::vector<BenchResult> results;
  WallTimer timer;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const errors::DriftScenario& scenario = scenarios[i];
    BBV_CHECK(bounds[i].scenario == scenario.name());
    WallTimer scenario_timer;
    const ReplayOutcome outcome =
        Replay(scenario, *model, shared_predictor, config.seed);

    // Thread-independence: the full replay at BBV_THREADS 1 and 4 must
    // reproduce the windowed estimate sequence exactly.
    for (int threads : {1, 4}) {
      ScopedThreadsEnv scoped(threads);
      const ReplayOutcome replayed =
          Replay(scenario, *model, shared_predictor, config.seed);
      if (replayed.windowed_estimates != outcome.windowed_estimates) {
        deterministic = false;
        std::printf("DETERMINISM FAILURE: %s at BBV_THREADS=%d\n",
                    scenario.name().c_str(), threads);
      }
    }

    bool within = outcome.false_alarm_rate <= bounds[i].max_false_alarm_rate;
    if (scenario.ExpectsDrift()) {
      within = within && outcome.detected &&
               outcome.detection_delay <= bounds[i].max_delay;
    } else {
      // The clean control must not "detect" anything; every alarm is false.
      within = within && outcome.alarms == 0;
    }
    all_within_bounds = all_within_bounds && within;
    std::printf(
        "scenario=%-13s detected=%d delay=%2zu/%zu false_alarm_rate=%.2f "
        "alarms=%2zu bound{delay<=%zu fa<=%.2f} %s\n",
        scenario.name().c_str(), outcome.detected ? 1 : 0,
        outcome.detection_delay, span, outcome.false_alarm_rate,
        outcome.alarms, bounds[i].max_delay, bounds[i].max_false_alarm_rate,
        within ? "ok" : "VIOLATION");

    BenchResult result;
    result.name = "scenario_" + scenario.name();
    result.wall_seconds = scenario_timer.Seconds();
    result.extras = {
        {"detected", outcome.detected ? 1.0 : 0.0},
        {"detection_delay", static_cast<double>(outcome.detection_delay)},
        {"false_alarm_rate", outcome.false_alarm_rate},
        {"alarms", static_cast<double>(outcome.alarms)},
        {"within_bound", within ? 1.0 : 0.0},
    };
    results.push_back(std::move(result));
  }

  // StreamingScorer split/merge consistency on a drifted batch: the sudden
  // scenario's first post-onset batch.
  {
    common::Rng probe_rng(config.seed);
    std::vector<common::Rng> batch_rngs =
        probe_rng.ForkStreams(scenario_options.num_batches);
    auto batch = scenarios[1].MakeBatch(scenario_options.drift_onset,
                                        batch_rngs[scenario_options.drift_onset]);
    BBV_CHECK(batch.ok());
    auto probabilities = model->PredictProba(batch->features);
    BBV_CHECK(probabilities.ok());
    streaming_consistent =
        CheckStreamingConsistency(*probabilities, shared_predictor);
    std::printf("streaming split/merge consistency: %s\n",
                streaming_consistent ? "bit-identical" : "MISMATCH");
  }
  std::printf("determinism(threads 1 vs 4): %s\n",
              deterministic ? "byte-identical" : "MISMATCH");

  BenchResult overall;
  overall.name = "overall";
  overall.wall_seconds = timer.Seconds();
  overall.extras = {
      {"deterministic", deterministic ? 1.0 : 0.0},
      {"within_bound", all_within_bounds ? 1.0 : 0.0},
      {"streaming_consistent", streaming_consistent ? 1.0 : 0.0},
      {"scenarios", static_cast<double>(scenarios.size())},
  };
  results.push_back(std::move(overall));
  if (!config.json_path.empty()) {
    WriteBenchJson(config.json_path, "ext_drift_scenarios", config, results,
                   {{"dataset", "income"},
                    {"black_box", "xgb"},
                    {"monitor", "windowed(4)@0.05"}});
  }
  MaybeWriteTelemetryJson(config);
  if (!all_within_bounds || !deterministic || !streaming_consistent) {
    std::printf("FAILED: bounds=%d deterministic=%d streaming=%d\n",
                all_within_bounds ? 1 : 0, deterministic ? 1 : 0,
                streaming_consistent ? 1 : 0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bbv::bench

int main(int argc, char** argv) {
  return bbv::bench::Run(bbv::bench::ParseArgs(argc, argv));
}
