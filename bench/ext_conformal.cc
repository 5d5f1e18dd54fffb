// Conformal interval quality: marginal coverage and average width of the
// ScoreEstimate intervals across the tabular corruption grid (fig2-style
// known errors, fig3-style unknown errors) and the drift scenario library,
// plus the determinism gates the interval layer promises.
//
// CI contract: the binary exits non-zero when
//  - pooled marginal coverage on the known-error corruption grid, or the
//    per-scenario coverage on any drift stream, falls below the nominal
//    level minus kCoverageTolerance;
//  - the interval sequence differs at BBV_THREADS 1 vs 4 vs 8;
//  - the batch EstimateScoresFromStatistics surface is not bit-identical
//    to the scalar one;
//  - Save/Load does not round-trip the calibration state byte-identically.
// Unknown-error cells are reported but not gated: they corrupt with error
// types the predictor never met in meta-training, so exchangeability — the
// premise of the conformal guarantee — does not hold there by construction.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/performance_predictor.h"
#include "core/prediction_statistics.h"
#include "errors/distribution_shift.h"
#include "errors/drift_scenario.h"

namespace bbv::bench {
namespace {

/// Gate: empirical coverage must reach nominal - tolerance. The tolerance
/// absorbs evaluation-sample noise on top of the finite-sample conformal
/// guarantee (which is on the expectation, not on one replay).
constexpr double kCoverageTolerance = 0.03;

/// Coverage/width tally over one evaluation pool.
struct CoverageTally {
  size_t examples = 0;
  size_t covered = 0;
  double width_sum = 0.0;

  void Add(const core::ScoreEstimate& estimate, double truth) {
    ++examples;
    if (estimate.lo <= truth && truth <= estimate.hi) ++covered;
    width_sum += estimate.width();
  }
  double Coverage() const {
    return examples == 0
               ? 0.0
               : static_cast<double>(covered) / static_cast<double>(examples);
  }
  double AverageWidth() const {
    return examples == 0 ? 0.0
                         : width_sum / static_cast<double>(examples);
  }
};

struct CellResult {
  std::string name;
  CoverageTally tally;
  bool gated = false;
  bool within = true;
  double wall_seconds = 0.0;
};

void PrintCell(const CellResult& cell, double nominal) {
  std::printf("cell=%-28s n=%4zu coverage=%.3f avg_width=%.4f nominal=%.2f %s\n",
              cell.name.c_str(), cell.tally.examples, cell.tally.Coverage(),
              cell.tally.AverageWidth(), nominal,
              cell.gated ? (cell.within ? "ok" : "VIOLATION") : "(info)");
}

/// One corruption-grid cell: trains a predictor on the known tabular errors
/// (fig2 protocol), then measures interval coverage of the true accuracy on
/// randomly corrupted serving batches — the known pool (gated) and the
/// unknown fig3 pool (informational).
void RunGridCell(const std::string& model_name,
                 const std::string& dataset_name, const RunConfig& config,
                 CoverageTally& known_pool, std::vector<CellResult>& cells) {
  common::Rng rng(config.seed);
  const ExperimentData data = PrepareDataset(dataset_name, config, rng);
  const auto model = TrainBlackBox(model_name, data.train, config, rng);

  core::PerformancePredictor::Options options;
  options.corruptions_per_generator = config.CorruptionsPerGenerator();
  core::PerformancePredictor predictor(options);
  const auto known = KnownTabularErrors();
  BBV_CHECK(
      predictor.Train(*model, data.test, RawPointers(known), rng).ok());
  BBV_CHECK(predictor.calibrator().calibrated());
  const double nominal = predictor.coverage_level();

  const auto evaluate = [&](const std::vector<std::shared_ptr<
                                errors::ErrorGen>>& pool,
                            bool gated, const std::string& label) {
    WallTimer timer;
    CellResult cell;
    cell.name = model_name + "/" + dataset_name + "/" + label;
    cell.gated = gated;
    for (const auto& generator : pool) {
      for (int repetition = 0; repetition < config.ServingRepetitions();
           ++repetition) {
        auto corrupted =
            CorruptRandomSubset(data.serving.features, *generator, rng);
        BBV_CHECK(corrupted.ok()) << corrupted.status().ToString();
        auto probabilities = model->PredictProba(*corrupted);
        BBV_CHECK(probabilities.ok());
        const double truth =
            core::ComputeScore(core::ScoreMetric::kAccuracy, *probabilities,
                               data.serving.labels);
        auto estimate = predictor.EstimateScoreFromProba(*probabilities);
        BBV_CHECK(estimate.ok()) << estimate.status().ToString();
        cell.tally.Add(*estimate, truth);
        if (gated) known_pool.Add(*estimate, truth);
      }
    }
    // Per-cell samples are too few to gate at kCoverageTolerance without
    // flakiness; the gate runs on the pooled known-error grid instead.
    cell.within = true;
    cell.wall_seconds = timer.Seconds();
    PrintCell(cell, nominal);
    cells.push_back(std::move(cell));
  };
  evaluate(known, /*gated=*/true, "known");
  evaluate(UnknownTabularErrors(), /*gated=*/false, "unknown");
}

/// Scenario-replay meta-training: the conformal guarantee needs the
/// calibration residuals to be exchangeable with the stream's, so the
/// meta-training pairs are generated by replaying the drift-scenario
/// library itself on the labeled *test* partition. Two refinements make
/// the per-scenario bound hold on the serving streams:
///  - Composition jitter. Each replay runs the scenarios on a label-shifted
///    resample of the test pool (positive fraction perturbed by a few
///    points). Under the harshest corruption regimes the black box falls
///    back to near-constant predictions, so its corrupted-regime accuracy
///    is a function of the pool's class composition — which differs between
///    the test and serving partitions. Jittering the calibration pools
///    injects that composition-induced residual spread into the calibration
///    scores; without it the drifted tails undercover systematically.
///  - Locally-scaled intervals (kQuantileForest). The drifted regimes have
///    several-times-larger residuals than the clean regime, and a single
///    marginal radius covers the mixture but not each regime. Normalizing
///    by the meta-forest's per-example tree spread adapts the radius to the
///    regime, which is what the per-scenario gate below actually tests.
core::PerformancePredictor TrainScenarioMatchedPredictor(
    const ml::BlackBox& model, const data::Dataset& test,
    const errors::DriftScenarioOptions& scenario_options, int replays,
    uint64_t seed, common::Rng& rng) {
  const std::vector<size_t> counts = data::ClassCounts(test);
  const double base_positive =
      counts.size() == 2 && test.NumRows() > 0
          ? static_cast<double>(counts[1]) /
                static_cast<double>(test.NumRows())
          : 0.5;

  std::vector<std::vector<double>> statistics;
  std::vector<double> scores;
  const auto record = [&](const data::Dataset& batch) {
    auto probabilities = model.PredictProba(batch.features);
    BBV_CHECK(probabilities.ok());
    scores.push_back(core::ComputeScore(core::ScoreMetric::kAccuracy,
                                        *probabilities, batch.labels));
    statistics.push_back(core::PredictionStatistics(*probabilities));
  };
  for (int replay = 0; replay < replays; ++replay) {
    // Jitter grid centered on the test composition, ±6 points.
    const double jitter =
        -0.06 + 0.12 * static_cast<double>(replay) /
                    static_cast<double>(std::max(replays - 1, 1));
    common::Rng pool_rng(seed + 500 + static_cast<uint64_t>(replay));
    auto shifted =
        errors::ResampleLabelShift(test, base_positive + jitter, pool_rng);
    BBV_CHECK(shifted.ok()) << shifted.status().ToString();
    auto pool = std::make_shared<const data::Dataset>(*std::move(shifted));
    const std::vector<errors::DriftScenario> replay_scenarios =
        errors::StandardDriftScenarios(pool, scenario_options);
    for (const errors::DriftScenario& scenario : replay_scenarios) {
      common::Rng scenario_rng(seed + 1000 + static_cast<uint64_t>(replay));
      std::vector<common::Rng> batch_rngs =
          scenario_rng.ForkStreams(scenario.num_batches());
      for (size_t batch_index = 0; batch_index < scenario.num_batches();
           ++batch_index) {
        auto batch = scenario.MakeBatch(batch_index, batch_rngs[batch_index]);
        BBV_CHECK(batch.ok()) << batch.status().ToString();
        record(*batch);
      }
    }
  }

  auto clean_probabilities = model.PredictProba(test.features);
  BBV_CHECK(clean_probabilities.ok());
  const double clean_score = core::ComputeScore(
      core::ScoreMetric::kAccuracy, *clean_probabilities, test.labels);
  core::PerformancePredictor::Options options;
  options.conformal_mode = core::ConformalCalibrator::Mode::kQuantileForest;
  core::PerformancePredictor predictor(options);
  BBV_CHECK(predictor.TrainFromStatistics(statistics, scores, clean_score,
                                          rng)
                .ok());
  BBV_CHECK(predictor.calibrator().calibrated());
  return predictor;
}

/// Per-scenario interval coverage over the drift streams: per-batch
/// estimates against the true per-batch accuracy (the scenario batches
/// carry labels), gated at nominal - tolerance for every scenario
/// including the drifted tails. Each scenario is replayed under several
/// seeds and pooled, so the per-scenario sample is large enough to test
/// the bound without single-replay flakiness.
bool RunDriftCoverage(const RunConfig& config,
                      std::vector<CellResult>& cells) {
  common::Rng rng(config.seed);
  const ExperimentData data = PrepareDataset("income", config, rng);
  const auto model = TrainBlackBox("xgb", data.train, config, rng);

  errors::DriftScenarioOptions scenario_options;
  scenario_options.num_batches = config.fast ? 24 : 40;
  scenario_options.batch_size = 400;
  scenario_options.drift_onset = scenario_options.num_batches / 2;

  core::PerformancePredictor predictor = TrainScenarioMatchedPredictor(
      *model, data.test, scenario_options, /*replays=*/config.fast ? 4 : 6,
      config.seed, rng);
  const double nominal = predictor.coverage_level();

  auto serving = std::make_shared<const data::Dataset>(data.serving);
  const std::vector<errors::DriftScenario> scenarios =
      errors::StandardDriftScenarios(serving, scenario_options);

  constexpr int kReplaySeeds = 4;
  bool all_within = true;
  for (const errors::DriftScenario& scenario : scenarios) {
    WallTimer timer;
    CellResult cell;
    cell.name = "drift/" + scenario.name();
    cell.gated = true;
    for (int replay = 0; replay < kReplaySeeds; ++replay) {
      common::Rng scenario_rng(config.seed + static_cast<uint64_t>(replay));
      std::vector<common::Rng> batch_rngs =
          scenario_rng.ForkStreams(scenario.num_batches());
      for (size_t batch_index = 0; batch_index < scenario.num_batches();
           ++batch_index) {
        auto batch = scenario.MakeBatch(batch_index, batch_rngs[batch_index]);
        BBV_CHECK(batch.ok()) << batch.status().ToString();
        auto probabilities = model->PredictProba(batch->features);
        BBV_CHECK(probabilities.ok());
        const double truth =
            core::ComputeScore(core::ScoreMetric::kAccuracy, *probabilities,
                               batch->labels);
        auto estimate = predictor.EstimateScoreFromProba(*probabilities);
        BBV_CHECK(estimate.ok()) << estimate.status().ToString();
        cell.tally.Add(*estimate, truth);
      }
    }
    cell.within = cell.tally.Coverage() >= nominal - kCoverageTolerance;
    cell.wall_seconds = timer.Seconds();
    all_within = all_within && cell.within;
    PrintCell(cell, nominal);
    cells.push_back(std::move(cell));
  }
  return all_within;
}

/// Determinism gates on one trained predictor: thread-count byte-identity
/// of the intervals and the serialized state, batch-vs-scalar bit-identity,
/// and Save/Load byte round-trip.
struct DeterminismOutcome {
  bool threads_identical = true;
  bool batch_scalar_identical = true;
  bool save_load_identical = true;
  bool Ok() const {
    return threads_identical && batch_scalar_identical && save_load_identical;
  }
};

DeterminismOutcome RunDeterminismGates(const RunConfig& config) {
  common::Rng rng(config.seed);
  const ExperimentData data = PrepareDataset("heart", config, rng);
  const auto model = TrainBlackBox("lr", data.train, config, rng);
  core::PerformancePredictor::Options options;
  options.corruptions_per_generator = config.CorruptionsPerGenerator();
  core::PerformancePredictor predictor(options);
  const auto generators = KnownTabularErrors();
  BBV_CHECK(
      predictor.Train(*model, data.test, RawPointers(generators), rng).ok());
  BBV_CHECK(predictor.calibrator().calibrated());

  // A spread of corrupted serving batches as probe inputs.
  std::vector<std::vector<double>> statistics;
  for (const auto& generator : generators) {
    for (int repetition = 0; repetition < 4; ++repetition) {
      auto corrupted =
          CorruptRandomSubset(data.serving.features, *generator, rng);
      BBV_CHECK(corrupted.ok());
      auto probabilities = model->PredictProba(*corrupted);
      BBV_CHECK(probabilities.ok());
      statistics.push_back(core::PredictionStatistics(
          *probabilities, predictor.percentile_points()));
    }
  }

  DeterminismOutcome outcome;
  const auto estimates_at = [&](int threads) {
    ScopedThreadsEnv scoped(threads);
    std::vector<core::ScoreEstimate> estimates;
    for (const auto& row : statistics) {
      estimates.push_back(
          predictor.EstimateScoreFromStatistics(row).ValueOrDie());  // bbv-lint: allow(batch-api) scalar reference series for the gates
    }
    return estimates;
  };
  const auto bytes_at = [&](int threads) {
    ScopedThreadsEnv scoped(threads);
    std::ostringstream out;
    BBV_CHECK(predictor.Save(out).ok());
    return out.str();
  };
  const std::vector<core::ScoreEstimate> baseline = estimates_at(1);
  const std::string baseline_bytes = bytes_at(1);
  for (int threads : {4, 8}) {
    if (estimates_at(threads) != baseline ||
        bytes_at(threads) != baseline_bytes) {
      outcome.threads_identical = false;
      std::printf("DETERMINISM FAILURE: intervals diverge at BBV_THREADS=%d\n",
                  threads);
    }
  }

  linalg::Matrix batch(statistics.size(), predictor.feature_dimension());
  for (size_t i = 0; i < statistics.size(); ++i) {
    for (size_t j = 0; j < statistics[i].size(); ++j) {
      batch.At(i, j) = statistics[i][j];
    }
  }
  std::vector<core::ScoreEstimate> batched(statistics.size());
  BBV_CHECK(predictor
                .EstimateScoresFromStatistics(
                    batch, std::span<core::ScoreEstimate>(batched))
                .ok());
  for (size_t i = 0; i < statistics.size(); ++i) {
    if (batched[i] != baseline[i]) {
      outcome.batch_scalar_identical = false;
      std::printf("BATCH/SCALAR MISMATCH at row %zu\n", i);
    }
  }

  std::stringstream first;
  BBV_CHECK(predictor.Save(first).ok());
  auto restored = core::PerformancePredictor::Load(first);
  BBV_CHECK(restored.ok()) << restored.status().ToString();
  std::stringstream second;
  BBV_CHECK(restored->Save(second).ok());
  if (first.str() != second.str()) {
    outcome.save_load_identical = false;
    std::printf("SAVE/LOAD BYTE MISMATCH\n");
  }
  for (size_t i = 0; i < statistics.size(); ++i) {
    const auto reloaded =
        restored->EstimateScoreFromStatistics(statistics[i]).ValueOrDie();  // bbv-lint: allow(batch-api) per-row probe of the reloaded predictor
    if (reloaded != baseline[i]) {
      outcome.save_load_identical = false;
      std::printf("SAVE/LOAD ESTIMATE MISMATCH at row %zu\n", i);
    }
  }

  std::printf("threads 1 vs 4 vs 8: %s\n",
              outcome.threads_identical ? "byte-identical" : "MISMATCH");
  std::printf("batch vs scalar: %s\n",
              outcome.batch_scalar_identical ? "bit-identical" : "MISMATCH");
  std::printf("save/load round-trip: %s\n",
              outcome.save_load_identical ? "byte-identical" : "MISMATCH");
  return outcome;
}

int Run(const RunConfig& config) {
  PrintHeader("Extension: conformal intervals",
              "marginal coverage / average width of ScoreEstimate intervals "
              "across the corruption grid and drift scenarios, plus the "
              "interval determinism gates",
              config);
  WallTimer timer;
  std::vector<CellResult> cells;
  CoverageTally known_pool;
  double nominal = 0.9;
  for (const std::string& model_name : {std::string("lr"), std::string("xgb")}) {
    for (const std::string& dataset :
         {std::string("income"), std::string("heart")}) {
      RunGridCell(model_name, dataset, config, known_pool, cells);
    }
  }
  // Pooled gate over every known-error cell: the marginal guarantee is an
  // expectation over the corruption distribution, and the pool has enough
  // samples to test it at kCoverageTolerance without flakiness.
  const bool grid_within =
      known_pool.Coverage() >= nominal - kCoverageTolerance;
  std::printf(
      "pooled known-error grid: n=%zu coverage=%.3f avg_width=%.4f "
      "nominal=%.2f %s\n",
      known_pool.examples, known_pool.Coverage(), known_pool.AverageWidth(),
      nominal, grid_within ? "ok" : "VIOLATION");

  const bool drift_within = RunDriftCoverage(config, cells);
  const DeterminismOutcome determinism = RunDeterminismGates(config);

  std::vector<BenchResult> results;
  for (const CellResult& cell : cells) {
    BenchResult result;
    result.name = cell.name;
    result.wall_seconds = cell.wall_seconds;
    result.extras = {
        {"coverage", cell.tally.Coverage()},
        {"avg_width", cell.tally.AverageWidth()},
        {"examples", static_cast<double>(cell.tally.examples)},
        {"gated", cell.gated ? 1.0 : 0.0},
        {"within_bound", cell.within ? 1.0 : 0.0},
    };
    results.push_back(std::move(result));
  }
  BenchResult overall;
  overall.name = "overall";
  overall.wall_seconds = timer.Seconds();
  overall.extras = {
      {"grid_coverage", known_pool.Coverage()},
      {"grid_avg_width", known_pool.AverageWidth()},
      {"grid_within_bound", grid_within ? 1.0 : 0.0},
      {"drift_within_bound", drift_within ? 1.0 : 0.0},
      {"threads_identical", determinism.threads_identical ? 1.0 : 0.0},
      {"batch_scalar_identical",
       determinism.batch_scalar_identical ? 1.0 : 0.0},
      {"save_load_identical", determinism.save_load_identical ? 1.0 : 0.0},
  };
  results.push_back(std::move(overall));
  if (!config.json_path.empty()) {
    WriteBenchJson(config.json_path, "ext_conformal", config, results,
                   {{"grid", "lr,xgb x income,heart"},
                    {"nominal_coverage", "0.90"},
                    {"tolerance", "0.03"}});
  }
  MaybeWriteTelemetryJson(config);
  if (!grid_within || !drift_within || !determinism.Ok()) {
    std::printf("FAILED: grid=%d drift=%d determinism=%d\n",
                grid_within ? 1 : 0, drift_within ? 1 : 0,
                determinism.Ok() ? 1 : 0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bbv::bench

int main(int argc, char** argv) {
  return bbv::bench::Run(bbv::bench::ParseArgs(argc, argv));
}
