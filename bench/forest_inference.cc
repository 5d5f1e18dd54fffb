// Inference benchmark for the flattened tree-ensemble kernel: times batch
// prediction through the legacy scalar node walk and the compiled
// ForestKernel on the same fitted models (random forest and boosted
// classifier, 100 trees) at 1e4 and 1e5 serving rows. The main
// measurements are pinned to BBV_THREADS=1 so the kernel-vs-legacy ratios
// measure the kernels themselves (and stay comparable across machines); a
// separate sweep then re-times the 1e5-row forest kernel at 2/4/8 threads.
//
// Each ensemble's flattened footprint is printed first: the forest's deep
// trees exceed the kernel's 32 KB compact cut and take the 8-row lockstep
// walk, the depth-3 boosted trees stay under it and take the rows-outer
// node walk.
//
// Correctness gate: kernel outputs must equal the legacy node walk bit for
// bit; any divergence exits non-zero. With --json[=PATH] the measurements
// land in BENCH_forest_inference.json; the per-result "deterministic" flag
// feeds bbv_bench_compare's never-decrease rule, so CI fails loudly if
// equivalence ever regresses.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "linalg/matrix.h"
#include "ml/forest_kernel.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/random_forest.h"

namespace bbv::bench {
namespace {

constexpr int kTrees = 100;
constexpr size_t kFeatures = 16;
constexpr int kRepetitions = 5;
/// Thread counts for the 1e5-row scaling sweep (1 is the pinned main run).
constexpr int kSweepThreads[] = {2, 4, 8};

linalg::Matrix MakeFeatures(size_t rows, uint64_t seed) {
  common::Rng rng(seed);
  linalg::Matrix features(rows, kFeatures);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < kFeatures; ++j) features.At(i, j) = rng.Uniform();
  }
  return features;
}

/// Legacy reference: the pre-kernel prediction path — a parallel loop over
/// rows, each walking every tree node by node — recomputed from the fitted
/// trees with the same scheduling threshold the old code used.
std::vector<double> LegacyForestPredict(const ml::RandomForestRegressor& forest,
                                        const linalg::Matrix& features) {
  std::vector<double> result(features.rows());
  const common::Status status = common::ParallelFor(
      features.rows(),
      [&](size_t i) {
        const double* row = features.RowData(i);
        double sum = 0.0;
        for (const ml::RegressionTree& tree : forest.trees()) {
          // Scalar baseline the kernel speedup is measured against.
          // bbv-lint: allow(batch-api) this is the comparison timing loop
          sum += tree.PredictRow(row);
        }
        result[i] = sum / static_cast<double>(forest.trees().size());
        return common::Status::OK();
      },
      {.min_items_per_thread = 512});
  BBV_CHECK(status.ok()) << status.ToString();
  return result;
}

/// Legacy boosted-classifier scores (pre-softmax): per-row strided
/// accumulation over the node walk, serial like the old PredictProba loop.
std::vector<double> LegacyGbtScores(const ml::GradientBoostedTrees& model,
                                    const linalg::Matrix& features) {
  const auto m = static_cast<size_t>(model.num_classes());
  std::vector<double> scores(features.rows() * m);
  for (size_t i = 0; i < features.rows(); ++i) {
    const double* row = features.RowData(i);
    double* out = scores.data() + i * m;
    for (size_t k = 0; k < m; ++k) out[k] = model.base_scores()[k];
    for (size_t t = 0; t < model.trees().size(); ++t) {
      // Scalar baseline the kernel speedup is measured against.
      // bbv-lint: allow(batch-api) this is the comparison timing loop
      out[t % m] += model.learning_rate() * model.trees()[t].PredictRow(row);
    }
  }
  return scores;
}

/// Best-of-N wall time of `run`, storing the last computed artifact in
/// `artifact` for the equivalence check.
template <typename Run>
double TimeBest(const Run& run, std::vector<double>& artifact) {
  double best = 0.0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    WallTimer timer;
    artifact = run();
    const double seconds = timer.Seconds();
    if (rep == 0 || seconds < best) best = seconds;
  }
  return best;
}

struct PathResult {
  double legacy_seconds = 0.0;
  double kernel_seconds = 0.0;
  bool identical = false;
};

void Report(const std::string& name, size_t rows, const PathResult& measured,
            std::vector<BenchResult>& results) {
  for (const bool kernel : {false, true}) {
    BenchResult result;
    result.name = name + (kernel ? "_kernel" : "_legacy");
    result.wall_seconds = kernel ? measured.kernel_seconds
                                 : measured.legacy_seconds;
    result.extras.emplace_back("rows", static_cast<double>(rows));
    result.extras.emplace_back("deterministic", measured.identical ? 1.0 : 0.0);
    if (kernel) {
      result.extras.emplace_back(
          "speedup_vs_legacy",
          measured.kernel_seconds > 0.0
              ? measured.legacy_seconds / measured.kernel_seconds
              : 0.0);
    }
    results.push_back(result);
    std::printf("%-18s rows=%zu wall=%.4fs%s identical=%s\n",
                result.name.c_str(), rows, result.wall_seconds,
                kernel ? "" : " (reference)",
                measured.identical ? "yes" : "NO");
  }
}

int RunBenchmark(int argc, char** argv) {
  RunConfig config = ParseArgs(argc, argv);
  PrintHeader("forest_inference",
              "legacy node walk vs flattened kernel, 100-tree ensembles",
              config);

  // Fitted models shared by every workload.
  const linalg::Matrix train = MakeFeatures(4000, config.seed);
  std::vector<double> targets(train.rows());
  for (size_t i = 0; i < train.rows(); ++i) {
    targets[i] = 2.0 * train.At(i, 0) - train.At(i, 1) + 0.25 * train.At(i, 7);
  }
  ml::RandomForestRegressor::Options forest_options;
  forest_options.num_trees = kTrees;
  ml::RandomForestRegressor forest(forest_options);
  {
    common::Rng rng(config.seed + 1);
    BBV_CHECK(forest.Fit(train, targets, rng).ok());
  }
  std::vector<int> labels(train.rows());
  for (size_t i = 0; i < train.rows(); ++i) {
    labels[i] = train.At(i, 0) + train.At(i, 1) > 1.0 ? 1 : 0;
  }
  ml::GradientBoostedTrees::Options gbt_options;
  gbt_options.num_rounds = kTrees / 2;  // x2 classes = 100 trees
  ml::GradientBoostedTrees gbt(gbt_options);
  {
    common::Rng rng(config.seed + 2);
    BBV_CHECK(gbt.Fit(train, labels, 2, rng).ok());
  }

  const auto num_classes = static_cast<size_t>(gbt.num_classes());
  std::printf("footprint: forest=%zu bytes gbt=%zu bytes\n",
              forest.kernel().footprint_bytes(),
              gbt.kernel().footprint_bytes());

  auto gbt_base_scores = [&](size_t rows) {
    std::vector<double> scores(rows * num_classes);
    for (size_t i = 0; i < rows; ++i) {
      for (size_t k = 0; k < num_classes; ++k) {
        scores[i * num_classes + k] = gbt.base_scores()[k];
      }
    }
    return scores;
  };

  std::vector<BenchResult> results;
  bool all_identical = true;
  double rf_100k_kernel_seconds = 0.0;
  for (const size_t rows : {size_t{10'000}, size_t{100'000}}) {
    // Single-thread pin: the headline ratios measure the kernels, not the
    // machine's core count (the sweep below covers scaling).
    ScopedThreadsEnv env(1);
    const linalg::Matrix serving = MakeFeatures(rows, config.seed + rows);
    const std::string suffix = rows == 10'000 ? "_10k" : "_100k";

    PathResult forest_measured;
    std::vector<double> legacy_predictions;
    std::vector<double> kernel_predictions(rows);
    forest_measured.legacy_seconds = TimeBest(
        [&] { return LegacyForestPredict(forest, serving); },
        legacy_predictions);
    forest_measured.kernel_seconds = TimeBest(
        [&] {
          forest.PredictInto(serving, kernel_predictions);
          return kernel_predictions;
        },
        kernel_predictions);
    forest_measured.identical = legacy_predictions == kernel_predictions;
    all_identical = all_identical && forest_measured.identical;
    Report("rf" + suffix, rows, forest_measured, results);
    if (rows == 100'000) {
      rf_100k_kernel_seconds = forest_measured.kernel_seconds;
    }

    PathResult gbt_measured;
    std::vector<double> legacy_scores;
    std::vector<double> kernel_scores;
    gbt_measured.legacy_seconds =
        TimeBest([&] { return LegacyGbtScores(gbt, serving); }, legacy_scores);
    gbt_measured.kernel_seconds = TimeBest(
        [&] {
          // Probabilities = softmax(scores); compare pre-softmax scores so
          // the check isolates the kernel itself.
          std::vector<double> scores = gbt_base_scores(rows);
          gbt.kernel().AccumulateInto(serving, gbt.learning_rate(),
                                      num_classes, scores);
          return scores;
        },
        kernel_scores);
    gbt_measured.identical = legacy_scores == kernel_scores;
    all_identical = all_identical && gbt_measured.identical;
    Report("gbt" + suffix, rows, gbt_measured, results);
  }

  // Thread sweep over the 1e5-row forest kernel at 2/4/8 threads, speedup
  // relative to the pinned single-thread run above. Only meaningful when
  // hardware_concurrency (recorded in the JSON header) covers the thread
  // count.
  {
    const size_t rows = 100'000;
    const linalg::Matrix serving = MakeFeatures(rows, config.seed + rows);
    for (const int threads : kSweepThreads) {
      ScopedThreadsEnv env(threads);
      std::vector<double> predictions(rows);
      const double seconds = TimeBest(
          [&] {
            forest.PredictInto(serving, predictions);
            return predictions;
          },
          predictions);
      BenchResult result;
      result.name = "rf_100k_kernel";
      result.threads = threads;
      result.wall_seconds = seconds;
      result.speedup_vs_serial =
          seconds > 0.0 ? rf_100k_kernel_seconds / seconds : 0.0;
      result.extras.emplace_back("rows", static_cast<double>(rows));
      results.push_back(result);
      std::printf("%-18s threads=%d wall=%.4fs speedup_vs_serial=%.2fx\n",
                  result.name.c_str(), threads, seconds,
                  result.speedup_vs_serial);
    }
  }

  if (!config.json_path.empty()) {
    WriteBenchJson(
        config.json_path, "forest_inference", config, results,
        {{"kernel_paths", "legacy,exact"}});
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  MaybeWriteTelemetryJson(config);
  if (!config.telemetry_json_path.empty()) {
    std::printf("wrote %s\n", config.telemetry_json_path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: kernel and legacy node-walk predictions diverge — "
                 "the equivalence contract is broken\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bbv::bench

int main(int argc, char** argv) {
  return bbv::bench::RunBenchmark(argc, argv);
}
