// Google-benchmark micro-benchmarks for the hot operations inside the
// validation layer (not a paper figure): output-percentile featurization,
// hypothesis tests, forest inference, corruption generators, the feature
// pipeline, the serving sketch's quantiles and the sketch bank's save and
// load. These bound the serving-time overhead of deploying a performance
// predictor next to a model.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/telemetry.h"
#include "core/prediction_statistics.h"
#include "datasets/tabular.h"
#include "errors/missing_values.h"
#include "errors/numeric_errors.h"
#include "featurize/pipeline.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "stats/hypothesis.h"
#include "stats/quantile_sketch.h"

namespace bbv::bench {
namespace {

linalg::Matrix MakeProbabilities(size_t rows, common::Rng& rng) {
  linalg::Matrix probabilities(rows, 2);
  for (size_t i = 0; i < rows; ++i) {
    const double p = rng.Uniform();
    probabilities.At(i, 0) = p;
    probabilities.At(i, 1) = 1.0 - p;
  }
  return probabilities;
}

void BM_PredictionStatistics(benchmark::State& state) {
  common::Rng rng(1);
  const linalg::Matrix probabilities =
      MakeProbabilities(static_cast<size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PredictionStatistics(probabilities));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredictionStatistics)->Arg(1000)->Arg(10000);

/// One default-grid (12-bit) sketch over `rows` uniform values: 100 rows
/// fill 98 cells, 1000 rows about 830 and 100k rows the whole grid.
stats::QuantileSketch SketchOfRows(int64_t rows) {
  common::Rng rng(2);
  stats::QuantileSketch sketch;
  for (int64_t i = 0; i < rows; ++i) sketch.Add(rng.Uniform());
  return sketch;
}

/// A default-grid two-column bank over `rows` binary probability rows, the
/// state a serving tenant of a binary classifier saves on eviction.
stats::QuantileSketchBank BankOfRows(int64_t rows) {
  common::Rng rng(2);
  stats::QuantileSketchBank bank;
  BBV_CHECK(
      bank.Observe(MakeProbabilities(static_cast<size_t>(rows), rng)).ok());
  return bank;
}

std::string BankBytes(const stats::QuantileSketchBank& bank) {
  std::ostringstream out;
  BBV_CHECK(bank.Save(out).ok());
  return out.str();
}

void BM_SketchQuantiles(benchmark::State& state) {
  const stats::QuantileSketch sketch = SketchOfRows(state.range(0));
  const std::vector<double> points = core::DefaultPercentilePoints();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Quantiles(points));
  }
  state.counters["nonzero_cells"] =
      static_cast<double>(sketch.num_nonzero_cells());
}
BENCHMARK(BM_SketchQuantiles)->Arg(100)->Arg(1000)->Arg(100000);

void BM_BankSave(benchmark::State& state) {
  const stats::QuantileSketchBank bank = BankOfRows(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BankBytes(bank));
  }
  state.counters["bytes"] = static_cast<double>(BankBytes(bank).size());
}
BENCHMARK(BM_BankSave)->Arg(100)->Arg(1000)->Arg(100000);

void BM_BankLoad(benchmark::State& state) {
  const std::string bytes = BankBytes(BankOfRows(state.range(0)));
  for (auto _ : state) {
    std::istringstream in(bytes);
    auto loaded = stats::QuantileSketchBank::Load(in);
    BBV_CHECK(loaded.ok());
    benchmark::DoNotOptimize(loaded->rows_observed());
  }
  state.counters["bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_BankLoad)->Arg(100)->Arg(1000)->Arg(100000);

void BM_TwoSampleKsTest(benchmark::State& state) {
  common::Rng rng(2);
  std::vector<double> a(static_cast<size_t>(state.range(0)));
  std::vector<double> b(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Gaussian();
    b[i] = rng.Gaussian(0.1, 1.1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::TwoSampleKsTest(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TwoSampleKsTest)->Arg(1000)->Arg(10000);

/// Shared fixture for the split-search microbenchmarks: one regression-tree
/// fit over `rows` x 16 uniform features with a noisy linear target, timed
/// end to end (for the binned variant this includes building the
/// FeatureBinning, matching what a single-tree caller pays).
void RunSplitSearchBenchmark(benchmark::State& state, bool binned) {
  common::Rng data_rng(9);
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t dim = 16;
  linalg::Matrix features(rows, dim);
  std::vector<double> targets(rows);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < dim; ++j) features.At(i, j) = data_rng.Uniform();
    targets[i] = 2.0 * features.At(i, 0) - features.At(i, 3) +
                 data_rng.Gaussian(0.0, 0.1);
  }
  ml::TreeOptions options;
  options.binned_split_search = binned;
  for (auto _ : state) {
    ml::RegressionTree tree(options);
    common::Rng rng(13);
    BBV_CHECK(tree.Fit(features, targets, rng).ok());
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SplitSearchExact(benchmark::State& state) {
  RunSplitSearchBenchmark(state, /*binned=*/false);
}
BENCHMARK(BM_SplitSearchExact)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_SplitSearchBinned(benchmark::State& state) {
  RunSplitSearchBenchmark(state, /*binned=*/true);
}
BENCHMARK(BM_SplitSearchBinned)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_ForestKernelRows(benchmark::State& state) {
  // The exact kernel on a predictor-shaped forest (100 trees fit on
  // 405 x 58 meta-examples, the shape train_income and validate_batch
  // score through) at the row counts of a validate call (1 row), narrow
  // lane groups (2, 3, 4), one full lane group (8) and one tile (64). The
  // iterations cycle through 4096 distinct rows, too many for the branch
  // predictor to learn the node walk's outcomes. Groups narrower than the
  // kernel's lockstep cut (3 rows) walk node by node, so this is where
  // that cut is measured.
  common::Rng rng(10);
  const size_t dim = 58;
  linalg::Matrix features(405, dim);
  std::vector<double> targets(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    for (size_t j = 0; j < dim; ++j) features.At(i, j) = rng.Uniform();
    targets[i] = features.At(i, 0) - 0.5 * features.At(i, 1) +
                 rng.Gaussian(0.0, 0.1);
  }
  ml::RandomForestRegressor::Options options;
  options.num_trees = 100;
  ml::RandomForestRegressor forest(options);
  BBV_CHECK(forest.Fit(features, targets, rng).ok());
  const size_t serving_rows = static_cast<size_t>(state.range(0));
  std::vector<linalg::Matrix> batches;
  for (size_t b = 0; b < 4096 / serving_rows; ++b) {
    linalg::Matrix batch(serving_rows, dim);
    for (size_t i = 0; i < serving_rows; ++i) {
      for (size_t j = 0; j < dim; ++j) batch.At(i, j) = rng.Uniform();
    }
    batches.push_back(std::move(batch));
  }
  std::vector<double> predictions(serving_rows);
  size_t next = 0;
  for (auto _ : state) {
    forest.PredictInto(batches[next], predictions);
    benchmark::DoNotOptimize(predictions.data());
    benchmark::ClobberMemory();
    next = (next + 1) % batches.size();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForestKernelRows)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_MissingValuesCorruption(benchmark::State& state) {
  common::Rng rng(4);
  const data::Dataset dataset =
      datasets::MakeIncome(static_cast<size_t>(state.range(0)), rng);
  const errors::MissingValues generator;
  for (auto _ : state) {
    auto corrupted = generator.Corrupt(dataset.features, rng);
    benchmark::DoNotOptimize(corrupted);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MissingValuesCorruption)->Arg(1000)->Arg(5000);

void BM_OutlierCorruption(benchmark::State& state) {
  common::Rng rng(5);
  const data::Dataset dataset =
      datasets::MakeIncome(static_cast<size_t>(state.range(0)), rng);
  const errors::NumericOutliers generator;
  for (auto _ : state) {
    auto corrupted = generator.Corrupt(dataset.features, rng);
    benchmark::DoNotOptimize(corrupted);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OutlierCorruption)->Arg(1000)->Arg(5000);

void BM_RandomForestFit(benchmark::State& state) {
  // Tree-level parallel fitting: Arg is the BBV_THREADS override, so the
  // reported times show how the hot path scales with the worker count.
  const int threads = static_cast<int>(state.range(0));
  ::setenv("BBV_THREADS", std::to_string(threads).c_str(), 1);
  common::Rng data_rng(7);
  const size_t dim = 24;
  linalg::Matrix features(1500, dim);
  std::vector<double> targets(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    for (size_t j = 0; j < dim; ++j) features.At(i, j) = data_rng.Uniform();
    targets[i] = data_rng.Uniform();
  }
  ml::RandomForestRegressor::Options options;
  options.num_trees = 64;
  for (auto _ : state) {
    ml::RandomForestRegressor forest(options);
    common::Rng rng(11);
    BBV_CHECK(forest.Fit(features, targets, rng).ok());
    benchmark::DoNotOptimize(forest);
  }
  ::unsetenv("BBV_THREADS");
  state.SetItemsProcessed(state.iterations() * options.num_trees);
}
BENCHMARK(BM_RandomForestFit)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// The forest PerformancePredictor::Train fits six times per call (final
/// model plus five calibration folds): default options, 100 trees, on about
/// 405 percentile-feature rows x 58 columns. Values are uniform, or rounded
/// to 1/32 when `ties` is set: percentile features repeat values, so fewer
/// of the positions the split scan visits are value boundaries: about 6 in
/// 10 uniform, 3 in 10 rounded, 4 in 10 over a train_income run. Runs at
/// the ambient BBV_THREADS.
void ForestFitMetaShape(benchmark::State& state, bool ties) {
  common::Rng data_rng(12);
  linalg::Matrix features(405, 58);
  std::vector<double> targets(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    for (size_t j = 0; j < features.cols(); ++j) {
      const double value = data_rng.Uniform();
      features.At(i, j) = ties ? std::round(value * 32.0) / 32.0 : value;
    }
    targets[i] = 0.5 * features.At(i, 0) + 0.3 * features.At(i, 7) +
                 data_rng.Gaussian(0.0, 0.05);
  }
  for (auto _ : state) {
    ml::RandomForestRegressor forest;
    common::Rng rng(14);
    BBV_CHECK(forest.Fit(features, targets, rng).ok());
    benchmark::DoNotOptimize(forest);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(features.rows()));
}

void BM_ForestFitMetaShape(benchmark::State& state) {
  ForestFitMetaShape(state, /*ties=*/false);
}
BENCHMARK(BM_ForestFitMetaShape)->Unit(benchmark::kMillisecond);

void BM_ForestFitMetaShapeTies(benchmark::State& state) {
  ForestFitMetaShape(state, /*ties=*/true);
}
BENCHMARK(BM_ForestFitMetaShapeTies)->Unit(benchmark::kMillisecond);

void BM_TelemetrySpanEnabled(benchmark::State& state) {
  // Cost of one TraceSpan + counter increment on the instrumented hot
  // paths when telemetry is on: two clock reads plus relaxed atomics.
  const bool was_enabled = common::telemetry::Enabled();
  common::telemetry::SetEnabled(true);
  for (auto _ : state) {
    const common::telemetry::TraceSpan span("bench.telemetry_overhead");
    common::telemetry::IncrementCounter("bench.telemetry_overhead.calls");
    benchmark::DoNotOptimize(span.ElapsedSeconds());
  }
  common::telemetry::SetEnabled(was_enabled);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetrySpanEnabled);

void BM_TelemetrySpanDisabled(benchmark::State& state) {
  // The BBV_TELEMETRY=off path: no clock reads, no registry lookups.
  const bool was_enabled = common::telemetry::Enabled();
  common::telemetry::SetEnabled(false);
  for (auto _ : state) {
    const common::telemetry::TraceSpan span("bench.telemetry_overhead");
    common::telemetry::IncrementCounter("bench.telemetry_overhead.calls");
    benchmark::DoNotOptimize(span.ElapsedSeconds());
  }
  common::telemetry::SetEnabled(was_enabled);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetrySpanDisabled);

void BM_PipelineTransform(benchmark::State& state) {
  common::Rng rng(6);
  const data::Dataset dataset =
      datasets::MakeIncome(static_cast<size_t>(state.range(0)), rng);
  featurize::FeaturePipeline pipeline;
  BBV_CHECK(pipeline.Fit(dataset.features).ok());
  for (auto _ : state) {
    auto transformed = pipeline.Transform(dataset.features);
    benchmark::DoNotOptimize(transformed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipelineTransform)->Arg(1000)->Arg(5000);

}  // namespace
}  // namespace bbv::bench

// Custom main instead of BENCHMARK_MAIN(): translates the repo-wide
// --json[=PATH] convention into google-benchmark's --benchmark_out flags
// (and strips --telemetry-json[=PATH], handled after the run) so CI invokes
// every bench binary the same way.
int main(int argc, char** argv) {
  std::string telemetry_json_path;
  std::vector<std::string> storage;
  storage.reserve(static_cast<size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
      const std::string path = arg == "--json"
                                   ? std::string("BENCH_micro_ops.json")
                                   : arg.substr(7);
      storage.push_back("--benchmark_out=" + path);
      storage.push_back("--benchmark_out_format=json");
    } else if (arg == "--telemetry-json") {
      telemetry_json_path = "TELEMETRY_micro_ops.json";
    } else if (arg.rfind("--telemetry-json=", 0) == 0) {
      telemetry_json_path = arg.substr(17);
    } else {
      storage.push_back(arg);
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& arg : storage) args.push_back(arg.data());
  int translated_argc = static_cast<int>(args.size());
  benchmark::Initialize(&translated_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(translated_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!telemetry_json_path.empty()) {
    bbv::bench::RunConfig config;
    config.telemetry_json_path = telemetry_json_path;
    bbv::bench::MaybeWriteTelemetryJson(config);
    std::printf("wrote %s\n", telemetry_json_path.c_str());
  }
  return 0;
}
