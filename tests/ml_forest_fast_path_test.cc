// Property tests for the opt-in tree-ensemble fast paths: the quantized
// width-8 inference kernel and the histogram-binned split search. The
// contracts under test:
//  - quantized outputs are bit-identical to the bit-exact kernel evaluated
//    on ForestKernel::QuantizeFeatures(input), for every input shape the
//    serving layer sees (uniform, edge-concentrated, heavily tied,
//    constant) and for tile-remainder row counts;
//  - |quantized - exact| never exceeds the kernel's documented bounds;
//  - compact (L1-resident) ensembles are routed to the exact kernel: a
//    quantized request on them runs exact, bit for bit, with zero bounds;
//  - both fast paths are thread-count independent (byte-identical results
//    and serialized models at BBV_THREADS 1 vs 8);
//  - FeatureBinning's code/cut contract: code(v) <= b  <=>  v <= CutValue(b).

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "ml/feature_binning.h"
#include "ml/forest_kernel.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/random_forest.h"

namespace bbv::ml {
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
/// (mirrors the quantile-sketch test): smooth, tail-concentrated, heavily
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

constexpr size_t kNumShapes = 4;

linalg::Matrix MakeShapeMatrix(size_t rows, size_t cols, size_t shape,
                               common::Rng& rng) {
  linalg::Matrix features(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      features.At(i, j) = DrawShape(shape, rng);
    }
  }
  return features;
}

std::vector<double> LinearTargets(const linalg::Matrix& features,
                                  common::Rng& rng) {
  std::vector<double> targets(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    targets[i] = 2.0 * features.At(i, 0) - features.At(i, 1) +
                 0.5 * features.At(i, 2) + rng.Gaussian(0.0, 0.05);
  }
  return targets;
}

RandomForestRegressor FitForest(const linalg::Matrix& features,
                                const std::vector<double>& targets,
                                uint64_t seed, bool binned = false) {
  RandomForestRegressor::Options options;
  options.num_trees = 30;
  options.tree.binned_split_search = binned;
  RandomForestRegressor forest(options);
  common::Rng rng(seed);
  BBV_CHECK(forest.Fit(features, targets, rng).ok());
  return forest;
}

/// Bitwise equality (stricter than ==, which conflates -0.0 and 0.0).
bool BytesEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double RSquared(const std::vector<double>& predictions,
                const std::vector<double>& targets) {
  double mean = 0.0;
  for (double t : targets) mean += t;
  mean /= static_cast<double>(targets.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (size_t i = 0; i < targets.size(); ++i) {
    ss_res += (targets[i] - predictions[i]) * (targets[i] - predictions[i]);
    ss_tot += (targets[i] - mean) * (targets[i] - mean);
  }
  return ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
}

TEST(ForestFastPathTest, QuantizedMatchesExactWithinBoundAcrossShapes) {
  common::Rng rng(11);
  for (size_t shape = 0; shape < kNumShapes; ++shape) {
    const linalg::Matrix train = MakeShapeMatrix(500, 8, shape, rng);
    const std::vector<double> targets = LinearTargets(train, rng);
    const RandomForestRegressor forest = FitForest(train, targets, 7 + shape);
    const ForestKernel quantized = ForestKernel::Compile(
        forest.trees(), ForestKernel::Options{.quantized = true});
    // Constant features admit no split: all-leaf trees form a compact
    // ensemble, which runs exact. Every other shape grows deep trees.
    const bool compact = shape == 3;
    ASSERT_EQ(quantized.quantized(), !compact) << "shape=" << shape;

    const linalg::Matrix serving = MakeShapeMatrix(333, 8, shape, rng);
    std::vector<double> exact(serving.rows());
    std::vector<double> fast(serving.rows());
    forest.kernel().PredictMeanInto(serving, exact);
    quantized.PredictMeanInto(serving, fast);

    // Deviation from exact is bounded by the documented quantization bound.
    const double bound = quantized.QuantizationMeanErrorBound();
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_LE(std::abs(fast[i] - exact[i]), bound)
          << "shape=" << shape << " row=" << i;
    }

    // The defining fast-path property: bit-identical to the exact kernel on
    // float32-rounded inputs (on the inputs themselves when routed exact).
    const linalg::Matrix reference_input =
        compact ? serving : ForestKernel::QuantizeFeatures(serving);
    std::vector<double> reference(serving.rows());
    forest.kernel().PredictMeanInto(reference_input, reference);
    EXPECT_TRUE(BytesEqual(fast, reference)) << "shape=" << shape;
  }
}

TEST(ForestFastPathTest, QuantizedHandlesTileRemainderRowCounts) {
  common::Rng rng(13);
  const linalg::Matrix train = MakeShapeMatrix(400, 6, 0, rng);
  const std::vector<double> targets = LinearTargets(train, rng);
  const RandomForestRegressor forest = FitForest(train, targets, 23);
  const ForestKernel quantized = ForestKernel::Compile(
      forest.trees(), ForestKernel::Options{.quantized = true});
  ASSERT_TRUE(quantized.quantized());

  // Row counts around the 8-lane groups and the 64-row tiles, including
  // every remainder 1..9 and the one-past-a-boundary cases.
  for (const size_t rows : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                            size_t{5}, size_t{6}, size_t{7}, size_t{8},
                            size_t{9}, size_t{63}, size_t{64}, size_t{65},
                            size_t{127}}) {
    const linalg::Matrix serving = MakeShapeMatrix(rows, 6, 0, rng);
    std::vector<double> fast(rows);
    quantized.PredictMeanInto(serving, fast);
    const linalg::Matrix rounded = ForestKernel::QuantizeFeatures(serving);
    std::vector<double> exact_on_rounded(rows);
    forest.kernel().PredictMeanInto(rounded, exact_on_rounded);
    EXPECT_TRUE(BytesEqual(fast, exact_on_rounded)) << "rows=" << rows;
  }
}

TEST(ForestFastPathTest, CompactEnsembleRunsExact) {
  // Depth-3 boosted trees flatten into far less than L1, where the exact
  // walk beats the float32 tiles; a quantized request on them must run the
  // exact kernel, bit for bit, and report zero quantization error.
  common::Rng rng(17);
  const linalg::Matrix train = MakeShapeMatrix(600, 8, 1, rng);
  std::vector<int> labels(train.rows());
  for (size_t i = 0; i < train.rows(); ++i) {
    labels[i] = train.At(i, 0) + train.At(i, 1) > 1.0 ? 1 : 0;
  }
  GradientBoostedTrees::Options options;
  options.num_rounds = 20;
  GradientBoostedTrees gbt(options);
  common::Rng fit_rng(29);
  ASSERT_TRUE(gbt.Fit(train, labels, 2, fit_rng).ok());

  const ForestKernel requested = ForestKernel::Compile(
      gbt.trees(), ForestKernel::Options{.quantized = true});
  EXPECT_FALSE(requested.quantized());

  const linalg::Matrix serving = MakeShapeMatrix(257, 8, 1, rng);
  const size_t stride = 2;
  const double scale = gbt.learning_rate();
  std::vector<double> routed(serving.rows() * stride, 0.0);
  std::vector<double> exact(serving.rows() * stride, 0.0);
  requested.AccumulateInto(serving, scale, stride, routed);
  gbt.kernel().AccumulateInto(serving, scale, stride, exact);
  EXPECT_TRUE(BytesEqual(routed, exact));
  EXPECT_EQ(requested.QuantizationAccumulateErrorBound(scale, stride), 0.0);
  EXPECT_EQ(requested.QuantizationMeanErrorBound(), 0.0);
}

TEST(ForestFastPathTest, QuantizedPathIsThreadCountIndependent) {
  common::Rng rng(19);
  const linalg::Matrix train = MakeShapeMatrix(400, 8, 0, rng);
  const std::vector<double> targets = LinearTargets(train, rng);
  const RandomForestRegressor forest = FitForest(train, targets, 31);
  const ForestKernel quantized = ForestKernel::Compile(
      forest.trees(), ForestKernel::Options{.quantized = true});
  ASSERT_TRUE(quantized.quantized());
  // Enough rows for several 64-row tiles so the parallel fan-out is real.
  const linalg::Matrix serving = MakeShapeMatrix(1000, 8, 0, rng);
  std::vector<double> serial(serving.rows());
  std::vector<double> parallel(serving.rows());
  {
    ScopedThreadsEnv env("1");
    quantized.PredictMeanInto(serving, serial);
  }
  {
    ScopedThreadsEnv env("8");
    quantized.PredictMeanInto(serving, parallel);
  }
  EXPECT_TRUE(BytesEqual(serial, parallel));
}

TEST(ForestFastPathTest, BinnedTrainingKeepsRegressionQualityAcrossShapes) {
  common::Rng rng(37);
  for (size_t shape = 0; shape < kNumShapes; ++shape) {
    const linalg::Matrix train = MakeShapeMatrix(800, 6, shape, rng);
    const std::vector<double> targets = LinearTargets(train, rng);
    const RandomForestRegressor exact =
        FitForest(train, targets, 41, /*binned=*/false);
    const RandomForestRegressor binned =
        FitForest(train, targets, 41, /*binned=*/true);
    const double exact_r2 = RSquared(exact.Predict(train), targets);
    const double binned_r2 = RSquared(binned.Predict(train), targets);
    // The 256-bin quantile grid restricts thresholds to observed cut
    // values; on a few hundred rows that costs at most a sliver of fit
    // quality (and nothing at all on tied/constant columns).
    EXPECT_GE(binned_r2, exact_r2 - 0.05) << "shape=" << shape;
    // Degenerate shapes must not crash or fit garbage: constant features
    // admit no split, so the forest predicts (near) the target mean.
    if (shape == 3) {
      EXPECT_NEAR(binned_r2, 0.0, 0.05);
    } else {
      EXPECT_GT(binned_r2, 0.5) << "shape=" << shape;
    }
  }
}

TEST(ForestFastPathTest, BinnedForestSaveIsByteIdenticalAcrossThreads) {
  common::Rng rng(43);
  const linalg::Matrix train = MakeShapeMatrix(600, 8, 2, rng);
  const std::vector<double> targets = LinearTargets(train, rng);
  auto fit_and_save = [&](const char* threads) {
    ScopedThreadsEnv env(threads);
    const RandomForestRegressor forest =
        FitForest(train, targets, 47, /*binned=*/true);
    std::ostringstream out;
    BBV_CHECK(forest.Save(out).ok());
    return out.str();
  };
  const std::string serial_bytes = fit_and_save("1");
  const std::string parallel_bytes = fit_and_save("8");
  EXPECT_EQ(serial_bytes, parallel_bytes);
}

TEST(ForestFastPathTest, FeatureBinningCodeCutContract) {
  common::Rng rng(53);
  for (size_t shape = 0; shape < kNumShapes; ++shape) {
    const linalg::Matrix features = MakeShapeMatrix(700, 3, shape, rng);
    const FeatureBinning binning = FeatureBinning::Build(features).value();
    ASSERT_EQ(binning.num_rows(), features.rows());
    ASSERT_EQ(binning.num_features(), features.cols());
    for (size_t f = 0; f < features.cols(); ++f) {
      const size_t num_cuts = binning.NumCuts(f);
      ASSERT_LE(num_cuts, FeatureBinning::kMaxCuts);
      const uint8_t* codes = binning.Codes(f);
      for (size_t i = 0; i < features.rows(); ++i) {
        const double value = features.At(i, f);
        const size_t code = codes[i];
        ASSERT_LE(code, num_cuts);
        // code(v) <= b  <=>  v <= CutValue(b): check both boundary sides.
        if (code > 0) {
          EXPECT_GT(value, binning.CutValue(f, code - 1))
              << "shape=" << shape << " f=" << f << " row=" << i;
        }
        if (code < num_cuts) {
          EXPECT_LE(value, binning.CutValue(f, code))
              << "shape=" << shape << " f=" << f << " row=" << i;
        }
      }
    }
  }
}

TEST(ForestFastPathTest, QuantizeValueSaturatesAndPreservesOrder) {
  EXPECT_EQ(ForestKernel::QuantizeValue(0.0), 0.0f);
  EXPECT_EQ(ForestKernel::QuantizeValue(1e300),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(ForestKernel::QuantizeValue(-1e300),
            -std::numeric_limits<float>::infinity());
  EXPECT_TRUE(std::isnan(ForestKernel::QuantizeValue(
      std::numeric_limits<double>::quiet_NaN())));
  // Round-to-nearest float of a representable double is that double.
  EXPECT_EQ(ForestKernel::QuantizeValue(0.5), 0.5f);
}

}  // namespace
}  // namespace bbv::ml
