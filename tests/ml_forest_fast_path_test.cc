// Property tests for the opt-in histogram-binned split search. The
// contracts under test:
//  - binned training keeps regression quality within a sliver of the exact
//    search for every input shape the serving layer sees (uniform,
//    edge-concentrated, heavily tied, constant);
//  - binned forests are thread-count independent (byte-identical
//    serialized models at BBV_THREADS 1 vs 8);
//  - FeatureBinning's code/cut contract: code(v) <= b  <=>  v <= CutValue(b).

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "ml/feature_binning.h"
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

}  // namespace
}  // namespace bbv::ml
