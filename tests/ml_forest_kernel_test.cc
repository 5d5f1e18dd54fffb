#include "ml/forest_kernel.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/random_forest.h"

namespace bbv::ml {
namespace {

/// Scoped BBV_THREADS override (mirrors the helper in the parallel tests):
/// the determinism contract demands bit-identical results at every setting.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* previous = std::getenv("BBV_THREADS");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
    if (value == nullptr) {
      ::unsetenv("BBV_THREADS");
    } else {
      ::setenv("BBV_THREADS", value, 1);
    }
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

linalg::Matrix MakeFeatures(size_t n, size_t cols, common::Rng& rng) {
  linalg::Matrix features(n, cols);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      features.At(i, j) = rng.Uniform(0.0, 1.0);
    }
  }
  return features;
}

std::vector<double> MakeTargets(const linalg::Matrix& features,
                                common::Rng& rng) {
  std::vector<double> targets(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    targets[i] = 2.0 * features.At(i, 0) - features.At(i, 1) +
                 rng.Gaussian(0.0, 0.1);
  }
  return targets;
}

/// Legacy reference: the scalar node walk the kernel replaced, recomputed
/// from the fitted trees in the exact floating-point order the old
/// RandomForestRegressor::Predict used (sum in tree order, divide once).
std::vector<double> LegacyForestPredict(const RandomForestRegressor& forest,
                                        const linalg::Matrix& features) {
  std::vector<double> result(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    double sum = 0.0;
    for (const RegressionTree& tree : forest.trees()) {
      // Deliberate legacy per-row reference.
      // bbv-lint: allow(batch-api) the kernel is validated against this
      sum += tree.PredictRow(features.RowData(i));
    }
    result[i] = sum / static_cast<double>(forest.trees().size());
  }
  return result;
}

/// Legacy reference for the boosted classifier: per-row strided score
/// accumulation (before the shared softmax), row-major rows x classes.
linalg::Matrix LegacyGbtScores(const GradientBoostedTrees& model,
                               const linalg::Matrix& features) {
  const auto m = static_cast<size_t>(model.num_classes());
  linalg::Matrix scores(features.rows(), m);
  for (size_t i = 0; i < features.rows(); ++i) {
    const double* row = features.RowData(i);
    double* out = scores.RowData(i);
    for (size_t k = 0; k < m; ++k) out[k] = model.base_scores()[k];
    for (size_t t = 0; t < model.trees().size(); ++t) {
      // Deliberate legacy per-row reference.
      // bbv-lint: allow(batch-api) the kernel is validated against this
      out[t % m] += model.learning_rate() * model.trees()[t].PredictRow(row);
    }
  }
  return scores;
}

/// The kernel's strided accumulation from the base scores, in the layout
/// of LegacyGbtScores.
std::vector<double> KernelGbtScores(const GradientBoostedTrees& model,
                                    const linalg::Matrix& features) {
  const auto m = static_cast<size_t>(model.num_classes());
  std::vector<double> scores(features.rows() * m);
  for (size_t i = 0; i < features.rows(); ++i) {
    for (size_t k = 0; k < m; ++k) scores[i * m + k] = model.base_scores()[k];
  }
  model.kernel().AccumulateInto(features, model.learning_rate(), m, scores);
  return scores;
}

/// Bitwise equality (stricter than ==, which conflates -0.0 and 0.0).
bool BytesEqual(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Ensembles above the kernel's 32 KB compact cut take the lockstep walk.
constexpr size_t kCompactBytes = 32 * 1024;

/// A random forest deep and wide enough to take the lockstep walk.
RandomForestRegressor FitLargeForest(uint64_t seed) {
  common::Rng rng(seed);
  const linalg::Matrix train = MakeFeatures(400, 6, rng);
  const std::vector<double> targets = MakeTargets(train, rng);
  RandomForestRegressor::Options options;
  options.num_trees = 40;
  RandomForestRegressor forest(options);
  BBV_CHECK(forest.Fit(train, targets, rng).ok());
  BBV_CHECK(forest.kernel().footprint_bytes() > kCompactBytes);
  return forest;
}

/// A 3-class boosted ensemble (20 rounds x 3 trees of depth up to 8) large
/// enough to take the lockstep walk with stride 3.
GradientBoostedTrees FitLargeBoostedEnsemble(uint64_t seed) {
  common::Rng rng(seed);
  const linalg::Matrix train = MakeFeatures(600, 6, rng);
  std::vector<int> labels(train.rows());
  for (size_t i = 0; i < train.rows(); ++i) {
    const double margin = train.At(i, 0) + train.At(i, 1) +
                          rng.Gaussian(0.0, 0.3);
    labels[i] = margin > 1.2 ? 2 : (margin > 0.8 ? 1 : 0);
  }
  GradientBoostedTrees::Options options;
  options.num_rounds = 20;
  options.tree.max_depth = 8;
  options.tree.min_samples_leaf = 2;
  GradientBoostedTrees model(options);
  BBV_CHECK(model.Fit(train, labels, 3, rng).ok());
  BBV_CHECK(model.kernel().footprint_bytes() > kCompactBytes);
  return model;
}

/// One draw from the input shapes the serving layer sees: smooth,
/// tail-concentrated, heavily tied, constant, and smooth with a fifth of
/// the entries NaN (the walk sends NaN right at every split).
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
    case 3:
      return 0.75;
    default:
      return rng.Uniform() < 0.2 ? std::numeric_limits<double>::quiet_NaN()
                                 : rng.Uniform();
  }
}

constexpr size_t kNumShapes = 5;

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

/// Row counts covering every lane-group width (1-8 rows alone, 9-17 with
/// a full group before them), both sides of the 64-row tile and a
/// one-row tile tail.
std::vector<size_t> LaneAndTileRowCounts() {
  std::vector<size_t> counts;
  for (size_t rows = 1; rows <= 17; ++rows) counts.push_back(rows);
  for (const size_t rows : {size_t{63}, size_t{64}, size_t{65}, size_t{257}}) {
    counts.push_back(rows);
  }
  return counts;
}

TEST(ForestKernelTest, CompileFlattensEveryNode) {
  common::Rng rng(17);
  const linalg::Matrix features = MakeFeatures(200, 4, rng);
  const std::vector<double> targets = MakeTargets(features, rng);
  RandomForestRegressor::Options options;
  options.num_trees = 5;
  RandomForestRegressor forest(options);
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());
  const ForestKernel& kernel = forest.kernel();
  ASSERT_FALSE(kernel.empty());
  EXPECT_EQ(kernel.num_trees(), 5u);
  size_t nodes_total = 0;
  for (const RegressionTree& tree : forest.trees()) {
    nodes_total += tree.NumNodes();
  }
  EXPECT_EQ(kernel.num_internal_nodes() + kernel.num_leaves(), nodes_total);
  // A binary tree has one more leaf than internal node, per tree.
  EXPECT_EQ(kernel.num_leaves(), kernel.num_internal_nodes() + 5);
  EXPECT_GE(kernel.max_feature(), 0);
  EXPECT_LT(kernel.max_feature(), 4);
}

TEST(ForestKernelTest, ForestPredictionsBitIdenticalToLegacyNodeWalk) {
  // The kernel is a pure re-layout: for every (depth, tree-count) config the
  // tiled traversal must reproduce the scalar node walk bit for bit, exact
  // floating-point equality, no tolerance.
  common::Rng rng(29);
  const linalg::Matrix train = MakeFeatures(300, 5, rng);
  const std::vector<double> targets = MakeTargets(train, rng);
  const linalg::Matrix serving = MakeFeatures(257, 5, rng);  // ragged tile
  for (int depth : {3, 10}) {
    for (int num_trees : {1, 7, 40}) {
      RandomForestRegressor::Options options;
      options.num_trees = num_trees;
      options.tree.max_depth = depth;
      RandomForestRegressor forest(options);
      common::Rng fit_rng(1000 + static_cast<uint64_t>(depth) * 100 +
                          static_cast<uint64_t>(num_trees));
      ASSERT_TRUE(forest.Fit(train, targets, fit_rng).ok());
      const std::vector<double> kernel_predictions = forest.Predict(serving);
      const std::vector<double> legacy_predictions =
          LegacyForestPredict(forest, serving);
      ASSERT_EQ(kernel_predictions.size(), legacy_predictions.size());
      for (size_t i = 0; i < kernel_predictions.size(); ++i) {
        EXPECT_EQ(kernel_predictions[i], legacy_predictions[i])
            << "depth " << depth << ", trees " << num_trees << ", row " << i;
      }
      // A single feature vector is a one-row batch; a row's prediction
      // must not depend on the tile it shares with other rows.
      for (size_t i = 0; i < serving.rows(); ++i) {
        EXPECT_EQ(forest.Predict(serving.SelectRows({i})).front(),
                  legacy_predictions[i]);
      }
    }
  }
}

TEST(ForestKernelTest, BoostedProbabilitiesBitIdenticalToLegacyNodeWalk) {
  common::Rng rng(31);
  const linalg::Matrix train = MakeFeatures(240, 4, rng);
  std::vector<int> labels(train.rows());
  for (size_t i = 0; i < train.rows(); ++i) {
    labels[i] = train.At(i, 0) + train.At(i, 1) > 1.0 ? 1 : (i % 3 == 0 ? 2 : 0);
  }
  const linalg::Matrix serving = MakeFeatures(130, 4, rng);
  GradientBoostedTrees::Options options;
  options.num_rounds = 8;
  GradientBoostedTrees model(options);
  ASSERT_TRUE(model.Fit(train, labels, 3, rng).ok());
  const linalg::Matrix kernel_probabilities = model.PredictProba(serving);
  const linalg::Matrix legacy_probabilities =
      linalg::Softmax(LegacyGbtScores(model, serving));
  ASSERT_EQ(kernel_probabilities.rows(), legacy_probabilities.rows());
  ASSERT_EQ(kernel_probabilities.cols(), legacy_probabilities.cols());
  for (size_t i = 0; i < kernel_probabilities.rows(); ++i) {
    for (size_t k = 0; k < kernel_probabilities.cols(); ++k) {
      EXPECT_EQ(kernel_probabilities.At(i, k), legacy_probabilities.At(i, k))
          << "row " << i << ", class " << k;
    }
  }
}

TEST(ForestKernelTest, PredictionsAndSavedBytesThreadCountInvariant) {
  common::Rng data_rng(37);
  const linalg::Matrix train = MakeFeatures(400, 4, data_rng);
  const std::vector<double> targets = MakeTargets(train, data_rng);
  const linalg::Matrix serving = MakeFeatures(1000, 4, data_rng);
  auto run = [&](const char* threads) {
    ScopedThreadsEnv env(threads);
    common::Rng rng(99);
    RandomForestRegressor forest;
    BBV_CHECK(forest.Fit(train, targets, rng).ok());
    std::ostringstream out;
    BBV_CHECK(forest.Save(out).ok());
    return std::make_pair(forest.Predict(serving), out.str());
  };
  const auto [single_predictions, single_bytes] = run("1");
  const auto [parallel_predictions, parallel_bytes] = run("8");
  EXPECT_EQ(single_predictions, parallel_predictions);
  EXPECT_EQ(single_bytes, parallel_bytes);
}

TEST(ForestKernelTest, LockstepWalkMatchesLegacyAtEveryLaneGroupWidth) {
  // Every lane-group width, the narrow tails that walk node by node, and
  // tile boundaries, for both entry points: the forest's mean and the
  // boosted ensemble's stride-3 accumulation, bit for bit.
  const RandomForestRegressor forest = FitLargeForest(51);
  const GradientBoostedTrees boosted = FitLargeBoostedEnsemble(53);
  common::Rng rng(55);
  for (const size_t rows : LaneAndTileRowCounts()) {
    const linalg::Matrix serving = MakeFeatures(rows, 6, rng);
    EXPECT_TRUE(BytesEqual(forest.Predict(serving),
                           LegacyForestPredict(forest, serving)))
        << "forest, rows=" << rows;
    EXPECT_TRUE(BytesEqual(KernelGbtScores(boosted, serving),
                           LegacyGbtScores(boosted, serving).data()))
        << "boosted, rows=" << rows;
  }
}

TEST(ForestKernelTest, LockstepWalkMatchesLegacyOnServingShapedInputs) {
  // Edge-concentrated, heavily tied, constant and NaN-laced inputs, scored
  // by ensembles fit on smooth data and by forests fit on each shape
  // itself (on constant data that forest is all leaves and compact).
  const RandomForestRegressor forest = FitLargeForest(57);
  const GradientBoostedTrees boosted = FitLargeBoostedEnsemble(59);
  common::Rng rng(61);
  for (size_t shape = 0; shape < kNumShapes; ++shape) {
    const linalg::Matrix serving = MakeShapeMatrix(333, 6, shape, rng);
    EXPECT_TRUE(BytesEqual(forest.Predict(serving),
                           LegacyForestPredict(forest, serving)))
        << "shape=" << shape;
    EXPECT_TRUE(BytesEqual(KernelGbtScores(boosted, serving),
                           LegacyGbtScores(boosted, serving).data()))
        << "shape=" << shape;
    if (shape == kNumShapes - 1) continue;  // no NaN in training data
    const linalg::Matrix train = MakeShapeMatrix(500, 6, shape, rng);
    const std::vector<double> targets = MakeTargets(train, rng);
    RandomForestRegressor::Options options;
    options.num_trees = 30;
    RandomForestRegressor own(options);
    ASSERT_TRUE(own.Fit(train, targets, rng).ok());
    EXPECT_TRUE(
        BytesEqual(own.Predict(serving), LegacyForestPredict(own, serving)))
        << "own forest, shape=" << shape;
  }
}

TEST(ForestKernelTest, LockstepWalkIsThreadCountIndependent) {
  const RandomForestRegressor forest = FitLargeForest(63);
  const GradientBoostedTrees boosted = FitLargeBoostedEnsemble(65);
  common::Rng rng(67);
  // Enough rows for several 64-row tiles per thread.
  const linalg::Matrix serving = MakeFeatures(1000, 6, rng);
  auto run = [&](const char* threads) {
    ScopedThreadsEnv env(threads);
    return std::make_pair(forest.Predict(serving),
                          KernelGbtScores(boosted, serving));
  };
  const auto [serial_forest, serial_boosted] = run("1");
  const auto [parallel_forest, parallel_boosted] = run("8");
  EXPECT_TRUE(BytesEqual(serial_forest, parallel_forest));
  EXPECT_TRUE(BytesEqual(serial_boosted, parallel_boosted));
}

TEST(ForestKernelTest, KernelRecompiledAfterLoad) {
  common::Rng rng(41);
  const linalg::Matrix train = MakeFeatures(200, 3, rng);
  const std::vector<double> targets = MakeTargets(train, rng);
  const linalg::Matrix serving = MakeFeatures(150, 3, rng);
  RandomForestRegressor::Options options;
  options.num_trees = 12;
  RandomForestRegressor forest(options);
  ASSERT_TRUE(forest.Fit(train, targets, rng).ok());
  std::stringstream stream;
  ASSERT_TRUE(forest.Save(stream).ok());
  auto loaded = RandomForestRegressor::Load(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->kernel().empty());
  EXPECT_EQ(loaded->kernel().num_trees(), 12u);
  EXPECT_EQ(loaded->Predict(serving), forest.Predict(serving));
}

TEST(ForestKernelTest, SingleLeafEnsembleHandled) {
  // Constant targets collapse every tree to one leaf; the sign-encoded root
  // must carry the leaf payload without any internal node to traverse.
  common::Rng rng(43);
  const linalg::Matrix features = MakeFeatures(50, 2, rng);
  const std::vector<double> targets(features.rows(), 0.75);
  RandomForestRegressor::Options options;
  options.num_trees = 3;
  RandomForestRegressor forest(options);
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());
  EXPECT_EQ(forest.kernel().num_internal_nodes(), 0u);
  EXPECT_EQ(forest.kernel().num_leaves(), 3u);
  EXPECT_EQ(forest.kernel().max_feature(), -1);
  for (double prediction : forest.Predict(features)) {
    EXPECT_EQ(prediction, 0.75);
  }
}

TEST(ForestKernelDeathTest, RejectsMisSizedOutputAndColumns) {
  common::Rng rng(47);
  const linalg::Matrix features = MakeFeatures(60, 3, rng);
  const std::vector<double> targets = MakeTargets(features, rng);
  RandomForestRegressor forest;
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());
  std::vector<double> short_output(features.rows() - 1);
  EXPECT_DEATH(forest.PredictInto(features, short_output), "Check failed");
  const linalg::Matrix narrow = MakeFeatures(10, 1, rng);
  std::vector<double> output(narrow.rows());
  EXPECT_DEATH(forest.PredictInto(narrow, output), "columns");
}

}  // namespace
}  // namespace bbv::ml
