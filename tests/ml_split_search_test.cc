// Contracts of the exact CART split search shared by RegressionTree,
// RandomForestRegressor, GradientBoostedTrees and DecisionTreeClassifier:
//  - golden bytes: the serialized models fitted on a tie-heavy matrix
//    (duplicated rows, a constant column, many-way value ties with distinct
//    targets, signed zeros, adjacent doubles whose midpoint rounds onto the
//    larger value, a block exactly min_samples_leaf wide) hash to pinned
//    FNV-1a values at BBV_THREADS 1 and 4. Any change to the search order,
//    the tie handling, the thresholds or the RNG draws moves a hash;
//  - a classifier split whose midpoint rounds onto the larger value leaves
//    the node a leaf, as the regression tree does;
//  - non-finite training inputs (NaN or +-inf in a feature or a target) are
//    rejected with InvalidArgument by every fit entry point, exact and
//    binned, instead of reaching a sort comparator or a CHECK.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/string_util.h"
#include "linalg/matrix.h"
#include "ml/decision_tree.h"
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

constexpr size_t kRows = 160;
constexpr size_t kCols = 9;
/// Rows [0, kOutlierRows) form a block exactly min_samples_leaf (3) wide at
/// the low end of column 6, carrying far larger targets.
constexpr size_t kOutlierRows = 3;

struct TieHeavyData {
  linalg::Matrix features;
  std::vector<double> targets;
  std::vector<int> labels;  // 3 classes bucketed from the targets
};

TieHeavyData MakeTieHeavyData() {
  common::Rng rng(2024);
  TieHeavyData data;
  data.features = linalg::Matrix(kRows, kCols);
  data.targets.resize(kRows);
  data.labels.resize(kRows);
  // Adjacent doubles with an odd last mantissa bit below: their midpoint
  // rounds onto the larger one, so in a node without 3.0 a split between
  // them sends every row left and the node must stay a leaf.
  const double low_adjacent = std::nextafter(1.0, 2.0);
  const double high_adjacent = std::nextafter(low_adjacent, 2.0);
  const double signed_values[] = {-0.0, 0.0, 1.0, -1.0};
  const size_t half = kRows / 2;
  for (size_t i = 0; i < half; ++i) {
    double* row = data.features.RowData(i);
    row[0] = 1.5;                                             // constant
    row[1] = static_cast<double>(rng.UniformInt(0, 2));       // 3-way ties
    row[2] = static_cast<double>(rng.UniformInt(0, 4)) / 4;  // 5-way ties
    row[3] = signed_values[rng.UniformInt(4)];                // +-0.0
    row[4] = std::round(rng.Uniform() * 64.0) / 64.0;
    row[5] = rng.UniformInt(3) == 0   ? 3.0
             : rng.UniformInt(2) == 0 ? low_adjacent
                                      : high_adjacent;
    row[6] = i < kOutlierRows ? -5.0 : rng.Uniform();
    row[7] = rng.Gaussian(0.0, 1.0);
    row[8] = static_cast<double>(rng.UniformInt(2));
    // Targets on a 1/10 grid: equal (value, target) pairs occur across
    // distinct rows as well as across duplicates, and (unlike a dyadic
    // grid) their sums round, so the summation order inside a value tie
    // shows in the bytes.
    const double raw = 0.3 * row[1] + row[2] + 0.5 * row[4] +
                       (row[5] > low_adjacent ? 0.25 : 0.0) +
                       (i < kOutlierRows ? 4.0 : 0.0) +
                       rng.Gaussian(0.0, 0.1);
    data.targets[i] = std::round(raw * 10.0) / 10.0;
  }
  // Second half duplicates the first: even rows exactly (features and
  // target), odd rows with the same features but a distinct target.
  for (size_t i = half; i < kRows; ++i) {
    const size_t source = i - half;
    for (size_t c = 0; c < kCols; ++c) {
      data.features.At(i, c) = data.features.At(source, c);
    }
    data.targets[i] = (i % 2 == 0) ? data.targets[source]
                                   : data.targets[source] + 0.3;
  }
  for (size_t i = 0; i < kRows; ++i) {
    const double t = data.targets[i];
    data.labels[i] = t < 0.9 ? 0 : (t < 1.6 ? 1 : 2);
  }
  return data;
}

uint64_t ForestHash(const TieHeavyData& data, bool binned) {
  RandomForestRegressor::Options options;
  options.num_trees = 24;
  options.tree.max_depth = 8;
  options.tree.min_samples_leaf = 3;
  options.tree.feature_fraction = 0.33;
  options.tree.binned_split_search = binned;
  RandomForestRegressor forest(options);
  common::Rng rng(17);
  EXPECT_TRUE(forest.Fit(data.features, data.targets, rng).ok());
  std::ostringstream out;
  EXPECT_TRUE(forest.Save(out).ok());
  return common::Fnv1aHash(out.str());
}

uint64_t BoostedHash(const TieHeavyData& data) {
  GradientBoostedTrees::Options options;
  options.num_rounds = 8;
  options.subsample = 0.8;
  options.tree.min_samples_leaf = 3;
  GradientBoostedTrees gbt(options);
  common::Rng rng(23);
  EXPECT_TRUE(gbt.Fit(data.features, data.labels, 3, rng).ok());
  std::ostringstream out;
  EXPECT_TRUE(gbt.Save(out).ok());
  return common::Fnv1aHash(out.str());
}

uint64_t StandaloneTreeHash(const TieHeavyData& data) {
  // A row subset with repeated ids, as a bootstrap sample would draw it.
  std::vector<size_t> rows;
  for (size_t i = 0; i < kRows; i += 3) rows.push_back(i);
  for (size_t i = 0; i < kRows; i += 7) rows.push_back(i);
  rows.push_back(1);
  rows.push_back(1);
  TreeOptions options;
  options.max_depth = 7;
  options.min_samples_leaf = 3;
  options.feature_fraction = 0.5;
  RegressionTree tree(options);
  common::Rng rng(29);
  EXPECT_TRUE(tree.Fit(data.features, data.targets, rows, rng).ok());
  common::BinaryWriter writer;
  tree.Save(writer);
  return common::Fnv1aHash(writer.bytes());
}

uint64_t ClassifierHash(TieHeavyData data) {
  // The pinned bytes come from the per-node sorting search, whose
  // classifier grew an empty child from a rounded midpoint (a leaf now, see
  // RoundedMidpointKeepsClassifierLeaf). This fit therefore moves column
  // 5's adjacent doubles apart, to 1 and 2.
  const double low_adjacent = std::nextafter(1.0, 2.0);
  for (size_t i = 0; i < kRows; ++i) {
    double& value = data.features.At(i, 5);
    if (value < 3.0) value = value == low_adjacent ? 1.0 : 2.0;
  }
  TreeOptions options;
  options.max_depth = 6;
  options.min_samples_leaf = 3;
  options.feature_fraction = 0.6;
  DecisionTreeClassifier tree(options);
  common::Rng rng(31);
  EXPECT_TRUE(tree.Fit(data.features, data.labels, 3, rng).ok());
  std::ostringstream out;
  EXPECT_TRUE(tree.Save(out).ok());
  return common::Fnv1aHash(out.str());
}

// Pinned from the per-node sorting search (one sort of the node's
// (value, target) pairs per candidate feature); the presorted search must
// grow byte-identical trees.
constexpr uint64_t kForestHash = 12563239334578443461ULL;
constexpr uint64_t kBinnedForestHash = 533796739572180108ULL;
constexpr uint64_t kBoostedHash = 18070082712437361717ULL;
constexpr uint64_t kStandaloneTreeHash = 10833710404167941278ULL;
constexpr uint64_t kClassifierHash = 2235487104287739836ULL;

class SplitSearchGoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SplitSearchGoldenTest, SavedBytesMatchPinnedHashes) {
  const ScopedThreadsEnv threads(GetParam());
  const TieHeavyData data = MakeTieHeavyData();
  EXPECT_EQ(ForestHash(data, /*binned=*/false), kForestHash);
  EXPECT_EQ(ForestHash(data, /*binned=*/true), kBinnedForestHash);
  EXPECT_EQ(BoostedHash(data), kBoostedHash);
  EXPECT_EQ(StandaloneTreeHash(data), kStandaloneTreeHash);
  EXPECT_EQ(ClassifierHash(data), kClassifierHash);
}

INSTANTIATE_TEST_SUITE_P(Threads, SplitSearchGoldenTest,
                         ::testing::Values("1", "4"));

TEST(SplitSearchTest, RoundedMidpointKeepsClassifierLeaf) {
  // Column 0 holds two adjacent doubles whose midpoint rounds onto the
  // larger one, and the label follows it; column 1 is constant. The only
  // candidate split sends every row left, so the root must stay a leaf
  // instead of growing an empty child with NaN class frequencies.
  const double low = std::nextafter(1.0, 2.0);
  const double high = std::nextafter(low, 2.0);
  linalg::Matrix features(40, 2);
  std::vector<int> labels(40);
  for (size_t i = 0; i < 40; ++i) {
    features.At(i, 0) = i % 2 == 0 ? low : high;
    features.At(i, 1) = 7.0;
    labels[i] = static_cast<int>(i % 2);
  }
  TreeOptions options;
  options.min_samples_leaf = 1;
  DecisionTreeClassifier tree(options);
  common::Rng rng(37);
  ASSERT_TRUE(tree.Fit(features, labels, 2, rng).ok());
  const linalg::Matrix probe = linalg::Matrix::FromRows({{5.0, 7.0}});
  const linalg::Matrix probabilities = tree.PredictProba(probe);
  EXPECT_DOUBLE_EQ(probabilities.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(probabilities.At(0, 1), 0.5);
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Fits every entry point on `data` with the exact or the binned search
/// and expects each to return InvalidArgument. `regression_only` skips the
/// classifiers, whose integer labels cannot carry a non-finite target.
void ExpectEveryFitRejects(const TieHeavyData& data, bool binned,
                           bool regression_only) {
  const auto invalid = common::StatusCode::kInvalidArgument;
  TreeOptions tree_options;
  tree_options.binned_split_search = binned;
  {
    RegressionTree tree(tree_options);
    common::Rng rng(1);
    EXPECT_EQ(tree.Fit(data.features, data.targets, rng).code(), invalid);
  }
  {
    // A subset with repeats that still reaches the bad row (row 37).
    const std::vector<size_t> rows = {3, 37, 37, 90, 5, 120};
    RegressionTree tree(tree_options);
    common::Rng rng(2);
    EXPECT_EQ(tree.Fit(data.features, data.targets, rows, rng).code(),
              invalid);
  }
  {
    RandomForestRegressor::Options options;
    options.num_trees = 4;
    options.tree.binned_split_search = binned;
    RandomForestRegressor forest(options);
    common::Rng rng(3);
    EXPECT_EQ(forest.Fit(data.features, data.targets, rng).code(), invalid);
  }
  if (regression_only) return;
  {
    GradientBoostedTrees::Options options;
    options.num_rounds = 2;
    options.tree.binned_split_search = binned;
    GradientBoostedTrees gbt(options);
    common::Rng rng(4);
    EXPECT_EQ(gbt.Fit(data.features, data.labels, 3, rng).code(), invalid);
  }
  {
    DecisionTreeClassifier tree(tree_options);
    common::Rng rng(5);
    EXPECT_EQ(tree.Fit(data.features, data.labels, 3, rng).code(), invalid);
  }
}

class NonFiniteInputTest : public ::testing::TestWithParam<bool> {};

TEST_P(NonFiniteInputTest, FeatureValueIsRejected) {
  for (const double bad : {kNaN, kInf, -kInf}) {
    TieHeavyData data = MakeTieHeavyData();
    data.features.At(37, 4) = bad;
    ExpectEveryFitRejects(data, /*binned=*/GetParam(),
                          /*regression_only=*/false);
  }
}

TEST_P(NonFiniteInputTest, TargetIsRejected) {
  for (const double bad : {kNaN, kInf, -kInf}) {
    TieHeavyData data = MakeTieHeavyData();
    data.targets[37] = bad;
    ExpectEveryFitRejects(data, /*binned=*/GetParam(),
                          /*regression_only=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(Search, NonFiniteInputTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "Binned" : "Exact";
                         });

}  // namespace
}  // namespace bbv::ml
