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
//    binned, instead of reaching a sort comparator or a CHECK;
//  - the three-pass regression scan grows the trees of a reference oracle,
//    the per-position scan with a branch per position it replaced, byte for
//    byte, across the min_samples_leaf edges of its cut window, tie-heavy
//    and node-constant columns, degenerate targets and bootstrap
//    duplicates;
//  - out-of-range fraction options (NaN, infinite or negative, or a sample
//    too large for uint32 row ids) get InvalidArgument before any tree is
//    fit, and the in-range values that worked before keep their bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
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
// Pinned from the fits before the option check existed (see
// FitOptionsTest.ZeroFractionsKeepTheirBytes).
constexpr uint64_t kZeroFractionForestHash = 5913387085692638477ULL;
constexpr uint64_t kZeroFractionBoostedHash = 506789065333918884ULL;

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

/// Reference oracle of the exact regression search, kept only to prove the
/// three-pass scan against: per node and candidate feature, it sorts the
/// node's (value, target) pairs and runs the per-position scan with a
/// branch per position that the three-pass scan replaced. It grows nodes in
/// RegressionTree::Grow's order with its RNG draws and writes
/// RegressionTree::Save's layout.
class OracleTree {
 public:
  OracleTree(const linalg::Matrix& features,
             const std::vector<double>& targets, TreeOptions options)
      : features_(features), targets_(targets), options_(options) {}

  /// Grows the tree on `rows` (ids may repeat) and appends its Save bytes.
  void FitAndSave(std::vector<size_t> rows, common::Rng& rng,
                  common::BinaryWriter& writer) {
    nodes_.clear();
    Grow(rows, 0, rows.size(), 0, rng);
    std::vector<int32_t> features;
    std::vector<int32_t> lefts;
    std::vector<int32_t> rights;
    std::vector<double> thresholds;
    std::vector<double> values;
    for (const RegressionTree::Node& node : nodes_) {
      features.push_back(node.feature);
      lefts.push_back(node.left);
      rights.push_back(node.right);
      thresholds.push_back(node.threshold);
      values.push_back(node.value);
    }
    writer.WriteInt32Vector(features);
    writer.WriteInt32Vector(lefts);
    writer.WriteInt32Vector(rights);
    writer.WriteDoubleVector(thresholds);
    writer.WriteDoubleVector(values);
  }

 private:
  std::vector<size_t> CandidateFeatures(common::Rng& rng) const {
    const size_t d = features_.cols();
    if (options_.feature_fraction >= 1.0) {
      std::vector<size_t> all(d);
      std::iota(all.begin(), all.end(), 0);
      return all;
    }
    const size_t k = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(options_.feature_fraction *
                                         static_cast<double>(d))));
    return rng.SampleWithoutReplacement(d, k);
  }

  int32_t Grow(std::vector<size_t>& rows, size_t begin, size_t end, int depth,
               common::Rng& rng) {
    const size_t count = end - begin;
    double sum = 0.0;
    double sum_squares = 0.0;
    for (size_t i = begin; i < end; ++i) {
      const double t = targets_[rows[i]];
      sum += t;
      sum_squares += t * t;
    }
    const double n = static_cast<double>(count);
    const double node_sse = sum_squares - sum * sum / n;
    const auto node_id = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_.back().value = sum / n;
    if (depth >= options_.max_depth ||
        count < 2 * options_.min_samples_leaf || node_sse <= 0.0) {
      return node_id;
    }
    bool found = false;
    size_t best_feature = 0;
    double best_threshold = 0.0;
    double best_gain = 0.0;
    std::vector<std::pair<double, double>> pairs(count);
    for (size_t feature : CandidateFeatures(rng)) {
      for (size_t i = 0; i < count; ++i) {
        const size_t row = rows[begin + i];
        pairs[i] = {features_.At(row, feature), targets_[row]};
      }
      std::sort(pairs.begin(), pairs.end());
      if (!(pairs[0].first < pairs[count - 1].first)) continue;
      double left_sum = 0.0;
      double left_sum_squares = 0.0;
      for (size_t i = 0; i + 1 < count; ++i) {
        left_sum += pairs[i].second;
        left_sum_squares += pairs[i].second * pairs[i].second;
        const double current = pairs[i].first;
        const double value = pairs[i + 1].first;
        if (current == value) continue;
        const size_t left_count = i + 1;
        const size_t right_count = count - left_count;
        if (left_count < options_.min_samples_leaf ||
            right_count < options_.min_samples_leaf) {
          continue;
        }
        const double nl = static_cast<double>(left_count);
        const double nr = static_cast<double>(right_count);
        const double right_sum = sum - left_sum;
        const double right_sum_squares = sum_squares - left_sum_squares;
        const double left_sse = left_sum_squares - left_sum * left_sum / nl;
        const double right_sse =
            right_sum_squares - right_sum * right_sum / nr;
        const double gain = node_sse - left_sse - right_sse;
        if (gain > best_gain) {
          found = true;
          best_feature = feature;
          best_threshold = 0.5 * (current + value);
          best_gain = gain;
        }
      }
    }
    if (!found || best_gain < options_.min_impurity_decrease) return node_id;
    const auto middle = std::partition(
        rows.begin() + static_cast<ptrdiff_t>(begin),
        rows.begin() + static_cast<ptrdiff_t>(end), [&](size_t row) {
          return features_.At(row, best_feature) <= best_threshold;
        });
    const auto split = static_cast<size_t>(middle - rows.begin());
    if (split == begin || split == end) return node_id;
    nodes_[static_cast<size_t>(node_id)].feature =
        static_cast<int32_t>(best_feature);
    nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
    const int32_t left = Grow(rows, begin, split, depth + 1, rng);
    nodes_[static_cast<size_t>(node_id)].left = left;
    const int32_t right = Grow(rows, split, end, depth + 1, rng);
    nodes_[static_cast<size_t>(node_id)].right = right;
    return node_id;
  }

  const linalg::Matrix& features_;
  const std::vector<double>& targets_;
  TreeOptions options_;
  std::vector<RegressionTree::Node> nodes_;
};

constexpr size_t kOracleRows = 120;

enum class TargetShape { kSignal, kNegative, kAllEqual };

struct OracleData {
  linalg::Matrix features;
  std::vector<double> targets;
};

/// Columns: 0 distinct uniform values, 1-5 with 2, 3, 5, 8 and 16 distinct
/// values, 6 globally constant, 7 constant on the rows where column 0 is
/// below 0.5 (so in every node that holds only those rows), 8 Gaussian.
/// The lowest and the highest value of column 0 carry outlier targets, so
/// the best cut of a node holding them sits at the edge of the
/// min_samples_leaf window.
OracleData MakeOracleData(TargetShape shape) {
  common::Rng rng(404);
  OracleData data;
  data.features = linalg::Matrix(kOracleRows, 9);
  data.targets.resize(kOracleRows);
  const size_t levels[] = {2, 3, 5, 8, 16};
  for (size_t i = 0; i < kOracleRows; ++i) {
    double* row = data.features.RowData(i);
    row[0] = rng.Uniform();
    for (size_t c = 0; c < 5; ++c) {
      row[c + 1] = static_cast<double>(rng.UniformInt(levels[c]));
    }
    row[6] = -2.5;
    row[7] = row[0] < 0.5 ? 7.0 : static_cast<double>(rng.UniformInt(4));
    row[8] = rng.Gaussian(0.0, 1.0);
    data.targets[i] = row[0] + 0.2 * row[2] - 0.1 * row[5] +
                      0.3 * row[7] + rng.Gaussian(0.0, 0.2);
  }
  size_t low = 0;
  size_t high = 0;
  for (size_t i = 1; i < kOracleRows; ++i) {
    if (data.features.At(i, 0) < data.features.At(low, 0)) low = i;
    if (data.features.At(i, 0) > data.features.At(high, 0)) high = i;
  }
  data.targets[low] = -6.0;
  data.targets[high] = 9.0;
  for (double& target : data.targets) {
    if (shape == TargetShape::kNegative) target -= 12.0;
    if (shape == TargetShape::kAllEqual) target = 0.375;
  }
  return data;
}

std::string SavedTreeBytes(const RegressionTree& tree) {
  common::BinaryWriter writer;
  tree.Save(writer);
  return writer.bytes();
}

class ScanOracleTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ScanOracleTest, TreesAndForestsMatchTheReferenceScan) {
  const ScopedThreadsEnv threads(GetParam());
  // Every row once plus repeats, as a bootstrap sample draws them.
  std::vector<size_t> rows(kOracleRows);
  std::iota(rows.begin(), rows.end(), 0);
  for (size_t i = 0; i < kOracleRows; i += 3) rows.push_back(i);
  for (size_t i = 0; i < kOracleRows; i += 11) rows.push_back(i);
  const size_t half = rows.size() / 2;
  for (const TargetShape shape :
       {TargetShape::kSignal, TargetShape::kNegative, TargetShape::kAllEqual}) {
    const OracleData data = MakeOracleData(shape);
    for (const size_t min_samples_leaf :
         {size_t{0}, size_t{1}, size_t{2}, size_t{5}, half, half + 1}) {
      for (const double feature_fraction : {0.33, 1.0}) {
        SCOPED_TRACE(::testing::Message()
                     << "shape " << static_cast<int>(shape)
                     << " min_samples_leaf " << min_samples_leaf
                     << " feature_fraction " << feature_fraction);
        TreeOptions options;
        options.max_depth = 9;
        options.min_samples_leaf = min_samples_leaf;
        options.feature_fraction = feature_fraction;

        RegressionTree tree(options);
        common::Rng tree_rng(61);
        ASSERT_TRUE(
            tree.Fit(data.features, data.targets, rows, tree_rng).ok());
        common::BinaryWriter oracle_tree;
        common::Rng oracle_tree_rng(61);
        OracleTree(data.features, data.targets, options)
            .FitAndSave(rows, oracle_tree_rng, oracle_tree);
        EXPECT_EQ(SavedTreeBytes(tree), oracle_tree.bytes());

        RandomForestRegressor::Options forest_options;
        forest_options.num_trees = 6;
        forest_options.tree = options;
        RandomForestRegressor forest(forest_options);
        common::Rng forest_rng(67);
        ASSERT_TRUE(forest.Fit(data.features, data.targets, forest_rng).ok());
        common::BinaryWriter saved_forest;
        ASSERT_TRUE(forest.Save(saved_forest).ok());
        // RandomForestRegressor::Fit's bootstrap draws, forest record
        // layout and tree order.
        common::BinaryWriter oracle_forest;
        oracle_forest.WriteMagic("BBVRF", 1);
        oracle_forest.WriteUint64(6);
        common::Rng oracle_forest_rng(67);
        for (common::Rng& stream : oracle_forest_rng.ForkStreams(6)) {
          std::vector<size_t> bootstrap(kOracleRows);
          for (size_t& row : bootstrap) row = stream.UniformInt(kOracleRows);
          OracleTree(data.features, data.targets, options)
              .FitAndSave(std::move(bootstrap), stream, oracle_forest);
        }
        EXPECT_EQ(saved_forest.bytes(), oracle_forest.bytes());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ScanOracleTest,
                         ::testing::Values("1", "4"));

/// Fits a regression tree, a forest, a boosted ensemble and a classifier
/// with `feature_fraction` and returns the status codes.
std::vector<common::StatusCode> FeatureFractionFits(double feature_fraction) {
  const TieHeavyData data = MakeTieHeavyData();
  std::vector<common::StatusCode> codes;
  TreeOptions tree_options;
  tree_options.feature_fraction = feature_fraction;
  common::Rng rng(7);
  codes.push_back(
      RegressionTree(tree_options).Fit(data.features, data.targets, rng).code());
  RandomForestRegressor::Options forest_options;
  forest_options.num_trees = 3;
  forest_options.tree.feature_fraction = feature_fraction;
  codes.push_back(RandomForestRegressor(forest_options)
                      .Fit(data.features, data.targets, rng)
                      .code());
  GradientBoostedTrees::Options boosted_options;
  boosted_options.num_rounds = 2;
  boosted_options.tree.feature_fraction = feature_fraction;
  codes.push_back(GradientBoostedTrees(boosted_options)
                      .Fit(data.features, data.labels, 3, rng)
                      .code());
  codes.push_back(DecisionTreeClassifier(tree_options)
                      .Fit(data.features, data.labels, 3, rng)
                      .code());
  return codes;
}

TEST(FitOptionsTest, OutOfRangeFeatureFractionIsRejected) {
  const auto invalid = common::StatusCode::kInvalidArgument;
  for (const double bad : {kNaN, kInf, -kInf, -0.5}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(FeatureFractionFits(bad),
              std::vector<common::StatusCode>(4, invalid));
  }
}

TEST(FitOptionsTest, OutOfRangeSubsampleIsRejected) {
  const TieHeavyData data = MakeTieHeavyData();
  for (const double bad : {kNaN, kInf, -kInf, -1.0}) {
    SCOPED_TRACE(bad);
    GradientBoostedTrees::Options options;
    options.num_rounds = 2;
    options.subsample = bad;
    common::Rng rng(8);
    EXPECT_EQ(GradientBoostedTrees(options)
                  .Fit(data.features, data.labels, 3, rng)
                  .code(),
              common::StatusCode::kInvalidArgument);
  }
}

TEST(FitOptionsTest, OutOfRangeBootstrapFractionIsRejected) {
  const TieHeavyData data = MakeTieHeavyData();
  // 1e30 draws a bootstrap sample no uint32 row id can index.
  for (const double bad : {kNaN, kInf, -kInf, -1.0, 1e30}) {
    SCOPED_TRACE(bad);
    RandomForestRegressor::Options options;
    options.num_trees = 3;
    options.bootstrap_fraction = bad;
    common::Rng rng(9);
    EXPECT_EQ(RandomForestRegressor(options)
                  .Fit(data.features, data.targets, rng)
                  .code(),
              common::StatusCode::kInvalidArgument);
  }
}

TEST(FitOptionsTest, SubsampleLargerThanTheRowsStillFits) {
  // A one-row fit used to ask for a two-row sample without replacement.
  const linalg::Matrix features = linalg::Matrix::FromRows({{1.0, 2.0}});
  GradientBoostedTrees::Options options;
  options.num_rounds = 2;
  options.subsample = 0.5;
  common::Rng rng(10);
  EXPECT_TRUE(GradientBoostedTrees(options).Fit(features, {1}, 2, rng).ok());
}

/// Save bytes of a forest and a boosted ensemble fitted with zero
/// fractions: one candidate feature per split, one-row bootstraps and
/// two-row subsamples.
std::pair<uint64_t, uint64_t> ZeroFractionHashes() {
  const TieHeavyData data = MakeTieHeavyData();
  RandomForestRegressor::Options forest_options;
  forest_options.num_trees = 5;
  forest_options.bootstrap_fraction = 0.0;
  forest_options.tree.feature_fraction = 0.0;
  RandomForestRegressor forest(forest_options);
  common::Rng forest_rng(11);
  EXPECT_TRUE(forest.Fit(data.features, data.targets, forest_rng).ok());
  std::ostringstream forest_out;
  EXPECT_TRUE(forest.Save(forest_out).ok());
  GradientBoostedTrees::Options boosted_options;
  boosted_options.num_rounds = 3;
  boosted_options.subsample = 0.0;
  boosted_options.tree.feature_fraction = 0.0;
  GradientBoostedTrees gbt(boosted_options);
  common::Rng gbt_rng(12);
  EXPECT_TRUE(gbt.Fit(data.features, data.labels, 3, gbt_rng).ok());
  std::ostringstream gbt_out;
  EXPECT_TRUE(gbt.Save(gbt_out).ok());
  return {common::Fnv1aHash(forest_out.str()),
          common::Fnv1aHash(gbt_out.str())};
}

TEST(FitOptionsTest, ZeroFractionsKeepTheirBytes) {
  const auto [forest_hash, boosted_hash] = ZeroFractionHashes();
  EXPECT_EQ(forest_hash, kZeroFractionForestHash);
  EXPECT_EQ(boosted_hash, kZeroFractionBoostedHash);
}

TEST(FitOptionsTest, SubsampleAboveOneFitsEveryRow) {
  const TieHeavyData data = MakeTieHeavyData();
  std::string bytes[2];
  const double subsamples[] = {1.0, 1e30};
  for (size_t i = 0; i < 2; ++i) {
    GradientBoostedTrees::Options options;
    options.num_rounds = 3;
    options.subsample = subsamples[i];
    GradientBoostedTrees gbt(options);
    common::Rng rng(13);
    ASSERT_TRUE(gbt.Fit(data.features, data.labels, 3, rng).ok());
    std::ostringstream out;
    ASSERT_TRUE(gbt.Save(out).ok());
    bytes[i] = out.str();
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

}  // namespace
}  // namespace bbv::ml
