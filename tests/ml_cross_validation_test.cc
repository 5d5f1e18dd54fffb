#include "ml/cross_validation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "ml/metrics.h"
#include "ml/sgd_logistic_regression.h"

namespace bbv::ml {
namespace {

void MakeSeparable(size_t n, linalg::Matrix& features,
                   std::vector<int>& labels, common::Rng& rng) {
  features = linalg::Matrix(n, 2);
  labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    features.At(i, 0) = rng.Gaussian(label == 0 ? -2.0 : 2.0, 0.5);
    features.At(i, 1) = rng.Gaussian(0.0, 1.0);
    labels[i] = label;
  }
}

TEST(KFoldTest, PartitionsEveryRowExactlyOnce) {
  common::Rng rng(1);
  const std::vector<Fold> folds = KFoldIndices(103, 5, rng);
  ASSERT_EQ(folds.size(), 5u);
  std::set<size_t> seen;
  for (const Fold& fold : folds) {
    for (size_t row : fold.test_rows) {
      EXPECT_TRUE(seen.insert(row).second) << "row in two test sets";
    }
  }
  EXPECT_EQ(seen.size(), 103u);
}

TEST(KFoldTest, TrainAndTestAreDisjointAndComplete) {
  common::Rng rng(2);
  const std::vector<Fold> folds = KFoldIndices(50, 4, rng);
  for (const Fold& fold : folds) {
    EXPECT_EQ(fold.train_rows.size() + fold.test_rows.size(), 50u);
    std::set<size_t> train(fold.train_rows.begin(), fold.train_rows.end());
    for (size_t row : fold.test_rows) {
      EXPECT_EQ(train.count(row), 0u);
    }
  }
}

TEST(KFoldTest, BalancedFoldSizes) {
  common::Rng rng(3);
  const std::vector<Fold> folds = KFoldIndices(10, 3, rng);
  std::vector<size_t> sizes;
  for (const Fold& fold : folds) sizes.push_back(fold.test_rows.size());
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<size_t>{3, 3, 4}));
}

TEST(ForEachFoldTest, HandsEachFoldTheInlineSequencesStream) {
  // The scaffold must draw exactly what the inline KFoldIndices +
  // ForkStreams sequence draws, in that order.
  common::Rng inline_rng(8);
  const std::vector<Fold> expected = KFoldIndices(37, 4, inline_rng);
  std::vector<common::Rng> expected_rngs = inline_rng.ForkStreams(4);

  common::Rng rng(8);
  std::vector<uint64_t> draws(4, 0);
  std::vector<std::vector<size_t>> test_rows(4);
  const auto folds = ForEachFold(
      37, 4, rng, [&](size_t f, const Fold& fold, common::Rng& fold_rng) {
        test_rows[f] = fold.test_rows;
        draws[f] = fold_rng.NextUint64();
        return common::Status::OK();
      });
  ASSERT_TRUE(folds.ok());
  ASSERT_EQ(folds->size(), expected.size());
  for (size_t f = 0; f < expected.size(); ++f) {
    EXPECT_EQ((*folds)[f].test_rows, expected[f].test_rows);
    EXPECT_EQ((*folds)[f].train_rows, expected[f].train_rows);
    EXPECT_EQ(test_rows[f], expected[f].test_rows);
    EXPECT_EQ(draws[f], expected_rngs[f].NextUint64()) << "fold " << f;
  }
  // The caller's stream ends where the inline sequence leaves it.
  EXPECT_EQ(rng.NextUint64(), inline_rng.NextUint64());
}

TEST(ForEachFoldTest, ReturnsTheLowestFoldError) {
  common::Rng rng(9);
  const auto folds =
      ForEachFold(12, 3, rng, [](size_t f, const Fold&, common::Rng&) {
        return f == 0 ? common::Status::OK()
                      : common::Status::Internal("fold " + std::to_string(f));
      });
  ASSERT_FALSE(folds.ok());
  EXPECT_EQ(folds.status().message(), "fold 1");
}

TEST(CrossValAccuracyTest, HighForSeparableData) {
  common::Rng rng(5);
  linalg::Matrix features;
  std::vector<int> labels;
  MakeSeparable(300, features, labels, rng);
  const auto score = CrossValAccuracy(
      [] { return std::make_unique<SgdLogisticRegression>(); }, features,
      labels, 2, 5, rng);
  ASSERT_TRUE(score.ok());
  EXPECT_GT(*score, 0.95);
}

TEST(CrossValAccuracyTest, MismatchedInputsRejected) {
  common::Rng rng(7);
  linalg::Matrix features(10, 2);
  const auto score = CrossValAccuracy(
      [] { return std::make_unique<SgdLogisticRegression>(); }, features,
      {0, 1}, 2, 2, rng);
  EXPECT_FALSE(score.ok());
}

TEST(CrossValRegressionMaeTest, LowForLearnableTarget) {
  common::Rng rng(11);
  linalg::Matrix features(300, 1);
  std::vector<double> targets(300);
  for (size_t i = 0; i < 300; ++i) {
    features.At(i, 0) = rng.Uniform(0.0, 1.0);
    targets[i] = features.At(i, 0) > 0.5 ? 1.0 : 0.0;
  }
  const auto mae = CrossValRegressionMae(
      [] {
        RandomForestRegressor::Options options;
        options.num_trees = 20;
        return RandomForestRegressor(options);
      },
      features, targets, 5, rng);
  ASSERT_TRUE(mae.ok());
  EXPECT_LT(*mae, 0.1);
}

TEST(GridSearchTest, PicksTheBetterCandidate) {
  common::Rng rng(13);
  linalg::Matrix features;
  std::vector<int> labels;
  MakeSeparable(300, features, labels, rng);
  // Candidate 0 is deliberately crippled (zero epochs => random init).
  std::vector<std::function<std::unique_ptr<Classifier>()>> candidates = {
      [] {
        SgdLogisticRegression::Options options;
        options.epochs = 0;
        return std::make_unique<SgdLogisticRegression>(options);
      },
      [] { return std::make_unique<SgdLogisticRegression>(); },
  };
  const auto winner = GridSearchClassifier(candidates, features, labels, 2,
                                           3, rng);
  ASSERT_TRUE(winner.ok());
  EXPECT_EQ(*winner, 1u);
}

TEST(GridSearchTest, EmptyCandidateListRejected) {
  common::Rng rng(17);
  linalg::Matrix features(10, 1);
  std::vector<int> labels(10, 0);
  EXPECT_FALSE(GridSearchClassifier({}, features, labels, 2, 2, rng).ok());
}

}  // namespace
}  // namespace bbv::ml
