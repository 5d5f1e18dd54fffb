#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace bbv::ml {
namespace {

void MakeRegressionData(size_t n, linalg::Matrix& features,
                        std::vector<double>& targets, common::Rng& rng) {
  features = linalg::Matrix(n, 3);
  targets.resize(n);
  for (size_t i = 0; i < n; ++i) {
    features.At(i, 0) = rng.Uniform(0.0, 1.0);
    features.At(i, 1) = rng.Uniform(0.0, 1.0);
    features.At(i, 2) = rng.Uniform(0.0, 1.0);  // irrelevant
    targets[i] = 2.0 * features.At(i, 0) + features.At(i, 1) +
                 rng.Gaussian(0.0, 0.05);
  }
}

TEST(RandomForestTest, FitsSmoothFunction) {
  common::Rng rng(1);
  linalg::Matrix features;
  std::vector<double> targets;
  MakeRegressionData(500, features, targets, rng);
  RandomForestRegressor forest;
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());
  linalg::Matrix test_features;
  std::vector<double> test_targets;
  MakeRegressionData(200, test_features, test_targets, rng);
  const std::vector<double> predictions = forest.Predict(test_features);
  double mae = 0.0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    mae += std::abs(predictions[i] - test_targets[i]);
  }
  mae /= static_cast<double>(predictions.size());
  EXPECT_LT(mae, 0.25);
}

TEST(RandomForestTest, PredictionsWithinTargetRange) {
  // Tree ensembles cannot extrapolate beyond leaf means, so predictions
  // stay inside the observed target range — a useful sanity invariant for
  // the performance predictor (scores live in [0, 1]).
  common::Rng rng(3);
  linalg::Matrix features;
  std::vector<double> targets;
  MakeRegressionData(300, features, targets, rng);
  RandomForestRegressor forest;
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());
  const double low = *std::min_element(targets.begin(), targets.end());
  const double high = *std::max_element(targets.begin(), targets.end());
  for (double prediction : forest.Predict(features)) {
    EXPECT_GE(prediction, low - 1e-9);
    EXPECT_LE(prediction, high + 1e-9);
  }
}

TEST(RandomForestTest, NumTreesIsRespected) {
  common::Rng rng(5);
  linalg::Matrix features;
  std::vector<double> targets;
  MakeRegressionData(100, features, targets, rng);
  RandomForestRegressor::Options options;
  options.num_trees = 7;
  RandomForestRegressor forest(options);
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());
  EXPECT_EQ(forest.num_trees(), 7);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  linalg::Matrix features;
  std::vector<double> targets;
  {
    common::Rng data_rng(7);
    MakeRegressionData(150, features, targets, data_rng);
  }
  auto run = [&]() {
    common::Rng rng(42);
    RandomForestRegressor forest;
    BBV_CHECK(forest.Fit(features, targets, rng).ok());
    return forest.Predict(features);
  };
  EXPECT_EQ(run(), run());
}

TEST(RandomForestTest, RejectsMalformedInputs) {
  common::Rng rng(9);
  RandomForestRegressor forest;
  EXPECT_FALSE(forest.Fit(linalg::Matrix(), {}, rng).ok());
  linalg::Matrix features(3, 1);
  EXPECT_FALSE(forest.Fit(features, {1.0, 2.0}, rng).ok());
  RandomForestRegressor::Options options;
  options.num_trees = 0;
  RandomForestRegressor empty_forest(options);
  EXPECT_FALSE(empty_forest.Fit(features, {1.0, 2.0, 3.0}, rng).ok());
}

TEST(RandomForestDeathTest, PredictBeforeFitDies) {
  // An unfitted forest has no trees and no compiled kernel; inference on it
  // is a programming error, not a recoverable condition.
  const RandomForestRegressor forest;
  const linalg::Matrix features(2, 3);
  const double row[3] = {0.0, 0.0, 0.0};
  std::vector<double> out(features.rows());
  EXPECT_DEATH(forest.Predict(features), "Predict before Fit");
  EXPECT_DEATH(forest.PredictInto(features, out), "Predict before Fit");
  EXPECT_DEATH(forest.kernel().PredictRowValuesInto(row, out),
               "ForestKernel inference before Compile");
}

TEST(RandomForestTest, EnsembleBeatsSingleTreeOnNoisyData) {
  common::Rng rng(11);
  linalg::Matrix features;
  std::vector<double> targets;
  MakeRegressionData(400, features, targets, rng);
  linalg::Matrix test_features;
  std::vector<double> test_targets;
  MakeRegressionData(400, test_features, test_targets, rng);
  auto mae_for = [&](int trees) {
    common::Rng fit_rng(13);
    RandomForestRegressor::Options options;
    options.num_trees = trees;
    RandomForestRegressor forest(options);
    BBV_CHECK(forest.Fit(features, targets, fit_rng).ok());
    const std::vector<double> predictions = forest.Predict(test_features);
    double mae = 0.0;
    for (size_t i = 0; i < predictions.size(); ++i) {
      mae += std::abs(predictions[i] - test_targets[i]);
    }
    return mae / static_cast<double>(predictions.size());
  };
  EXPECT_LT(mae_for(60), mae_for(1));
}

}  // namespace
}  // namespace bbv::ml
