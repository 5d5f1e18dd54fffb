#include "core/performance_predictor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "datasets/tabular.h"
#include "errors/missing_values.h"
#include "errors/numeric_errors.h"
#include "ml/black_box.h"
#include "ml/sgd_logistic_regression.h"

namespace bbv::core {
namespace {

struct Fixture {
  data::Dataset train;
  data::Dataset test;
  data::Dataset serving;
  std::unique_ptr<ml::BlackBoxModel> model;
};

Fixture MakeFixture(common::Rng& rng, size_t rows = 3000) {
  data::Dataset dataset = datasets::MakeIncome(rows, rng);
  dataset = data::BalanceClasses(dataset, rng);
  auto [source, serving] = data::TrainTestSplit(dataset, 0.7, rng);
  auto [train, test] = data::TrainTestSplit(source, 0.7, rng);
  Fixture fixture;
  fixture.train = std::move(train);
  fixture.test = std::move(test);
  fixture.serving = std::move(serving);
  fixture.model = std::make_unique<ml::BlackBoxModel>(
      std::make_unique<ml::SgdLogisticRegression>());
  BBV_CHECK(fixture.model->Train(fixture.train, rng).ok());
  return fixture;
}

PerformancePredictor::Options FastOptions() {
  PerformancePredictor::Options options;
  options.corruptions_per_generator = 25;
  options.tree_count_grid = {30};
  return options;
}

TEST(ComputeScoreTest, AccuracyAndAucDispatch) {
  const linalg::Matrix proba =
      linalg::Matrix::FromRows({{0.9, 0.1}, {0.2, 0.8}});
  EXPECT_DOUBLE_EQ(ComputeScore(ScoreMetric::kAccuracy, proba, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(ComputeScore(ScoreMetric::kRocAuc, proba, {0, 1}), 1.0);
}

TEST(PerformancePredictorTest, TrainRequiresDataAndGenerators) {
  common::Rng rng(1);
  Fixture fixture = MakeFixture(rng, 1000);
  PerformancePredictor predictor(FastOptions());
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  EXPECT_FALSE(
      predictor.Train(*fixture.model, data::Dataset(), generators, rng).ok());
  EXPECT_FALSE(predictor.Train(*fixture.model, fixture.test, {}, rng).ok());
}

TEST(PerformancePredictorTest, EstimateBeforeTrainFails) {
  PerformancePredictor predictor;
  EXPECT_FALSE(
      predictor.EstimateScoreFromProba(linalg::Matrix(10, 2)).ok());
}

TEST(PerformancePredictorTest, RecordsMetaTrainingSize) {
  common::Rng rng(2);
  Fixture fixture = MakeFixture(rng, 1500);
  PerformancePredictor::Options options = FastOptions();
  options.clean_copies = 3;
  PerformancePredictor predictor(options);
  const errors::MissingValues missing;
  const errors::NumericOutliers outliers;
  std::vector<const errors::ErrorGen*> generators = {&missing, &outliers};
  ASSERT_TRUE(
      predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
  EXPECT_EQ(predictor.num_training_examples(), 3u + 2u * 25u);
  EXPECT_TRUE(predictor.trained());
  EXPECT_GT(predictor.test_score(), 0.5);
}

TEST(PerformancePredictorTest, EstimatesCleanScoreAccurately) {
  common::Rng rng(3);
  Fixture fixture = MakeFixture(rng);
  PerformancePredictor predictor(FastOptions());
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  ASSERT_TRUE(
      predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
  const auto estimate =
      predictor.EstimateScore(*fixture.model, fixture.serving.features);
  ASSERT_TRUE(estimate.ok());
  const double actual =
      fixture.model->ScoreAccuracy(fixture.serving).ValueOrDie();
  EXPECT_NEAR(estimate->point, actual, 0.05);
}

TEST(PerformancePredictorTest, EstimateRejectsNonFiniteProbabilities) {
  common::Rng rng(12);
  Fixture fixture = MakeFixture(rng, 1500);
  PerformancePredictor predictor(FastOptions());
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  ASSERT_TRUE(
      predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
  const linalg::Matrix proba =
      fixture.model->PredictProba(fixture.serving.features).ValueOrDie();
  // NaN in the class-0 column of every third row would otherwise be sorted
  // into the percentile features and scored.
  linalg::Matrix poisoned = proba;
  for (size_t i = 0; i < poisoned.rows(); i += 3) {
    poisoned.At(i, 0) = std::numeric_limits<double>::quiet_NaN();
  }
  EXPECT_EQ(predictor.EstimateScoreFromProba(poisoned).status().code(),
            common::StatusCode::kInvalidArgument);
  linalg::Matrix infinite = proba;
  infinite.At(proba.rows() - 1, 1) = std::numeric_limits<double>::infinity();
  EXPECT_EQ(predictor.EstimateScoreFromProba(infinite, 0.5).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_TRUE(predictor.EstimateScoreFromProba(proba).ok());
}

TEST(PerformancePredictorTest, TracksDegradationUnderKnownError) {
  common::Rng rng(4);
  Fixture fixture = MakeFixture(rng);
  PerformancePredictor predictor(FastOptions());
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  ASSERT_TRUE(
      predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
  double total_error = 0.0;
  const int repetitions = 8;
  for (int i = 0; i < repetitions; ++i) {
    const auto corrupted = missing.Corrupt(fixture.serving.features, rng);
    ASSERT_TRUE(corrupted.ok());
    const auto proba = fixture.model->PredictProba(*corrupted);
    ASSERT_TRUE(proba.ok());
    const double actual = ComputeScore(ScoreMetric::kAccuracy, *proba,
                                       fixture.serving.labels);
    const auto estimate = predictor.EstimateScoreFromProba(*proba);
    ASSERT_TRUE(estimate.ok());
    total_error += std::abs(estimate->point - actual);
  }
  EXPECT_LT(total_error / repetitions, 0.05);
}

TEST(PerformancePredictorTest, AucMetricVariant) {
  common::Rng rng(5);
  Fixture fixture = MakeFixture(rng, 2000);
  PerformancePredictor::Options options = FastOptions();
  options.metric = ScoreMetric::kRocAuc;
  PerformancePredictor predictor(options);
  const errors::NumericOutliers outliers;
  std::vector<const errors::ErrorGen*> generators = {&outliers};
  ASSERT_TRUE(
      predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
  const auto estimate =
      predictor.EstimateScore(*fixture.model, fixture.serving.features);
  ASSERT_TRUE(estimate.ok());
  const double actual_auc =
      fixture.model->ScoreAuc(fixture.serving).ValueOrDie();
  EXPECT_NEAR(estimate->point, actual_auc, 0.08);
}

TEST(PerformancePredictorTest, GridSearchSelectsFromGrid) {
  common::Rng rng(6);
  Fixture fixture = MakeFixture(rng, 1200);
  PerformancePredictor::Options options = FastOptions();
  options.tree_count_grid = {5, 40};
  PerformancePredictor predictor(options);
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  ASSERT_TRUE(
      predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
  EXPECT_TRUE(predictor.selected_tree_count() == 5 ||
              predictor.selected_tree_count() == 40);
}

TEST(PerformancePredictorTest, MetaBatchSizeSubsampling) {
  common::Rng rng(7);
  Fixture fixture = MakeFixture(rng, 2000);
  PerformancePredictor::Options options = FastOptions();
  options.meta_batch_size = 100;
  PerformancePredictor predictor(options);
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  ASSERT_TRUE(
      predictor.Train(*fixture.model, fixture.test, generators, rng).ok());
  // Estimates on small serving batches remain sensible.
  const std::vector<size_t> rows =
      rng.SampleWithoutReplacement(fixture.serving.NumRows(), 100);
  const data::Dataset small = fixture.serving.SelectRows(rows);
  const auto estimate =
      predictor.EstimateScore(*fixture.model, small.features);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(estimate->point, 0.4);
  EXPECT_LT(estimate->point, 1.0);
}

TEST(PerformancePredictorTest, TrainFromStatisticsValidation) {
  common::Rng rng(8);
  PerformancePredictor predictor(FastOptions());
  EXPECT_FALSE(predictor.TrainFromStatistics({}, {}, 0.8, rng).ok());
  EXPECT_FALSE(
      predictor.TrainFromStatistics({{1.0, 2.0}}, {0.5, 0.6}, 0.8, rng).ok());
  ASSERT_TRUE(predictor
                  .TrainFromStatistics({{1.0, 2.0}, {2.0, 3.0}, {3.0, 4.0}},
                                       {0.5, 0.6, 0.7}, 0.8, rng)
                  .ok());
  EXPECT_TRUE(predictor.trained());
  EXPECT_DOUBLE_EQ(predictor.test_score(), 0.8);
}

}  // namespace
}  // namespace bbv::core
