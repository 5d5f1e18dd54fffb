#include "automl/automl_search.h"

#include <gtest/gtest.h>

#include "automl/cloud_service.h"
#include "common/parallel.h"
#include "datasets/images.h"
#include "datasets/tabular.h"

namespace bbv::automl {
namespace {

TEST(AutoMlTabularSearchTest, ProducesAccurateModel) {
  common::Rng rng(1);
  data::Dataset dataset = datasets::MakeIncome(1500, rng);
  auto [train, test] = data::TrainTestSplit(dataset, 0.7, rng);
  AutoMlOptions options;
  options.cv_folds = 2;
  const auto model = AutoMlTabularSearch(train, options, rng);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT((*model)->ScoreAccuracy(test).ValueOrDie(), 0.65);
}

TEST(AutoMlTabularSearchTest, TpotFlavorAlsoWorks) {
  common::Rng rng(2);
  data::Dataset dataset = datasets::MakeIncome(1200, rng);
  auto [train, test] = data::TrainTestSplit(dataset, 0.7, rng);
  AutoMlOptions options;
  options.cv_folds = 2;
  options.flavor = "tpot";
  const auto model = AutoMlTabularSearch(train, options, rng);
  ASSERT_TRUE(model.ok());
  EXPECT_GT((*model)->ScoreAccuracy(test).ValueOrDie(), 0.65);
}

TEST(AutoMlTabularSearchTest, EmptyDatasetFails) {
  common::Rng rng(3);
  EXPECT_FALSE(AutoMlTabularSearch(data::Dataset(), AutoMlOptions{}, rng).ok());
}

TEST(AutoKerasImageSearchTest, ProducesAccurateCnn) {
  common::Rng rng(4);
  data::Dataset dataset = datasets::MakeDigits(700, 12, rng);
  auto [train, test] = data::TrainTestSplit(dataset, 0.7, rng);
  const auto model = AutoKerasImageSearch(train, rng);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT((*model)->ScoreAccuracy(test).ValueOrDie(), 0.85);
}

TEST(LargeConvNetTest, TrainsWithoutSearch) {
  common::Rng rng(5);
  data::Dataset dataset = datasets::MakeDigits(500, 12, rng);
  auto [train, test] = data::TrainTestSplit(dataset, 0.7, rng);
  const auto model = MakeLargeConvNet(train, rng);
  ASSERT_TRUE(model.ok());
  EXPECT_GT((*model)->ScoreAccuracy(test).ValueOrDie(), 0.85);
}

TEST(CloudModelServiceTest, HostedModelServesBatchedPredictions) {
  common::Rng rng(6);
  data::Dataset dataset = datasets::MakeIncome(1500, rng);
  auto [train, test] = data::TrainTestSplit(dataset, 0.7, rng);
  CloudModelService::Options options;
  options.max_batch_size = 100;
  options.automl.cv_folds = 2;
  CloudModelService service(options);
  const auto hosted = service.TrainModel(train, rng);
  ASSERT_TRUE(hosted.ok()) << hosted.status().ToString();
  const auto& model = **hosted;
  EXPECT_EQ(model.Name(), "cloud-automl");
  EXPECT_EQ(model.num_classes(), 2);

  const auto proba = model.PredictProba(test.features);
  ASSERT_TRUE(proba.ok());
  EXPECT_EQ(proba->rows(), test.NumRows());
  // 450 test rows at batch size 100 -> 5 API calls.
  EXPECT_EQ(model.api_calls(), (test.NumRows() + 99) / 100);
  EXPECT_EQ(model.rows_served(), test.NumRows());
}

TEST(CloudModelServiceTest, BatchSplittingPreservesPredictions) {
  common::Rng rng(7);
  data::Dataset dataset = datasets::MakeIncome(800, rng);
  auto [train, test] = data::TrainTestSplit(dataset, 0.7, rng);
  CloudModelService::Options small_batches;
  small_batches.max_batch_size = 37;  // awkward size, forces uneven batches
  small_batches.automl.cv_folds = 2;
  CloudModelService service(small_batches);
  common::Rng train_rng(42);
  const auto hosted = service.TrainModel(train, train_rng);
  ASSERT_TRUE(hosted.ok());
  const auto batched = (*hosted)->PredictProba(test.features);
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(batched->rows(), test.NumRows());
  for (size_t i = 0; i < batched->rows(); ++i) {
    double sum = 0.0;
    for (size_t k = 0; k < batched->cols(); ++k) sum += batched->At(i, k);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(CloudModelServiceTest, ConcurrentCallsAreMeteredExactly) {
  // Algorithm 1 calls PredictProba from concurrent ParallelFor tasks; every
  // call and row must land in the meters (a plain counter loses updates and
  // is a data race under TSan).
  common::Rng rng(8);
  data::Dataset dataset = datasets::MakeIncome(800, rng);
  auto [train, test] = data::TrainTestSplit(dataset, 0.7, rng);
  CloudModelService::Options options;
  options.max_batch_size = 50;
  options.automl.cv_folds = 2;
  CloudModelService service(options);
  const auto hosted = service.TrainModel(train, rng);
  ASSERT_TRUE(hosted.ok()) << hosted.status().ToString();
  const CloudHostedModel& model = **hosted;

  constexpr size_t kCalls = 24;
  common::ParallelOptions parallel;
  parallel.threads = 4;
  ASSERT_TRUE(common::ParallelFor(
                  kCalls,
                  [&](size_t) -> common::Status {
                    return model.PredictProba(test.features).status();
                  },
                  parallel)
                  .ok());
  const size_t batches_per_call = (test.NumRows() + 49) / 50;
  EXPECT_EQ(model.api_calls(), kCalls * batches_per_call);
  EXPECT_EQ(model.rows_served(), kCalls * test.NumRows());
}

TEST(CloudModelServiceTest, EmptyFrameMakesNoApiCall) {
  common::Rng rng(9);
  data::Dataset dataset = datasets::MakeIncome(600, rng);
  CloudModelService::Options options;
  options.automl.cv_folds = 2;
  CloudModelService service(options);
  const auto hosted = service.TrainModel(dataset, rng);
  ASSERT_TRUE(hosted.ok()) << hosted.status().ToString();
  const auto empty = (*hosted)->PredictProba(dataset.features.SelectRows({}));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->rows(), 0u);
  EXPECT_EQ(empty->cols(), 2u);
  EXPECT_EQ((*hosted)->api_calls(), 0u);
  EXPECT_EQ((*hosted)->rows_served(), 0u);
}

}  // namespace
}  // namespace bbv::automl
