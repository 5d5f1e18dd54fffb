#include "ml/black_box.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "automl/automl_search.h"
#include "automl/cloud_service.h"
#include "datasets/images.h"
#include "datasets/tabular.h"
#include "ml/conv_net.h"
#include "ml/feed_forward_network.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/sgd_logistic_regression.h"

namespace bbv::ml {
namespace {

TEST(BlackBoxModelTest, TrainPredictScoreRoundTrip) {
  common::Rng rng(1);
  data::Dataset dataset = datasets::MakeIncome(2000, rng);
  auto [train, test] = data::TrainTestSplit(dataset, 0.7, rng);

  BlackBoxModel model(std::make_unique<SgdLogisticRegression>());
  ASSERT_TRUE(model.Train(train, rng).ok());
  EXPECT_EQ(model.num_classes(), 2);
  EXPECT_EQ(model.Name(), "lr");

  const auto proba = model.PredictProba(test.features);
  ASSERT_TRUE(proba.ok());
  EXPECT_EQ(proba->rows(), test.NumRows());
  EXPECT_EQ(proba->cols(), 2u);

  const auto accuracy = model.ScoreAccuracy(test);
  ASSERT_TRUE(accuracy.ok());
  EXPECT_GT(*accuracy, 0.6);
  const auto auc = model.ScoreAuc(test);
  ASSERT_TRUE(auc.ok());
  EXPECT_GT(*auc, 0.6);
}

TEST(BlackBoxModelTest, PredictBeforeTrainFails) {
  BlackBoxModel model(std::make_unique<SgdLogisticRegression>());
  const auto result = model.PredictProba(data::DataFrame());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kFailedPrecondition);
}

TEST(BlackBoxModelTest, TrainOnEmptyDatasetFails) {
  common::Rng rng(2);
  BlackBoxModel model(std::make_unique<SgdLogisticRegression>());
  EXPECT_FALSE(model.Train(data::Dataset(), rng).ok());
}

TEST(BlackBoxModelTest, PredictOnMismatchedSchemaFails) {
  common::Rng rng(3);
  data::Dataset dataset = datasets::MakeIncome(500, rng);
  BlackBoxModel model(std::make_unique<SgdLogisticRegression>());
  ASSERT_TRUE(model.Train(dataset, rng).ok());
  data::DataFrame wrong;
  BBV_CHECK(wrong.AddColumn(data::Column::Numeric("zzz", {1.0})).ok());
  EXPECT_FALSE(model.PredictProba(wrong).ok());
}

TEST(BlackBoxModelTest, HandlesCorruptedCellsGracefully) {
  // The pipeline must tolerate NA / wrong-typed cells at serving time: they
  // encode to zeros instead of failing, which is exactly how corruption
  // reaches the model in the paper's experiments.
  common::Rng rng(4);
  data::Dataset dataset = datasets::MakeIncome(500, rng);
  BlackBoxModel model(std::make_unique<SgdLogisticRegression>());
  ASSERT_TRUE(model.Train(dataset, rng).ok());
  data::DataFrame corrupted = dataset.features;
  corrupted.column(0).cell(0) = data::CellValue::Na();
  corrupted.ColumnByName("education").cell(0) = data::CellValue(123.0);
  const auto proba = model.PredictProba(corrupted);
  ASSERT_TRUE(proba.ok());
  EXPECT_EQ(proba->rows(), corrupted.NumRows());
}

// ---------------------------------------------------------------------------
// The row-independence contract of BlackBox::PredictProba: a frame's outputs
// equal, bit for bit, the outputs of its pieces. Algorithm 1's collectors
// reuse the clean output of every unchanged corrupted row on the strength
// of this, so it must hold for every black box in the repository.
// ---------------------------------------------------------------------------

/// Predicts `rows` of `frame` as their own frame and checks each output row
/// is bit-identical to the same row of `whole`.
void ExpectPieceMatches(const BlackBox& model, const data::DataFrame& frame,
                        const linalg::Matrix& whole,
                        const std::vector<size_t>& rows) {
  const auto piece = model.PredictProba(frame.SelectRows(rows));
  ASSERT_TRUE(piece.ok()) << piece.status().ToString();
  ASSERT_EQ(piece->rows(), rows.size());
  ASSERT_EQ(piece->cols(), whole.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t k = 0; k < whole.cols(); ++k) {
      ASSERT_EQ(std::bit_cast<uint64_t>(piece->At(i, k)),
                std::bit_cast<uint64_t>(whole.At(rows[i], k)))
          << model.Name() << ": row " << rows[i] << " class " << k
          << " differs when predicted among " << rows.size() << " rows";
    }
  }
}

void ExpectRowIndependent(const BlackBox& model, const data::DataFrame& frame,
                          uint64_t seed) {
  const size_t n = frame.NumRows();
  ASSERT_GE(n, 4u);
  const auto whole = model.PredictProba(frame);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_EQ(whole->rows(), n);
  // Contiguous halves.
  std::vector<size_t> first_half;
  std::vector<size_t> second_half;
  for (size_t row = 0; row < n; ++row) {
    (row < n / 2 ? first_half : second_half).push_back(row);
  }
  ExpectPieceMatches(model, frame, *whole, first_half);
  ExpectPieceMatches(model, frame, *whole, second_half);
  // Every single row.
  for (size_t row = 0; row < n; ++row) {
    ExpectPieceMatches(model, frame, *whole, {row});
  }
  // A shuffled subset of two thirds of the rows.
  common::Rng rng(seed);
  std::vector<size_t> shuffled = rng.Permutation(n);
  shuffled.resize(2 * n / 3);
  ExpectPieceMatches(model, frame, *whole, shuffled);
}

struct IncomeSplit {
  data::Dataset train;
  data::Dataset test;
};

IncomeSplit MakeIncomeSplit(uint64_t seed) {
  common::Rng rng(seed);
  data::Dataset dataset = datasets::MakeIncome(600, rng);
  auto [train, test] = data::TrainTestSplit(dataset, 0.9, rng);
  // Missing and wrong-typed cells reach the model in Algorithm 1; keep some.
  test.features.column(0).cell(1) = data::CellValue::Na();
  test.features.ColumnByName("education").cell(2) = data::CellValue(7.0);
  return {std::move(train), std::move(test)};
}

void ExpectTabularRowIndependent(std::unique_ptr<Classifier> classifier,
                                 uint64_t seed) {
  const IncomeSplit split = MakeIncomeSplit(seed);
  BlackBoxModel model(std::move(classifier));
  common::Rng rng(seed + 1);
  ASSERT_TRUE(model.Train(split.train, rng).ok());
  ExpectRowIndependent(model, split.test.features, seed + 2);
}

TEST(BlackBoxRowIndependenceTest, LogisticRegression) {
  ExpectTabularRowIndependent(std::make_unique<SgdLogisticRegression>(), 10);
}

TEST(BlackBoxRowIndependenceTest, FeedForwardNetwork) {
  FeedForwardNetwork::Options options;
  options.epochs = 5;
  ExpectTabularRowIndependent(std::make_unique<FeedForwardNetwork>(options),
                              20);
}

TEST(BlackBoxRowIndependenceTest, GradientBoostedTrees) {
  ExpectTabularRowIndependent(std::make_unique<GradientBoostedTrees>(), 30);
}

TEST(BlackBoxRowIndependenceTest, ConvNet) {
  common::Rng rng(40);
  data::Dataset dataset = datasets::MakeDigits(200, 8, rng);
  auto [train, test] = data::TrainTestSplit(dataset, 0.8, rng);
  ConvNet::Options options;
  options.epochs = 2;
  BlackBoxModel model(std::make_unique<ConvNet>(options));
  ASSERT_TRUE(model.Train(train, rng).ok());
  ExpectRowIndependent(model, test.features, 41);
}

TEST(BlackBoxRowIndependenceTest, AutoMlSearchResult) {
  const IncomeSplit split = MakeIncomeSplit(50);
  automl::AutoMlOptions options;
  options.cv_folds = 2;
  common::Rng rng(51);
  const auto model = automl::AutoMlTabularSearch(split.train, options, rng);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ExpectRowIndependent(**model, split.test.features, 52);
}

TEST(BlackBoxRowIndependenceTest, CloudHostedModel) {
  const IncomeSplit split = MakeIncomeSplit(60);
  automl::CloudModelService::Options options;
  options.max_batch_size = 7;  // pieces straddle API batches
  options.automl.cv_folds = 2;
  const automl::CloudModelService service(options);
  common::Rng rng(61);
  const auto hosted = service.TrainModel(split.train, rng);
  ASSERT_TRUE(hosted.ok()) << hosted.status().ToString();
  ExpectRowIndependent(**hosted, split.test.features, 62);
}

}  // namespace
}  // namespace bbv::ml
