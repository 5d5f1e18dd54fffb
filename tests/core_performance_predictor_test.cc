#include "core/performance_predictor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>

#include "common/telemetry.h"
#include "core/performance_validator.h"
#include "core/prediction_statistics.h"
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

// ---------------------------------------------------------------------------
// PredictCorruptedCopy: the corrupt -> predict step of Algorithm 1 that
// sends only changed rows to the black box.
// ---------------------------------------------------------------------------

/// Forwards to a real model and meters what it is asked to predict.
class MeteredBlackBox : public ml::BlackBox {
 public:
  explicit MeteredBlackBox(const ml::BlackBox& inner) : inner_(inner) {}

  common::Result<linalg::Matrix> PredictProba(
      const data::DataFrame& frame) const override {
    ++calls_;
    rows_ += frame.NumRows();
    return inner_.PredictProba(frame);
  }
  int num_classes() const override { return inner_.num_classes(); }
  std::string Name() const override { return "metered"; }

  size_t calls() const { return calls_.load(); }
  size_t rows() const { return rows_.load(); }

 private:
  const ml::BlackBox& inner_;
  mutable std::atomic<size_t> calls_{0};
  mutable std::atomic<size_t> rows_{0};
};

/// Answers the first call, then returns a fixed result for every later one:
/// a black box that breaks after Train has scored the clean test set.
class BreaksAfterFirstCall : public ml::BlackBox {
 public:
  BreaksAfterFirstCall(const ml::BlackBox& inner,
                       common::Result<linalg::Matrix> later)
      : inner_(inner), later_(std::move(later)) {}

  common::Result<linalg::Matrix> PredictProba(
      const data::DataFrame& frame) const override {
    if (calls_++ == 0) return inner_.PredictProba(frame);
    return later_;
  }
  int num_classes() const override { return inner_.num_classes(); }
  std::string Name() const override { return "breaks"; }

 private:
  const ml::BlackBox& inner_;
  common::Result<linalg::Matrix> later_;
  mutable std::atomic<size_t> calls_{0};
};

void ExpectBitIdenticalRow(const linalg::Matrix& actual, size_t actual_row,
                           const linalg::Matrix& expected,
                           size_t expected_row) {
  ASSERT_EQ(actual.cols(), expected.cols());
  for (size_t k = 0; k < actual.cols(); ++k) {
    EXPECT_EQ(std::bit_cast<uint64_t>(actual.At(actual_row, k)),
              std::bit_cast<uint64_t>(expected.At(expected_row, k)))
        << "row " << actual_row << " class " << k;
  }
}

std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

/// Index of the first numeric column holding a 0.0 cell, and that row.
std::pair<size_t, size_t> FindZeroCell(const data::DataFrame& frame) {
  for (size_t c = 0; c < frame.NumCols(); ++c) {
    const data::Column& column = frame.column(c);
    if (column.type() != data::ColumnType::kNumeric) continue;
    for (size_t row = 0; row < column.size(); ++row) {
      const data::CellValue& cell = column.cell(row);
      if (cell.is_numeric() && std::bit_cast<uint64_t>(cell.AsDouble()) == 0) {
        return {c, row};
      }
    }
  }
  BBV_CHECK(false) << "no 0.0 cell in the frame";
  return {0, 0};
}

class PredictCorruptedCopyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng rng(91);
    fixture_ = MakeFixture(rng, 1200);
    clean_ = fixture_.model->PredictProba(fixture_.test.features).ValueOrDie();
  }

  const data::DataFrame& clean_frame() const {
    return fixture_.test.features;
  }

  Fixture fixture_;
  linalg::Matrix clean_;
};

TEST_F(PredictCorruptedCopyTest, UnchangedCopyNeverCallsTheModel) {
  const MeteredBlackBox model(*fixture_.model);
  const auto result =
      PredictCorruptedCopy(model, clean_frame(), clean_, clean_frame(),
                           AllRows(clean_frame().NumRows()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(model.calls(), 0u);
  EXPECT_EQ(result->data(), clean_.data());
}

TEST_F(PredictCorruptedCopyTest, SendsOnlyChangedRowsAndMatchesFullPredict) {
  data::DataFrame corrupted = clean_frame();
  corrupted.column(0).cell(3) = data::CellValue::Na();
  corrupted.ColumnByName("education").cell(7) = data::CellValue(5.0);
  // A sign flip of 0.0 is == to the clean cell, but not bit for bit.
  const auto [zero_column, zero_row] = FindZeroCell(clean_frame());
  corrupted.column(zero_column).cell(zero_row) = data::CellValue(-0.0);
  const linalg::Matrix full =
      fixture_.model->PredictProba(corrupted).ValueOrDie();

  const MeteredBlackBox model(*fixture_.model);
  const uint64_t sent_before =
      common::telemetry::ReadCounter("predictor.black_box_rows");
  const uint64_t reused_before =
      common::telemetry::ReadCounter("predictor.black_box_rows_reused");
  const size_t n = clean_frame().NumRows();
  const auto result = PredictCorruptedCopy(model, clean_frame(), clean_,
                                           corrupted, AllRows(n));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const size_t changed = zero_row == 3 || zero_row == 7 ? 2 : 3;
  EXPECT_EQ(model.calls(), 1u);
  EXPECT_EQ(model.rows(), changed);
  if (common::telemetry::Enabled()) {
    EXPECT_EQ(common::telemetry::ReadCounter("predictor.black_box_rows") -
                  sent_before,
              changed);
    EXPECT_EQ(
        common::telemetry::ReadCounter("predictor.black_box_rows_reused") -
            reused_before,
        n - changed);
  }
  ASSERT_EQ(result->rows(), n);
  for (size_t row = 0; row < n; ++row) {
    ExpectBitIdenticalRow(*result, row, full, row);
  }
}

TEST_F(PredictCorruptedCopyTest, DiffsOnlyTheRowsTheCallerReads) {
  data::DataFrame corrupted = clean_frame();
  corrupted.column(0).cell(3) = data::CellValue::Na();
  corrupted.column(0).cell(7) = data::CellValue::Na();
  const linalg::Matrix full =
      fixture_.model->PredictProba(corrupted).ValueOrDie();
  const MeteredBlackBox model(*fixture_.model);
  const auto result =
      PredictCorruptedCopy(model, clean_frame(), clean_, corrupted, {9, 7, 1});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(model.calls(), 1u);
  EXPECT_EQ(model.rows(), 1u);
  ExpectBitIdenticalRow(*result, 7, full, 7);
  ExpectBitIdenticalRow(*result, 1, full, 1);
  // Row 3 changed but is not read: it keeps the clean output.
  ExpectBitIdenticalRow(*result, 3, clean_, 3);
}

TEST_F(PredictCorruptedCopyTest, ReadRowOutsideTheFrameIsInvalidArgument) {
  const MeteredBlackBox model(*fixture_.model);
  const auto result =
      PredictCorruptedCopy(model, clean_frame(), clean_, clean_frame(),
                           {0, clean_frame().NumRows()});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(model.calls(), 0u);
}

TEST_F(PredictCorruptedCopyTest, ShapeChangePredictsTheWholeFrame) {
  const data::DataFrame shorter = clean_frame().SelectRows({0, 1, 2, 3});
  const MeteredBlackBox model(*fixture_.model);
  const auto result = PredictCorruptedCopy(
      model, clean_frame(), clean_, shorter, AllRows(clean_frame().NumRows()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(model.calls(), 1u);
  EXPECT_EQ(model.rows(), 4u);
  EXPECT_EQ(result->rows(), 4u);
}

TEST_F(PredictCorruptedCopyTest, SchemaChangePredictsTheWholeFrame) {
  // Same shape, columns in another order: the model sees the frame whole
  // and rejects it.
  std::vector<std::string> names = clean_frame().ColumnNames();
  std::swap(names.front(), names.back());
  const data::DataFrame reordered =
      clean_frame().SelectColumns(names).ValueOrDie();
  const MeteredBlackBox model(*fixture_.model);
  const auto result =
      PredictCorruptedCopy(model, clean_frame(), clean_, reordered,
                           AllRows(clean_frame().NumRows()));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(model.calls(), 1u);
  EXPECT_EQ(model.rows(), clean_frame().NumRows());
}

TEST_F(PredictCorruptedCopyTest, WrongResultShapeIsInvalidArgument) {
  data::DataFrame corrupted = clean_frame();
  corrupted.column(0).cell(3) = data::CellValue::Na();
  // Answers every call with the full clean matrix, whatever it was asked.
  const BreaksAfterFirstCall model(*fixture_.model, clean_);
  ASSERT_TRUE(model.PredictProba(clean_frame()).ok());
  const auto result =
      PredictCorruptedCopy(model, clean_frame(), clean_, corrupted,
                           AllRows(clean_frame().NumRows()));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
}

TEST_F(PredictCorruptedCopyTest, TrainFailsOnBlackBoxErrorAndWrongShape) {
  const errors::MissingValues missing;
  const std::vector<const errors::ErrorGen*> generators = {&missing};
  const BreaksAfterFirstCall failing(
      *fixture_.model, common::Status::Internal("endpoint unavailable"));
  PerformancePredictor predictor(FastOptions());
  common::Rng rng(5);
  const common::Status failed =
      predictor.Train(failing, fixture_.test, generators, rng);
  EXPECT_EQ(failed.code(), common::StatusCode::kInternal);
  EXPECT_FALSE(predictor.trained());

  const BreaksAfterFirstCall misshapen(*fixture_.model, clean_);
  PerformancePredictor other(FastOptions());
  EXPECT_EQ(other.Train(misshapen, fixture_.test, generators, rng).code(),
            common::StatusCode::kInvalidArgument);

  // The validator collects through the same step.
  PerformanceValidator::Options validator_options;
  validator_options.corruptions_per_generator = 10;
  PerformanceValidator validator(validator_options);
  const BreaksAfterFirstCall also_failing(
      *fixture_.model, common::Status::Internal("endpoint unavailable"));
  EXPECT_EQ(
      validator.Train(also_failing, fixture_.test, generators, rng).code(),
      common::StatusCode::kInternal);
  EXPECT_FALSE(validator.trained());
}

TEST_F(PredictCorruptedCopyTest, TrainCountsSentAndReusedRows) {
  if (!common::telemetry::Enabled()) GTEST_SKIP() << "telemetry disabled";
  const errors::MissingValues missing;
  const std::vector<const errors::ErrorGen*> generators = {&missing};
  PerformancePredictor::Options options = FastOptions();
  options.corruptions_per_generator = 10;
  PerformancePredictor predictor(options);
  const MeteredBlackBox model(*fixture_.model);
  const uint64_t sent_before =
      common::telemetry::ReadCounter("predictor.black_box_rows");
  const uint64_t reused_before =
      common::telemetry::ReadCounter("predictor.black_box_rows_reused");
  common::Rng rng(6);
  ASSERT_TRUE(predictor.Train(model, fixture_.test, generators, rng).ok());
  const uint64_t sent =
      common::telemetry::ReadCounter("predictor.black_box_rows") - sent_before;
  const uint64_t reused =
      common::telemetry::ReadCounter("predictor.black_box_rows_reused") -
      reused_before;
  const size_t n = fixture_.test.NumRows();
  // The clean pass plus every corrupted row is either sent or reused.
  EXPECT_EQ(sent, model.rows());
  EXPECT_EQ(sent + reused, n + 10 * n);
  EXPECT_GT(reused, 0u);
}

/// Corruption that drops the last row, breaking the collector's row-count
/// contract.
class DropsLastRow : public errors::ErrorGen {
 public:
  common::Result<data::DataFrame> Corrupt(const data::DataFrame& frame,
                                          common::Rng& /*rng*/) const override {
    data::DataFrame copy = frame;
    std::vector<size_t> keep(frame.NumRows() - 1);
    std::iota(keep.begin(), keep.end(), size_t{0});
    copy.KeepRows(keep);
    return copy;
  }
  std::string Name() const override { return "drops_last_row"; }
};

/// Both trainers collect through CollectMetaExamples, so both reject a bad
/// collection input with InvalidArgument, with and without meta_batch_size
/// (the parameter).
class CollectionContractTest : public ::testing::TestWithParam<size_t> {
 protected:
  static const Fixture& SharedFixture() {
    static const std::unique_ptr<Fixture> fixture = [] {
      common::Rng rng(17);
      return std::make_unique<Fixture>(MakeFixture(rng, 800));
    }();
    return *fixture;
  }

  static PerformancePredictor::Options PredictorOptions() {
    PerformancePredictor::Options options = FastOptions();
    options.corruptions_per_generator = 3;
    options.meta_batch_size = GetParam();
    return options;
  }
  static PerformanceValidator::Options ValidatorOptions() {
    PerformanceValidator::Options options;
    options.corruptions_per_generator = 3;
    options.predictor_tree_count_grid = {10};
    options.gbdt.num_rounds = 5;
    options.meta_batch_size = GetParam();
    return options;
  }

  /// Trains both and expects InvalidArgument whose message holds `needle`.
  static void ExpectBothRejected(
      const PerformancePredictor::Options& predictor_options,
      const PerformanceValidator::Options& validator_options,
      const errors::ErrorGen& generator, const std::string& needle) {
    common::Rng rng(3);
    PerformancePredictor predictor(predictor_options);
    const common::Status predictor_status =
        predictor.Train(*SharedFixture().model, SharedFixture().test,
                        {&generator}, rng);
    EXPECT_EQ(predictor_status.code(), common::StatusCode::kInvalidArgument)
        << predictor_status.ToString();
    EXPECT_NE(predictor_status.message().find(needle), std::string::npos)
        << predictor_status.ToString();
    EXPECT_FALSE(predictor.trained());
    PerformanceValidator validator(validator_options);
    const common::Status validator_status =
        validator.Train(*SharedFixture().model, SharedFixture().test,
                        {&generator}, rng);
    EXPECT_EQ(validator_status.code(), common::StatusCode::kInvalidArgument)
        << validator_status.ToString();
    EXPECT_NE(validator_status.message().find(needle), std::string::npos)
        << validator_status.ToString();
    EXPECT_FALSE(validator.trained());
  }

  const errors::MissingValues missing_;
};

TEST_P(CollectionContractTest, RowDroppingCorruptionIsNamed) {
  const DropsLastRow drops;
  ExpectBothRejected(PredictorOptions(), ValidatorOptions(), drops,
                     "drops_last_row");
}

TEST_P(CollectionContractTest, NegativeCleanCopies) {
  PerformancePredictor::Options predictor_options = PredictorOptions();
  predictor_options.clean_copies = -1;
  PerformanceValidator::Options validator_options = ValidatorOptions();
  validator_options.clean_copies = -1;
  ExpectBothRejected(predictor_options, validator_options, missing_,
                     "clean_copies");
}

TEST_P(CollectionContractTest, NegativeCorruptionsPerGenerator) {
  PerformancePredictor::Options predictor_options = PredictorOptions();
  predictor_options.corruptions_per_generator = -2;
  PerformanceValidator::Options validator_options = ValidatorOptions();
  validator_options.corruptions_per_generator = -2;
  ExpectBothRejected(predictor_options, validator_options, missing_,
                     "corruptions_per_generator");
}

TEST_P(CollectionContractTest, EmptyTreeCountGrid) {
  PerformancePredictor::Options predictor_options = PredictorOptions();
  predictor_options.tree_count_grid.clear();
  PerformanceValidator::Options validator_options = ValidatorOptions();
  validator_options.predictor_tree_count_grid.clear();
  ExpectBothRejected(predictor_options, validator_options, missing_,
                     "tree_count_grid");
}

INSTANTIATE_TEST_SUITE_P(MetaBatchSize, CollectionContractTest,
                         ::testing::Values(size_t{0}, size_t{40}));

class CollectMetaExamplesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Rng rng(23);
    fixture_ = MakeFixture(rng, 800);
  }

  PerformancePredictor::Options Options() const {
    PerformancePredictor::Options options = FastOptions();
    options.clean_copies = 2;
    options.corruptions_per_generator = 3;
    return options;
  }

  Fixture fixture_;
  const errors::MissingValues missing_;
  const errors::NumericOutliers outliers_;
};

TEST_F(CollectMetaExamplesTest, AllRowsMatchTheFullMatrixOverloads) {
  common::Rng rng(1);
  const auto examples = CollectMetaExamples(
      *fixture_.model, fixture_.test, {&missing_, &outliers_}, {}, Options(),
      /*keep_batches=*/false, rng);
  ASSERT_TRUE(examples.ok()) << examples.status().ToString();
  ASSERT_EQ(examples->scores.size(), 2u + 2u * 3u);
  ASSERT_EQ(examples->statistics.size(), examples->scores.size());
  EXPECT_TRUE(examples->batches.empty());
  // A clean example reads every row in order, and an empty grid means the
  // default one: the row views must give the full-matrix bytes.
  EXPECT_EQ(examples->statistics[0],
            PredictionStatistics(examples->clean_probabilities));
  EXPECT_EQ(std::bit_cast<uint64_t>(examples->scores[0]),
            std::bit_cast<uint64_t>(examples->test_score));
}

TEST_F(CollectMetaExamplesTest, KeptBatchesAreTheReadRowsOfThePool) {
  common::Rng rng(2);
  std::vector<size_t> pool(60);
  std::iota(pool.begin(), pool.end(), size_t{100});
  PerformancePredictor::Options options = Options();
  options.percentile_points = {5.0, 50.0, 95.0};
  options.meta_batch_size = 25;
  const auto examples =
      CollectMetaExamples(*fixture_.model, fixture_.test, {&outliers_}, pool,
                          options, /*keep_batches=*/true, rng);
  ASSERT_TRUE(examples.ok()) << examples.status().ToString();
  ASSERT_EQ(examples->batches.size(), examples->scores.size());
  for (size_t i = 0; i < examples->batches.size(); ++i) {
    const linalg::Matrix& batch = examples->batches[i];
    ASSERT_EQ(batch.rows(), 25u);
    EXPECT_EQ(examples->statistics[i],
              PredictionStatistics(batch, options.percentile_points));
  }
}

TEST_F(CollectMetaExamplesTest, PoolRowOutsideTheTestSetIsInvalidArgument) {
  common::Rng rng(3);
  const auto examples = CollectMetaExamples(
      *fixture_.model, fixture_.test, {&missing_},
      {0, fixture_.test.NumRows()}, Options(), /*keep_batches=*/false, rng);
  EXPECT_EQ(examples.status().code(), common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace bbv::core
