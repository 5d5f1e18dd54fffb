#include "core/performance_validator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "datasets/tabular.h"
#include "errors/missing_values.h"
#include "errors/mixture.h"
#include "errors/numeric_errors.h"
#include "ml/black_box.h"
#include "ml/gradient_boosted_trees.h"

namespace bbv::core {
namespace {

struct Fixture {
  data::Dataset train;
  data::Dataset test;
  data::Dataset serving;
  std::unique_ptr<ml::BlackBoxModel> model;
};

Fixture MakeFixture(common::Rng& rng) {
  data::Dataset dataset = datasets::MakeHeart(4000, rng);
  dataset = data::BalanceClasses(dataset, rng);
  auto [source, serving] = data::TrainTestSplit(dataset, 0.7, rng);
  auto [train, test] = data::TrainTestSplit(source, 0.7, rng);
  Fixture fixture;
  fixture.train = std::move(train);
  fixture.test = std::move(test);
  fixture.serving = std::move(serving);
  fixture.model = std::make_unique<ml::BlackBoxModel>(
      std::make_unique<ml::GradientBoostedTrees>());
  BBV_CHECK(fixture.model->Train(fixture.train, rng).ok());
  return fixture;
}

PerformanceValidator::Options FastOptions(double threshold = 0.05) {
  PerformanceValidator::Options options;
  options.threshold = threshold;
  options.corruptions_per_generator = 60;
  return options;
}

TEST(PerformanceValidatorTest, ValidatesCleanServingData) {
  common::Rng rng(1);
  Fixture fixture = MakeFixture(rng);
  PerformanceValidator validator(FastOptions());
  const errors::ErrorMixture mixture(
      {std::make_shared<errors::MissingValues>(),
       std::make_shared<errors::NumericOutliers>()});
  std::vector<const errors::ErrorGen*> generators = {&mixture};
  ASSERT_TRUE(
      validator.Train(*fixture.model, fixture.test, generators, rng).ok());
  EXPECT_TRUE(validator.trained());
  const auto decision =
      validator.Validate(*fixture.model, fixture.serving.features);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(*decision);
}

TEST(PerformanceValidatorTest, AlarmsOnCatastrophicCorruption) {
  common::Rng rng(2);
  Fixture fixture = MakeFixture(rng);
  PerformanceValidator validator(FastOptions(0.05));
  const errors::ErrorMixture mixture(
      {std::make_shared<errors::MissingValues>(),
       std::make_shared<errors::NumericOutliers>()});
  std::vector<const errors::ErrorGen*> generators = {&mixture};
  ASSERT_TRUE(
      validator.Train(*fixture.model, fixture.test, generators, rng).ok());
  // Destroy every numeric column with massive outliers.
  const errors::NumericOutliers severe({}, errors::FractionRange{1.0, 1.0},
                                       10.0, 12.0);
  int alarms = 0;
  for (int i = 0; i < 5; ++i) {
    const auto corrupted = severe.Corrupt(fixture.serving.features, rng);
    ASSERT_TRUE(corrupted.ok());
    const auto decision = validator.Validate(*fixture.model, *corrupted);
    ASSERT_TRUE(decision.ok());
    if (!*decision) ++alarms;
  }
  EXPECT_GE(alarms, 4);
}

TEST(PerformanceValidatorTest, ValidateBeforeTrainFails) {
  PerformanceValidator validator;
  EXPECT_FALSE(validator.ValidateFromProba(linalg::Matrix(5, 2)).ok());
}

TEST(PerformanceValidatorTest, ValidateRejectsNonFiniteProbabilities) {
  common::Rng rng(7);
  Fixture fixture = MakeFixture(rng);
  PerformanceValidator::Options options = FastOptions();
  options.corruptions_per_generator = 20;
  PerformanceValidator validator(options);
  const errors::ErrorMixture mixture(
      {std::make_shared<errors::MissingValues>(),
       std::make_shared<errors::NumericOutliers>()});
  std::vector<const errors::ErrorGen*> generators = {&mixture};
  ASSERT_TRUE(
      validator.Train(*fixture.model, fixture.test, generators, rng).ok());
  const linalg::Matrix proba =
      fixture.model->PredictProba(fixture.serving.features).ValueOrDie();
  linalg::Matrix poisoned = proba;
  for (size_t i = 0; i < poisoned.rows(); i += 3) {
    poisoned.At(i, 0) = std::numeric_limits<double>::quiet_NaN();
  }
  EXPECT_EQ(validator.ValidateFromProba(poisoned).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_TRUE(validator.ValidateFromProba(proba).ok());
}

TEST(PerformanceValidatorTest, ValidateRejectsAClassCountMismatch) {
  // Both decisions (the fitted decision model and the degenerate predictor
  // fallback), and a Save -> Load copy of each, refuse a batch whose class
  // count differs from training instead of reading past the retained
  // outputs.
  common::Rng rng(8);
  Fixture fixture = MakeFixture(rng);
  const errors::NumericOutliers outliers;
  const errors::MissingValues noop({}, errors::FractionRange{0.0, 0.0});
  const std::vector<const errors::ErrorGen*> generators = {&outliers, &noop};
  for (const errors::ErrorGen* generator : generators) {
    PerformanceValidator::Options options = FastOptions();
    options.corruptions_per_generator = 20;
    options.use_predictor_feature = false;
    PerformanceValidator validator(options);
    ASSERT_TRUE(
        validator.Train(*fixture.model, fixture.test, {generator}, rng).ok());
    std::stringstream saved;
    ASSERT_TRUE(validator.Save(saved).ok());
    const auto restored = PerformanceValidator::Load(saved);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const linalg::Matrix proba =
        fixture.model->PredictProba(fixture.serving.features).ValueOrDie();
    ASSERT_EQ(proba.cols(), 2u);
    const std::vector<const PerformanceValidator*> candidates = {
        &validator, &*restored};
    for (const PerformanceValidator* candidate : candidates) {
      for (const size_t cols : {size_t{3}, size_t{1}}) {
        const linalg::Matrix batch(
            50, cols,
            std::vector<double>(50 * cols, 1.0 / static_cast<double>(cols)));
        EXPECT_EQ(candidate->ValidateFromProba(batch).status().code(),
                  common::StatusCode::kInvalidArgument)
            << generator->Name() << ", " << cols << " columns";
      }
      EXPECT_TRUE(candidate->ValidateFromProba(proba).ok())
          << generator->Name();
    }
  }
}

TEST(PerformanceValidatorTest, RetrainingLeavesNothingOfTheEarlierTrain) {
  // A degenerate Train (every copy on the ok side) followed by one on
  // severe scaling must save the bytes of a fresh validator trained on the
  // same scaling from the same seed.
  common::Rng rng(9);
  Fixture fixture = MakeFixture(rng);
  PerformanceValidator::Options options = FastOptions();
  options.corruptions_per_generator = 20;
  const errors::MissingValues noop({}, errors::FractionRange{0.0, 0.0});
  const errors::Scaling severe({}, errors::FractionRange{0.5, 1.0});
  auto saved_bytes = [](const PerformanceValidator& validator) {
    std::ostringstream out;
    BBV_CHECK(validator.Save(out).ok());
    return out.str();
  };

  PerformanceValidator retrained(options);
  common::Rng noop_rng(10);
  ASSERT_TRUE(
      retrained.Train(*fixture.model, fixture.test, {&noop}, noop_rng).ok());
  const std::string degenerate_bytes = saved_bytes(retrained);
  common::Rng retrain_rng(11);
  ASSERT_TRUE(
      retrained.Train(*fixture.model, fixture.test, {&severe}, retrain_rng)
          .ok());

  PerformanceValidator fresh(options);
  common::Rng fresh_rng(11);
  ASSERT_TRUE(
      fresh.Train(*fixture.model, fixture.test, {&severe}, fresh_rng).ok());
  const std::string fresh_bytes = saved_bytes(fresh);
  // Scaling puts copies on both sides of the threshold, so the fresh
  // validator saves a decision model the degenerate one has not got.
  ASSERT_GT(fresh_bytes.size(), degenerate_bytes.size());
  EXPECT_EQ(saved_bytes(retrained), fresh_bytes);
}

TEST(PerformanceValidatorTest, TrainValidation) {
  common::Rng rng(3);
  Fixture fixture = MakeFixture(rng);
  PerformanceValidator validator(FastOptions());
  EXPECT_FALSE(
      validator.Train(*fixture.model, data::Dataset(), {}, rng).ok());
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  EXPECT_FALSE(
      validator.Train(*fixture.model, data::Dataset(), generators, rng).ok());
}

TEST(PerformanceValidatorTest, CustomGridAndRocAucRoundTripByteIdentical) {
  common::Rng rng(21);
  Fixture fixture = MakeFixture(rng);
  PerformanceValidator::Options options = FastOptions();
  options.corruptions_per_generator = 20;
  options.percentile_points = {10.0, 50.0, 90.0};
  options.metric = ScoreMetric::kRocAuc;
  PerformanceValidator validator(options);
  const errors::NumericOutliers outliers;
  ASSERT_TRUE(
      validator.Train(*fixture.model, fixture.test, {&outliers}, rng).ok());
  const auto verdict =
      validator.Validate(*fixture.model, fixture.serving.features);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();

  std::stringstream saved;
  ASSERT_TRUE(validator.Save(saved).ok());
  const std::string bytes = saved.str();
  const auto restored = PerformanceValidator::Load(saved);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::ostringstream resaved;
  ASSERT_TRUE(restored->Save(resaved).ok());
  EXPECT_EQ(resaved.str(), bytes);
  const auto restored_verdict =
      restored->Validate(*fixture.model, fixture.serving.features);
  ASSERT_TRUE(restored_verdict.ok());
  EXPECT_EQ(*restored_verdict, *verdict);
}

TEST(PerformanceValidatorTest, LoadRejectsInternalPredictorMismatch) {
  common::Rng rng(22);
  Fixture fixture = MakeFixture(rng);
  PerformanceValidator::Options options = FastOptions();
  options.corruptions_per_generator = 10;
  PerformanceValidator validator(options);
  const errors::NumericOutliers outliers;
  ASSERT_TRUE(
      validator.Train(*fixture.model, fixture.test, {&outliers}, rng).ok());
  std::ostringstream saved;
  ASSERT_TRUE(validator.Save(saved).ok());
  const std::string bytes = saved.str();
  // Header: "BBVPV" + uint32 version, double threshold, int32 metric, then
  // the percentile grid as a uint64 count and its doubles.
  constexpr size_t kMetricOffset = 5 + 4 + 8;
  constexpr size_t kFirstPointOffset = kMetricOffset + 4 + 8;
  {
    std::stringstream intact(bytes);
    EXPECT_TRUE(PerformanceValidator::Load(intact).ok());
  }
  std::string other_metric = bytes;
  const int32_t roc_auc = static_cast<int32_t>(ScoreMetric::kRocAuc);
  std::memcpy(other_metric.data() + kMetricOffset, &roc_auc, sizeof(roc_auc));
  std::stringstream metric_in(other_metric);
  const auto metric_loaded = PerformanceValidator::Load(metric_in);
  ASSERT_FALSE(metric_loaded.ok());
  EXPECT_EQ(metric_loaded.status().code(),
            common::StatusCode::kInvalidArgument);

  // The default grid starts at 0; 0.5 keeps it a valid ascending grid that
  // no longer matches the internal predictor's.
  std::string other_grid = bytes;
  double first_point = 1.0;
  std::memcpy(&first_point, other_grid.data() + kFirstPointOffset,
              sizeof(first_point));
  ASSERT_EQ(first_point, 0.0);
  first_point = 0.5;
  std::memcpy(other_grid.data() + kFirstPointOffset, &first_point,
              sizeof(first_point));
  std::stringstream grid_in(other_grid);
  const auto grid_loaded = PerformanceValidator::Load(grid_in);
  ASSERT_FALSE(grid_loaded.ok());
  EXPECT_EQ(grid_loaded.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(PerformanceValidatorTest, ThresholdIsExposed) {
  PerformanceValidator validator(FastOptions(0.1));
  EXPECT_DOUBLE_EQ(validator.threshold(), 0.1);
}

TEST(PerformanceValidatorTest, DegenerateTrainingFallsBackToPredictor) {
  // A generator whose corruption never moves the score (fraction 0) makes
  // every meta-label "ok"; the validator must fall back gracefully instead
  // of fitting a one-class GBDT.
  common::Rng rng(4);
  Fixture fixture = MakeFixture(rng);
  PerformanceValidator::Options options = FastOptions();
  options.corruptions_per_generator = 20;
  PerformanceValidator validator(options);
  const errors::MissingValues noop({}, errors::FractionRange{0.0, 0.0});
  std::vector<const errors::ErrorGen*> generators = {&noop};
  ASSERT_TRUE(
      validator.Train(*fixture.model, fixture.test, generators, rng).ok());
  const auto decision =
      validator.Validate(*fixture.model, fixture.serving.features);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(*decision);
}

TEST(PerformanceValidatorTest, HigherThresholdAlarmsLessOften) {
  common::Rng rng(5);
  Fixture fixture = MakeFixture(rng);
  const errors::ErrorMixture mixture(
      {std::make_shared<errors::MissingValues>(),
       std::make_shared<errors::NumericOutliers>(),
       std::make_shared<errors::Scaling>()});
  std::vector<const errors::ErrorGen*> generators = {&mixture};

  auto alarm_count = [&](double threshold) {
    common::Rng local_rng(99);
    PerformanceValidator validator(FastOptions(threshold));
    BBV_CHECK(
        validator.Train(*fixture.model, fixture.test, generators, local_rng)
            .ok());
    int alarms = 0;
    for (int i = 0; i < 20; ++i) {
      const auto corrupted =
          mixture.Corrupt(fixture.serving.features, local_rng);
      BBV_CHECK(corrupted.ok());
      const auto decision = validator.Validate(*fixture.model, *corrupted);
      BBV_CHECK(decision.ok());
      if (!*decision) ++alarms;
    }
    return alarms;
  };
  // A 2% budget should alarm at least as often as a 25% budget.
  EXPECT_GE(alarm_count(0.02), alarm_count(0.25));
}

TEST(PerformanceValidatorTest, AblationOptionsStillWork) {
  common::Rng rng(6);
  Fixture fixture = MakeFixture(rng);
  for (const bool use_ks : {true, false}) {
    for (const bool use_predictor : {true, false}) {
      PerformanceValidator::Options options = FastOptions();
      options.corruptions_per_generator = 30;
      options.use_ks_features = use_ks;
      options.use_predictor_feature = use_predictor;
      PerformanceValidator validator(options);
      const errors::NumericOutliers outliers;
      std::vector<const errors::ErrorGen*> generators = {&outliers};
      ASSERT_TRUE(
          validator.Train(*fixture.model, fixture.test, generators, rng)
              .ok());
      const auto decision =
          validator.Validate(*fixture.model, fixture.serving.features);
      ASSERT_TRUE(decision.ok());
    }
  }
}

}  // namespace
}  // namespace bbv::core
