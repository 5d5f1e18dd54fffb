#include "core/performance_validator.h"

#include <algorithm>
#include <string>

#include "common/telemetry.h"
#include "core/prediction_statistics.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"
#include "stats/hypothesis.h"

namespace bbv::core {

namespace {
/// Folds of the out-of-fold decision-cutoff search.
constexpr int kCutoffFolds = 3;
}  // namespace

PerformanceValidator::PerformanceValidator(Options options)
    : options_(std::move(options)) {
  if (options_.percentile_points.empty()) {
    options_.percentile_points = DefaultPercentilePoints();
  }
  BBV_CHECK(options_.threshold > 0.0 && options_.threshold < 1.0);
  // The internal predictor takes the validator's grid, metric and
  // collection fields, so one CollectMetaExamples pass feeds both. Only its
  // point estimate is ever read, so the conformal pass (five extra fold
  // refits per Train) would be pure cost: keep it off.
  PerformancePredictor::Options predictor;
  predictor.corruptions_per_generator = options_.corruptions_per_generator;
  predictor.clean_copies = options_.clean_copies;
  predictor.percentile_points = options_.percentile_points;
  predictor.metric = options_.metric;
  predictor.meta_batch_size = options_.meta_batch_size;
  predictor.tree_count_grid = options_.predictor_tree_count_grid;
  predictor.conformal_calibration = false;
  predictor_ = PerformancePredictor(std::move(predictor));
}

common::Status PerformanceValidator::Train(
    const ml::BlackBox& model, const data::Dataset& test,
    const std::vector<const errors::ErrorGen*>& generators,
    common::Rng& rng) {
  const common::telemetry::TraceSpan span("validator.train");
  common::telemetry::IncrementCounter("validator.train.calls");
  // A retrained validator starts from nothing: no field of an earlier
  // Train (the degenerate fallback, the decision model, the retained
  // outputs) may leak into this one.
  *this = PerformanceValidator(options_);
  // Split the test rows into a KS-reference half and a meta-example half.
  // At validation time the serving batch is disjoint from the retained
  // reference outputs, so the meta-examples must be disjoint from them too
  // — otherwise the training-time KS statistics are biased low (overlapping
  // samples) and every real serving batch looks shifted. The split is drawn
  // before the collector forks its task streams.
  std::vector<size_t> shuffled_rows = rng.Permutation(test.NumRows());
  const size_t reference_count = test.NumRows() / 2;
  const std::vector<size_t> reference_rows(
      shuffled_rows.begin(),
      shuffled_rows.begin() + static_cast<ptrdiff_t>(reference_count));
  const std::vector<size_t> example_rows(
      shuffled_rows.begin() + static_cast<ptrdiff_t>(reference_count),
      shuffled_rows.end());
  if (example_rows.empty() || reference_rows.empty()) {
    return common::Status::InvalidArgument(
        "test dataset too small to split into reference and example halves");
  }

  // One corruption pass shared between the internal performance predictor
  // and the validator's decision model. Only the example rows are read, so
  // the reference half of a corrupted copy never reaches the model; each
  // example's outputs are kept because BuildFeatures runs per-class KS
  // tests against their columns.
  BBV_ASSIGN_OR_RETURN(
      const MetaExamples examples,
      CollectMetaExamples(model, test, generators, example_rows,
                          predictor_.options(), /*keep_batches=*/true, rng));
  test_score_ = examples.test_score;
  test_probabilities_ = examples.clean_probabilities.SelectRows(reference_rows);
  BBV_RETURN_NOT_OK(predictor_.TrainFromStatistics(
      examples.statistics, examples.scores, test_score_, rng));

  // Meta-labels: 1 = quality within the threshold, 0 = violation.
  const std::vector<double>& scores = examples.scores;
  std::vector<int> labels(scores.size());
  const double floor = (1.0 - options_.threshold) * test_score_;
  for (size_t i = 0; i < scores.size(); ++i) {
    labels[i] = scores[i] >= floor ? 1 : 0;
  }
  const bool has_ok =
      std::any_of(labels.begin(), labels.end(), [](int l) { return l == 1; });
  const bool has_violation =
      std::any_of(labels.begin(), labels.end(), [](int l) { return l == 0; });
  if (!has_ok || !has_violation) {
    // All corrupted copies fell on one side of the threshold; fall back to
    // thresholding the internal predictor's estimate at inference time.
    degenerate_ = true;
    degenerate_label_ = has_ok ? 1 : 0;
    trained_ = true;
    return common::Status::OK();
  }

  std::vector<std::vector<double>> feature_rows;
  feature_rows.reserve(examples.batches.size());
  for (const linalg::Matrix& batch : examples.batches) {
    BBV_ASSIGN_OR_RETURN(std::vector<double> features, BuildFeatures(batch));
    feature_rows.push_back(std::move(features));
  }
  const linalg::Matrix meta_features = linalg::Matrix::FromRows(feature_rows);
  decision_model_ = ml::GradientBoostedTrees(options_.gbdt);
  BBV_RETURN_NOT_OK(decision_model_.Fit(meta_features, labels, 2, rng));

  // Calibrate the decision operating point with out-of-fold predictions:
  // pick the P(ok) cutoff that maximizes the F1 of the alarm class. The
  // in-sample fit is near-perfect (any cutoff looks optimal), so we collect
  // honest probabilities from k-fold refits first. This corrects the class
  // imbalance at loose thresholds, where few corrupted copies violate.
  std::vector<double> oof_p_ok(labels.size(), 0.5);
  if (labels.size() >= 2 * kCutoffFolds) {
    BBV_RETURN_NOT_OK(ml::ForEachFold(
        labels.size(), kCutoffFolds, rng,
        [&](size_t, const ml::Fold& fold, common::Rng& fold_rng) {
          std::vector<int> fold_labels;
          fold_labels.reserve(fold.train_rows.size());
          for (size_t row : fold.train_rows) fold_labels.push_back(labels[row]);
          const bool fold_has_both =
              std::any_of(fold_labels.begin(), fold_labels.end(),
                          [](int l) { return l == 0; }) &&
              std::any_of(fold_labels.begin(), fold_labels.end(),
                          [](int l) { return l == 1; });
          if (!fold_has_both) return common::Status::OK();
          ml::GradientBoostedTrees fold_model(options_.gbdt);
          BBV_RETURN_NOT_OK(fold_model.Fit(
              meta_features.SelectRows(fold.train_rows), fold_labels, 2,
              fold_rng));
          const linalg::Matrix fold_decisions = fold_model.PredictProba(
              meta_features.SelectRows(fold.test_rows));
          for (size_t i = 0; i < fold.test_rows.size(); ++i) {
            oof_p_ok[fold.test_rows[i]] = fold_decisions.At(i, 1);
          }
          return common::Status::OK();
        }).status());
  }
  std::vector<int> alarm_truth(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    alarm_truth[i] = labels[i] == 0 ? 1 : 0;
  }
  double best_f1 = -1.0;
  double best_cut = 0.5;
  for (int step = 1; step <= 19; ++step) {
    const double cut = 0.05 * static_cast<double>(step);
    std::vector<int> alarm_predictions(labels.size());
    for (size_t i = 0; i < labels.size(); ++i) {
      alarm_predictions[i] = oof_p_ok[i] >= cut ? 0 : 1;
    }
    const double f1 = ml::F1Score(alarm_predictions, alarm_truth);
    if (f1 > best_f1) {
      best_f1 = f1;
      best_cut = cut;
    }
  }
  decision_threshold_ = best_cut;
  trained_ = true;
  return common::Status::OK();
}

common::Result<std::vector<double>> PerformanceValidator::BuildFeatures(
    const linalg::Matrix& probabilities) const {
  std::vector<double> features =
      PredictionStatistics(probabilities, options_.percentile_points);
  // Hypothesis-test features: per-class two-sample KS between the batch
  // outputs and the retained clean test outputs [13].
  if (options_.use_ks_features) {
    for (size_t k = 0; k < probabilities.cols(); ++k) {
      const stats::TestResult ks = stats::TwoSampleKsTest(
          probabilities.Col(k), test_probabilities_.Col(k));
      features.push_back(ks.statistic);
      features.push_back(ks.p_value);
    }
  }
  // The internal performance predictor's estimate and the implied relative
  // drop against the clean test score.
  if (options_.use_predictor_feature) {
    BBV_ASSIGN_OR_RETURN(const ScoreEstimate estimate,
                         predictor_.EstimateScoreFromProba(probabilities));
    features.push_back(estimate.point);
    features.push_back(test_score_ > 0.0
                           ? (test_score_ - estimate.point) / test_score_
                           : 0.0);
  }
  return features;
}

common::Result<bool> PerformanceValidator::Validate(
    const ml::BlackBox& model, const data::DataFrame& serving) const {
  BBV_ASSIGN_OR_RETURN(linalg::Matrix probabilities,
                       model.PredictProba(serving));
  return ValidateFromProba(probabilities);
}

common::Result<bool> PerformanceValidator::ValidateFromProba(
    const linalg::Matrix& probabilities) const {
  const common::telemetry::TraceSpan span("validator.validate");
  if (!trained_) {
    return common::Status::FailedPrecondition("Validate before Train");
  }
  BBV_RETURN_NOT_OK(CheckFiniteProbabilities(probabilities));
  // Both decisions read the batch per class against the training classes
  // (the KS features column by column), so a different class count is
  // refused before any feature is built.
  if (probabilities.cols() != test_probabilities_.cols()) {
    return common::Status::InvalidArgument(
        "batch has " + std::to_string(probabilities.cols()) +
        " probability columns, the validator was trained on " +
        std::to_string(test_probabilities_.cols()));
  }
  common::telemetry::IncrementCounter("validator.validate.calls");
  bool verdict = false;
  if (degenerate_) {
    // Decision via the predictor estimate against the threshold.
    BBV_ASSIGN_OR_RETURN(ScoreEstimate estimate,
                         predictor_.EstimateScoreFromProba(probabilities));
    verdict = estimate.point >= (1.0 - options_.threshold) * test_score_;
  } else {
    BBV_ASSIGN_OR_RETURN(const std::vector<double> features,
                         BuildFeatures(probabilities));
    const linalg::Matrix decision = decision_model_.PredictProba(
        linalg::Matrix(1, features.size(), features));
    verdict = decision.At(0, 1) >= decision_threshold_;
  }
  if (!verdict) common::telemetry::IncrementCounter("validator.rejections");
  return verdict;
}

}  // namespace bbv::core

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace bbv::core {

namespace {
constexpr char kValidatorMagic[] = "BBVPV";
constexpr uint32_t kValidatorVersion = 1;
}  // namespace

common::Status PerformanceValidator::Save(common::BinaryWriter& writer) const {
  if (!trained_) {
    return common::Status::FailedPrecondition("Save before Train");
  }
  writer.WriteMagic(kValidatorMagic, kValidatorVersion);
  writer.WriteDouble(options_.threshold);
  writer.WriteInt32(static_cast<int32_t>(options_.metric));
  writer.WriteDoubleVector(options_.percentile_points);
  writer.WriteInt32(options_.use_ks_features ? 1 : 0);
  writer.WriteInt32(options_.use_predictor_feature ? 1 : 0);
  writer.WriteDouble(test_score_);
  writer.WriteInt32(degenerate_ ? 1 : 0);
  writer.WriteInt32(degenerate_label_);
  writer.WriteDouble(decision_threshold_);
  writer.WriteUint64(test_probabilities_.rows());
  writer.WriteUint64(test_probabilities_.cols());
  writer.WriteDoubleVector(test_probabilities_.data());
  BBV_RETURN_NOT_OK(predictor_.Save(writer));
  if (!degenerate_) {
    BBV_RETURN_NOT_OK(decision_model_.Save(writer));
  }
  return common::Status::OK();
}

common::Status PerformanceValidator::Save(std::ostream& out) const {
  return common::SaveToStream(
      out, [&](common::BinaryWriter& writer) { return Save(writer); });
}

common::Result<PerformanceValidator> PerformanceValidator::Load(
    std::istream& in) {
  return common::LoadFromStream(
      in, [](common::BinaryReader& reader) { return Load(reader); });
}

common::Result<PerformanceValidator> PerformanceValidator::Load(
    common::BinaryReader& reader) {
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kValidatorMagic, kValidatorVersion));
  Options options;
  BBV_ASSIGN_OR_RETURN(options.threshold, reader.ReadDouble());
  if (options.threshold <= 0.0 || options.threshold >= 1.0) {
    return common::Status::InvalidArgument("corrupt threshold");
  }
  BBV_ASSIGN_OR_RETURN(int32_t metric, reader.ReadInt32());
  if (metric < 0 || metric > static_cast<int32_t>(ScoreMetric::kRocAuc)) {
    return common::Status::InvalidArgument("corrupt score metric");
  }
  options.metric = static_cast<ScoreMetric>(metric);
  BBV_ASSIGN_OR_RETURN(options.percentile_points, reader.ReadDoubleVector());
  if (options.percentile_points.empty()) {
    return common::Status::InvalidArgument("corrupt percentile grid");
  }
  BBV_ASSIGN_OR_RETURN(int32_t use_ks, reader.ReadInt32());
  options.use_ks_features = use_ks != 0;
  BBV_ASSIGN_OR_RETURN(int32_t use_predictor, reader.ReadInt32());
  options.use_predictor_feature = use_predictor != 0;

  PerformanceValidator validator(options);
  BBV_ASSIGN_OR_RETURN(validator.test_score_, reader.ReadDouble());
  BBV_ASSIGN_OR_RETURN(int32_t degenerate, reader.ReadInt32());
  validator.degenerate_ = degenerate != 0;
  BBV_ASSIGN_OR_RETURN(validator.degenerate_label_, reader.ReadInt32());
  BBV_ASSIGN_OR_RETURN(validator.decision_threshold_, reader.ReadDouble());
  BBV_ASSIGN_OR_RETURN(uint64_t rows, reader.ReadUint64());
  BBV_ASSIGN_OR_RETURN(uint64_t cols, reader.ReadUint64());
  BBV_ASSIGN_OR_RETURN(std::vector<double> values,
                       reader.ReadDoubleVector());
  if (values.size() != rows * cols) {
    return common::Status::InvalidArgument("corrupt retained test outputs");
  }
  validator.test_probabilities_ =
      linalg::Matrix(rows, cols, std::move(values));
  BBV_ASSIGN_OR_RETURN(validator.predictor_,
                       PerformancePredictor::Load(reader));
  // BuildFeatures feeds the validator's statistics to the internal
  // predictor, so both must read the same grid and score.
  if (validator.predictor_.percentile_points() != options.percentile_points ||
      validator.predictor_.options().metric != options.metric) {
    return common::Status::InvalidArgument(
        "internal predictor's percentile grid or score metric differs from "
        "the validator's");
  }
  if (!validator.degenerate_) {
    BBV_ASSIGN_OR_RETURN(validator.decision_model_,
                         ml::GradientBoostedTrees::Load(reader));
  }
  validator.trained_ = true;
  return validator;
}

}  // namespace bbv::core
