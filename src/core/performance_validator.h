#ifndef BBV_CORE_PERFORMANCE_VALIDATOR_H_
#define BBV_CORE_PERFORMANCE_VALIDATOR_H_

#include <vector>

#include "common/result.h"
#include "common/serialize.h"
#include "common/rng.h"
#include "core/performance_predictor.h"
#include "data/dataset.h"
#include "errors/error_gen.h"
#include "ml/black_box.h"
#include "ml/gradient_boosted_trees.h"

namespace bbv::core {

/// The paper's performance *validator* (PPM in the evaluation): a binary
/// classifier that decides whether the black box model's quality on a
/// serving batch stays within a user-defined relative drop threshold t of
/// its held-out test score, i.e. whether
///   L(serving) >= (1 - t) * L(test).
/// It is trained on corrupted copies of the test set. Its features combine
/// the output percentiles, an internal performance predictor's score
/// estimate, and Kolmogorov-Smirnov statistics between the model's outputs
/// on the (possibly corrupted) batch and its retained outputs on the clean
/// test set (the paper keeps Y-hat_test around exactly for this).
class PerformanceValidator {
 public:
  struct Options {
    /// Acceptable relative quality drop, e.g. 0.05 for 5%.
    double threshold = 0.05;
    /// Corrupted copies of D_test per generator for meta-training.
    int corruptions_per_generator = 100;
    int clean_copies = 5;
    std::vector<double> percentile_points;
    ScoreMetric metric = ScoreMetric::kAccuracy;
    /// When non-zero, every meta-training example is computed on a random
    /// row subset of this size (set to the expected serving batch size so
    /// the percentile and KS features carry the same sampling noise at
    /// training and validation time).
    size_t meta_batch_size = 0;
    /// Ablation switches: drop the Kolmogorov-Smirnov features or the
    /// internal predictor's estimate from the decision model's inputs.
    bool use_ks_features = true;
    bool use_predictor_feature = true;
    /// Configuration of the gradient-boosted decision tree that makes the
    /// accept/reject decision (paper §4).
    ml::GradientBoostedTrees::Options gbdt = [] {
      ml::GradientBoostedTrees::Options options;
      options.num_rounds = 40;
      return options;
    }();
    /// Tree-count grid of the internal performance predictor whose estimate
    /// is one of the validator's features. The predictor takes the grid,
    /// metric and collection fields above and shares their corruption pass.
    std::vector<int> predictor_tree_count_grid = {50};
  };

  PerformanceValidator() : PerformanceValidator(Options{}) {}
  explicit PerformanceValidator(Options options);

  /// Meta-trains the validator: corrupts `test` with each generator,
  /// labels each corrupted copy by whether the model's true score stayed
  /// within the threshold, and fits the GBDT on the combined features.
  common::Status Train(
      const ml::BlackBox& model, const data::Dataset& test,
      const std::vector<const errors::ErrorGen*>& generators,
      common::Rng& rng);

  /// True if the predictions on `serving` can be relied upon (quality drop
  /// within the threshold), false if an alarm should be raised.
  common::Result<bool> Validate(const ml::BlackBox& model,
                                const data::DataFrame& serving) const;

  /// Validation decision from precomputed model outputs; InvalidArgument
  /// when any probability is NaN or infinite (CheckFiniteProbabilities).
  common::Result<bool> ValidateFromProba(
      const linalg::Matrix& probabilities) const;

  /// Persists the trained validator (decision model, retained test
  /// outputs, internal predictor and configuration) for deployment.
  common::Status Save(std::ostream& out) const;
  static common::Result<PerformanceValidator> Load(std::istream& in);

  double threshold() const { return options_.threshold; }
  double test_score() const { return test_score_; }
  bool trained() const { return trained_; }

 private:
  /// Archive cores of the stream overloads.
  common::Status Save(common::BinaryWriter& writer) const;
  static common::Result<PerformanceValidator> Load(
      common::BinaryReader& reader);

  /// Feature vector: percentiles + per-class KS statistic/p-value against
  /// the retained test outputs + internal predictor estimate.
  common::Result<std::vector<double>> BuildFeatures(
      const linalg::Matrix& probabilities) const;

  Options options_;
  bool trained_ = false;
  bool degenerate_ = false;  // meta-training saw only one class
  int degenerate_label_ = 1;
  /// Decision operating point: accept when P(ok) >= this. Calibrated on
  /// the meta-training examples to maximize the alarm-class F1, which
  /// corrects the class imbalance at loose thresholds (few violations).
  double decision_threshold_ = 0.5;
  double test_score_ = 0.0;
  linalg::Matrix test_probabilities_;  // retained Y-hat_test
  PerformancePredictor predictor_;
  ml::GradientBoostedTrees decision_model_;
};

}  // namespace bbv::core

#endif  // BBV_CORE_PERFORMANCE_VALIDATOR_H_
