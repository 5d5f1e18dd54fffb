#ifndef BBV_ML_DECISION_TREE_H_
#define BBV_ML_DECISION_TREE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "ml/classifier.h"

namespace bbv::ml {

class FeatureBinning;
class FeatureOrder;
class SortedSegments;

/// Shared tree-growing configuration.
struct TreeOptions {
  int max_depth = 6;
  size_t min_samples_leaf = 2;
  /// Fraction of features examined per split (1.0 = all; random forests use
  /// a subsample for decorrelation).
  double feature_fraction = 1.0;
  /// Minimum impurity decrease to accept a split.
  double min_impurity_decrease = 1e-9;
  /// Opt-in histogram split search for RegressionTree: scan the uint8
  /// quantile-bin histograms of a FeatureBinning (built once per ensemble
  /// Fit, or locally when the caller passes none) instead of the exact
  /// search's presorted (value, target) segments, which it partitions at
  /// every split. The histograms need no per-split partition and a node
  /// scans at most 255 cuts per feature, but thresholds are restricted to
  /// those cut values, so binned trees are a (deterministic, thread-count
  /// independent) approximation of the exact search; exact stays the
  /// default. Ignored by DecisionTreeClassifier.
  bool binned_split_search = false;
};

/// The option check every tree and ensemble Fit runs before it fits a
/// tree. InvalidArgument when tree.feature_fraction or `row_fraction` (an
/// ensemble's bootstrap or subsample fraction; 1.0 for a lone tree) is NaN,
/// infinite or negative, or when `sample_rows`, the number of rows one
/// tree fits on, does not fit the uint32 ids of the exact split search.
common::Status CheckFitOptions(const TreeOptions& tree, double row_fraction,
                               double sample_rows);

/// CART regression tree (variance-reduction splits, mean leaves). Used as
/// the weak learner inside the random-forest regressor and the
/// gradient-boosted classifier.
class RegressionTree {
 public:
  /// One tree node in the pointer-free index representation the tree is
  /// grown into. Exposed read-only (see nodes()) so ml::ForestKernel can
  /// compile fitted ensembles into its flattened inference layout.
  struct Node {
    int32_t feature = -1;     // -1 marks a leaf
    double threshold = 0.0;   // go left when x[feature] <= threshold
    int32_t left = -1;
    int32_t right = -1;
    double value = 0.0;       // leaf prediction
  };

  explicit RegressionTree(TreeOptions options = {}) : options_(options) {}

  /// Fits the tree on rows `rows` of `features` (ids may repeat, as in a
  /// bootstrap sample) against `targets` (full column, indexed by row id).
  /// When options.binned_split_search is set, `binning` is the shared
  /// pre-binning of `features` (row-count and feature-count matched); pass
  /// nullptr to have the tree build a local one. Otherwise `order` is the
  /// shared FeatureOrder::Build(features, targets) of the same features and
  /// targets; pass nullptr to have the tree sort its own rows once per
  /// feature. InvalidArgument on a NaN or +-inf feature value or target.
  common::Status Fit(const linalg::Matrix& features,
                     const std::vector<double>& targets,
                     const std::vector<size_t>& rows, common::Rng& rng,
                     const FeatureBinning* binning = nullptr,
                     const FeatureOrder* order = nullptr);

  /// Convenience: fit on all rows.
  common::Status Fit(const linalg::Matrix& features,
                     const std::vector<double>& targets, common::Rng& rng,
                     const FeatureBinning* binning = nullptr);

  /// Prediction for one feature row. This is the scalar node-walking path —
  /// the legacy reference the flattened ForestKernel is proven bit-identical
  /// against — and the right call for single rows (e.g. while an ensemble is
  /// still growing); batch prediction over a whole ensemble should go
  /// through the kernel instead.
  double PredictRow(const double* row) const;

  /// Predictions for every row of `features`.
  std::vector<double> Predict(const linalg::Matrix& features) const;

  /// Allocation-free batch surface: writes one prediction per row of
  /// `features` into `out` (whose size must equal features.rows()).
  void PredictInto(const linalg::Matrix& features,
                   std::span<double> out) const;

  size_t NumNodes() const { return nodes_.size(); }

  /// Read-only view of the grown nodes (node 0 is the root); the input
  /// ml::ForestKernel::Compile flattens.
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Persists the fitted tree structure (not the training options).
  void Save(common::BinaryWriter& writer) const;

  /// Restores a tree persisted with Save.
  static common::Result<RegressionTree> Load(common::BinaryReader& reader);

 private:
  int32_t Grow(const linalg::Matrix& features,
               const std::vector<double>& targets, std::vector<size_t>& rows,
               size_t begin, size_t end, int depth, common::Rng& rng);

  TreeOptions options_;
  std::vector<Node> nodes_;
  /// Active only inside Fit when the binned search is enabled.
  const FeatureBinning* binning_ = nullptr;
  /// Active only inside Fit when the exact search is enabled; points at
  /// buffers local to that Fit.
  SortedSegments* segments_ = nullptr;
};

/// CART classification tree (Gini splits, class-frequency leaves). Included
/// as one of the model families the AutoML search explores.
class DecisionTreeClassifier : public Classifier {
 public:
  explicit DecisionTreeClassifier(TreeOptions options = {})
      : options_(options) {}

  common::Status Fit(const linalg::Matrix& features,
                     const std::vector<int>& labels, int num_classes,
                     common::Rng& rng) override;
  linalg::Matrix PredictProba(const linalg::Matrix& features) const override;
  std::string Name() const override { return "cart"; }

  /// Persists the fitted tree; Load restores bit-identical inference.
  common::Status Save(common::BinaryWriter& writer) const;
  common::Status Save(std::ostream& out) const;
  static common::Result<DecisionTreeClassifier> Load(
      common::BinaryReader& reader);
  static common::Result<DecisionTreeClassifier> Load(std::istream& in);

 private:
  struct Node {
    int32_t feature = -1;
    double threshold = 0.0;
    int32_t left = -1;
    int32_t right = -1;
    std::vector<double> class_probabilities;  // leaf payload
  };

  int32_t Grow(const linalg::Matrix& features, const std::vector<int>& labels,
               std::vector<size_t>& rows, size_t begin, size_t end, int depth,
               common::Rng& rng);

  TreeOptions options_;
  std::vector<Node> nodes_;
  /// Active only inside Fit; points at buffers local to that Fit.
  SortedSegments* segments_ = nullptr;
};

}  // namespace bbv::ml

#endif  // BBV_ML_DECISION_TREE_H_
