#ifndef BBV_ML_BLACK_BOX_H_
#define BBV_ML_BLACK_BOX_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "common/serialize.h"
#include "data/dataframe.h"
#include "data/dataset.h"
#include "featurize/pipeline.h"
#include "linalg/matrix.h"
#include "ml/classifier.h"

namespace bbv::ml {

/// The only surface the validation layer may touch: class probabilities for
/// a batch of relational data. Models, feature maps, and hosting (local or
/// simulated-cloud) all hide behind this interface — the `predict_proba`
/// contract from the paper's problem statement.
///
/// Contract: PredictProba is row-independent. Row i of the result depends
/// only on row i of `frame`, never on which other rows share the frame or
/// on their order, so predicting a frame equals, bit for bit, predicting
/// any split of it and stacking the pieces. Algorithm 1's collectors rely on
/// this: a corrupted row that is bit-for-bit equal to its clean row reuses
/// the clean row's output instead of being sent to the model again.
class BlackBox {
 public:
  virtual ~BlackBox() = default;

  /// Class probabilities (n x num_classes) for the rows of `frame`;
  /// row-independent (see the class comment).
  virtual common::Result<linalg::Matrix> PredictProba(
      const data::DataFrame& frame) const = 0;

  /// Number of classes the model predicts.
  virtual int num_classes() const = 0;

  /// Short identifier for reports, e.g. "lr" or "cloud-automl".
  virtual std::string Name() const = 0;
};

/// A locally trained black box: an internal feature pipeline (unknown to the
/// caller in the paper's setting) plus a classifier.
class BlackBoxModel : public BlackBox {
 public:
  BlackBoxModel(featurize::PipelineOptions pipeline_options,
                std::unique_ptr<Classifier> classifier)
      : pipeline_(pipeline_options), classifier_(std::move(classifier)) {
    BBV_CHECK(classifier_ != nullptr);
  }

  /// Convenience constructor with default featurization.
  explicit BlackBoxModel(std::unique_ptr<Classifier> classifier)
      : BlackBoxModel(featurize::PipelineOptions{}, std::move(classifier)) {}

  /// Fits the feature pipeline and the classifier on `train`.
  common::Status Train(const data::Dataset& train, common::Rng& rng);

  common::Result<linalg::Matrix> PredictProba(
      const data::DataFrame& frame) const override;
  int num_classes() const override { return classifier_->num_classes(); }
  std::string Name() const override { return classifier_->Name(); }

  /// Accuracy of argmax predictions on a labeled dataset.
  common::Result<double> ScoreAccuracy(const data::Dataset& dataset) const;

  /// ROC-AUC on a labeled binary dataset.
  common::Result<double> ScoreAuc(const data::Dataset& dataset) const;

  /// Persists the trained model (feature pipeline + classifier) so it can
  /// be redeployed without retraining.
  common::Status Save(std::ostream& out) const;
  static common::Result<std::unique_ptr<BlackBoxModel>> Load(std::istream& in);

 private:
  /// Archive cores of the stream overloads.
  common::Status Save(common::BinaryWriter& writer) const;
  static common::Result<std::unique_ptr<BlackBoxModel>> Load(
      common::BinaryReader& reader);

  featurize::FeaturePipeline pipeline_;
  std::unique_ptr<Classifier> classifier_;
  bool trained_ = false;
};

}  // namespace bbv::ml

#endif  // BBV_ML_BLACK_BOX_H_
