#ifndef BBV_ML_SGD_LOGISTIC_REGRESSION_H_
#define BBV_ML_SGD_LOGISTIC_REGRESSION_H_

#include <string>
#include <vector>

#include "common/serialize.h"
#include "ml/classifier.h"

namespace bbv::ml {

/// Regularization penalty for linear models.
enum class Penalty { kNone, kL1, kL2 };

/// Multinomial logistic regression trained by mini-batch SGD — the C++
/// analogue of scikit-learn's SGDClassifier(loss="log") the paper uses as
/// its `lr` model. Deliberately does not clip or re-scale inputs, so scaling
/// corruptions drive the logits into saturation just like the paper's
/// footnote about numeric overflows in SGDClassifier.
class SgdLogisticRegression : public Classifier {
 public:
  struct Options {
    int epochs = 50;
    size_t batch_size = 32;
    double learning_rate = 0.1;
    /// Inverse-scaling learning-rate decay exponent (eta_t = eta0 / t^power).
    double decay_power = 0.25;
    Penalty penalty = Penalty::kL2;
    double regularization = 1e-4;
  };

  SgdLogisticRegression() : SgdLogisticRegression(Options{}) {}
  explicit SgdLogisticRegression(Options options) : options_(options) {}

  common::Status Fit(const linalg::Matrix& features,
                     const std::vector<int>& labels, int num_classes,
                     common::Rng& rng) override;
  linalg::Matrix PredictProba(const linalg::Matrix& features) const override;
  std::string Name() const override { return "lr"; }

  const linalg::Matrix& weights() const { return weights_; }
  const std::vector<double>& bias() const { return bias_; }

  /// Persists the fitted weights; Load restores bit-identical inference.
  common::Status Save(common::BinaryWriter& writer) const;
  common::Status Save(std::ostream& out) const;
  static common::Result<SgdLogisticRegression> Load(
      common::BinaryReader& reader);
  static common::Result<SgdLogisticRegression> Load(std::istream& in);

 private:
  Options options_;
  bool fitted_ = false;
  linalg::Matrix weights_;  // d x m
  std::vector<double> bias_;  // m
};

}  // namespace bbv::ml

#endif  // BBV_ML_SGD_LOGISTIC_REGRESSION_H_
