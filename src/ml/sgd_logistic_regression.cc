#include "ml/sgd_logistic_regression.h"

#include <algorithm>
#include <cmath>

#include "linalg/matrix_io.h"

namespace bbv::ml {

common::Status SgdLogisticRegression::Fit(const linalg::Matrix& features,
                                          const std::vector<int>& labels,
                                          int num_classes, common::Rng& rng) {
  if (features.rows() != labels.size()) {
    return common::Status::InvalidArgument(
        "features and labels disagree on the number of rows");
  }
  if (features.rows() == 0) {
    return common::Status::InvalidArgument("cannot fit on an empty matrix");
  }
  if (num_classes < 2) {
    return common::Status::InvalidArgument("need at least two classes");
  }
  const size_t d = features.cols();
  const auto m = static_cast<size_t>(num_classes);
  num_classes_ = num_classes;
  weights_ = linalg::Matrix(d, m);
  bias_.assign(m, 0.0);
  // Small random init breaks symmetry between classes.
  for (double& w : weights_.data()) w = rng.Gaussian(0.0, 0.01);

  std::vector<size_t> order(features.rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  size_t step = 0;
  std::vector<double> logits(m);
  std::vector<double> probabilities(m);
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += options_.batch_size) {
      const size_t end =
          std::min(start + options_.batch_size, order.size());
      const double batch = static_cast<double>(end - start);
      ++step;
      const double eta =
          options_.learning_rate /
          std::pow(static_cast<double>(step), options_.decay_power);
      // Accumulate gradients over the batch.
      linalg::Matrix grad_w(d, m);
      std::vector<double> grad_b(m, 0.0);
      for (size_t index = start; index < end; ++index) {
        const size_t row = order[index];
        const double* x = features.RowData(row);
        for (size_t k = 0; k < m; ++k) {
          double z = bias_[k];
          for (size_t j = 0; j < d; ++j) z += x[j] * weights_.At(j, k);
          logits[k] = z;
        }
        const double max_logit =
            *std::max_element(logits.begin(), logits.end());
        double sum = 0.0;
        for (size_t k = 0; k < m; ++k) {
          probabilities[k] = std::exp(logits[k] - max_logit);
          sum += probabilities[k];
        }
        for (size_t k = 0; k < m; ++k) {
          const double error =
              probabilities[k] / sum -
              (static_cast<int>(k) == labels[row] ? 1.0 : 0.0);
          grad_b[k] += error;
          for (size_t j = 0; j < d; ++j) {
            // bbv-lint: allow(float-eq) exact-zero sparsity skip
            if (x[j] != 0.0) grad_w.At(j, k) += error * x[j];
          }
        }
      }
      // Parameter update with regularization.
      for (size_t j = 0; j < d; ++j) {
        for (size_t k = 0; k < m; ++k) {
          double& w = weights_.At(j, k);
          double gradient = grad_w.At(j, k) / batch;
          if (options_.penalty == Penalty::kL2) {
            gradient += options_.regularization * w;
          } else if (options_.penalty == Penalty::kL1) {
            gradient += options_.regularization * (w > 0 ? 1.0 : (w < 0 ? -1.0 : 0.0));
          }
          w -= eta * gradient;
        }
      }
      for (size_t k = 0; k < m; ++k) {
        bias_[k] -= eta * grad_b[k] / batch;
      }
    }
  }
  fitted_ = true;
  return common::Status::OK();
}

linalg::Matrix SgdLogisticRegression::PredictProba(
    const linalg::Matrix& features) const {
  BBV_CHECK(fitted_) << "PredictProba before Fit";
  BBV_CHECK_EQ(features.cols(), weights_.rows());
  linalg::Matrix logits = features.MatMul(weights_);
  for (size_t i = 0; i < logits.rows(); ++i) {
    for (size_t k = 0; k < logits.cols(); ++k) {
      logits.At(i, k) += bias_[k];
    }
  }
  return linalg::Softmax(logits);
}

}  // namespace bbv::ml

namespace bbv::ml {

namespace {
constexpr char kLrMagic[] = "BBVLR";
constexpr uint32_t kLrVersion = 1;
}  // namespace

common::Status SgdLogisticRegression::Save(common::BinaryWriter& writer) const {
  if (!fitted_) {
    return common::Status::FailedPrecondition("Save before Fit");
  }
  writer.WriteMagic(kLrMagic, kLrVersion);
  writer.WriteInt32(num_classes_);
  linalg::WriteMatrix(writer, weights_);
  writer.WriteDoubleVector(bias_);
  return common::Status::OK();
}

common::Status SgdLogisticRegression::Save(std::ostream& out) const {
  return common::SaveToStream(
      out, [&](common::BinaryWriter& writer) { return Save(writer); });
}

common::Result<SgdLogisticRegression> SgdLogisticRegression::Load(
    std::istream& in) {
  return common::LoadFromStream(
      in, [](common::BinaryReader& reader) { return Load(reader); });
}

common::Result<SgdLogisticRegression> SgdLogisticRegression::Load(
    common::BinaryReader& reader) {
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kLrMagic, kLrVersion));
  SgdLogisticRegression model;
  BBV_ASSIGN_OR_RETURN(model.num_classes_, reader.ReadInt32());
  BBV_ASSIGN_OR_RETURN(model.weights_, linalg::ReadMatrix(reader));
  BBV_ASSIGN_OR_RETURN(model.bias_, reader.ReadDoubleVector());
  if (model.num_classes_ < 2 ||
      model.weights_.cols() != static_cast<size_t>(model.num_classes_) ||
      model.bias_.size() != model.weights_.cols()) {
    return common::Status::InvalidArgument("corrupt logistic regression");
  }
  model.fitted_ = true;
  return model;
}

}  // namespace bbv::ml
