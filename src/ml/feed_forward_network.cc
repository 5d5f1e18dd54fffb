#include "ml/feed_forward_network.h"

#include <algorithm>
#include <cmath>

#include "linalg/matrix_io.h"

namespace bbv::ml {

namespace {

constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEpsilon = 1e-8;

void ReluInPlace(linalg::Matrix& m) {
  for (double& v : m.data()) v = std::max(v, 0.0);
}

}  // namespace

common::Status FeedForwardNetwork::Fit(const linalg::Matrix& features,
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
  num_classes_ = num_classes;

  // Layer sizes: input -> hidden... -> classes.
  std::vector<size_t> sizes;
  sizes.push_back(features.cols());
  sizes.insert(sizes.end(), options_.hidden_sizes.begin(),
               options_.hidden_sizes.end());
  sizes.push_back(static_cast<size_t>(num_classes));

  layers_.clear();
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    Layer layer;
    layer.weights = linalg::Matrix(sizes[l], sizes[l + 1]);
    // He initialization for ReLU layers.
    const double scale = std::sqrt(2.0 / static_cast<double>(sizes[l]));
    for (double& w : layer.weights.data()) w = rng.Gaussian(0.0, scale);
    layer.bias.assign(sizes[l + 1], 0.0);
    layer.m_weights = linalg::Matrix(sizes[l], sizes[l + 1]);
    layer.v_weights = linalg::Matrix(sizes[l], sizes[l + 1]);
    layer.m_bias.assign(sizes[l + 1], 0.0);
    layer.v_bias.assign(sizes[l + 1], 0.0);
    layers_.push_back(std::move(layer));
  }

  std::vector<size_t> order(features.rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  size_t step = 0;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += options_.batch_size) {
      const size_t end = std::min(start + options_.batch_size, order.size());
      const std::vector<size_t> batch_rows(order.begin() + start,
                                           order.begin() + end);
      const linalg::Matrix batch = features.SelectRows(batch_rows);
      const double batch_size = static_cast<double>(batch.rows());
      ++step;

      // Forward with optional dropout on hidden activations.
      std::vector<linalg::Matrix> activations;
      activations.reserve(layers_.size() + 1);
      activations.push_back(batch);
      std::vector<std::vector<char>> dropout_masks(layers_.size());
      for (size_t l = 0; l < layers_.size(); ++l) {
        linalg::Matrix z = activations.back().MatMul(layers_[l].weights);
        for (size_t i = 0; i < z.rows(); ++i) {
          for (size_t j = 0; j < z.cols(); ++j) {
            z.At(i, j) += layers_[l].bias[j];
          }
        }
        const bool is_output = l + 1 == layers_.size();
        if (!is_output) {
          ReluInPlace(z);
          if (options_.dropout > 0.0) {
            dropout_masks[l].assign(z.size(), 1);
            const double keep = 1.0 - options_.dropout;
            for (size_t i = 0; i < z.data().size(); ++i) {
              if (rng.Bernoulli(options_.dropout)) {
                z.data()[i] = 0.0;
                dropout_masks[l][i] = 0;
              } else {
                z.data()[i] /= keep;  // inverted dropout
              }
            }
          }
        }
        activations.push_back(std::move(z));
      }
      linalg::Matrix probabilities = linalg::Softmax(activations.back());

      // Backward: delta at output = (p - onehot) / batch.
      linalg::Matrix delta = probabilities;
      for (size_t i = 0; i < batch_rows.size(); ++i) {
        delta.At(i, static_cast<size_t>(labels[batch_rows[i]])) -= 1.0;
      }
      for (double& v : delta.data()) v /= batch_size;

      for (size_t l = layers_.size(); l-- > 0;) {
        Layer& layer = layers_[l];
        const linalg::Matrix grad_w =
            activations[l].Transposed().MatMul(delta);
        std::vector<double> grad_b(layer.bias.size(), 0.0);
        for (size_t i = 0; i < delta.rows(); ++i) {
          for (size_t j = 0; j < delta.cols(); ++j) {
            grad_b[j] += delta.At(i, j);
          }
        }
        // Delta for the previous layer (before updating weights).
        if (l > 0) {
          linalg::Matrix next_delta =
              delta.MatMul(layer.weights.Transposed());
          // Backprop through ReLU (and dropout mask).
          const linalg::Matrix& hidden = activations[l];
          for (size_t i = 0; i < next_delta.data().size(); ++i) {
            if (hidden.data()[i] <= 0.0) next_delta.data()[i] = 0.0;
            if (options_.dropout > 0.0 && !dropout_masks[l - 1].empty() &&
                dropout_masks[l - 1][i] == 0) {
              next_delta.data()[i] = 0.0;
            }
          }
          delta = std::move(next_delta);
        }
        // Adam update.
        const double t = static_cast<double>(step);
        const double correction1 = 1.0 - std::pow(kAdamBeta1, t);
        const double correction2 = 1.0 - std::pow(kAdamBeta2, t);
        for (size_t i = 0; i < layer.weights.data().size(); ++i) {
          const double g =
              grad_w.data()[i] + options_.l2 * layer.weights.data()[i];
          double& m = layer.m_weights.data()[i];
          double& v = layer.v_weights.data()[i];
          m = kAdamBeta1 * m + (1.0 - kAdamBeta1) * g;
          v = kAdamBeta2 * v + (1.0 - kAdamBeta2) * g * g;
          layer.weights.data()[i] -=
              options_.learning_rate * (m / correction1) /
              (std::sqrt(v / correction2) + kAdamEpsilon);
        }
        for (size_t j = 0; j < layer.bias.size(); ++j) {
          double& m = layer.m_bias[j];
          double& v = layer.v_bias[j];
          m = kAdamBeta1 * m + (1.0 - kAdamBeta1) * grad_b[j];
          v = kAdamBeta2 * v + (1.0 - kAdamBeta2) * grad_b[j] * grad_b[j];
          layer.bias[j] -= options_.learning_rate * (m / correction1) /
                           (std::sqrt(v / correction2) + kAdamEpsilon);
        }
      }
    }
  }
  fitted_ = true;
  return common::Status::OK();
}

void FeedForwardNetwork::Forward(
    const linalg::Matrix& input,
    std::vector<linalg::Matrix>& activations) const {
  activations.clear();
  activations.push_back(input);
  for (size_t l = 0; l < layers_.size(); ++l) {
    linalg::Matrix z = activations.back().MatMul(layers_[l].weights);
    for (size_t i = 0; i < z.rows(); ++i) {
      for (size_t j = 0; j < z.cols(); ++j) {
        z.At(i, j) += layers_[l].bias[j];
      }
    }
    if (l + 1 != layers_.size()) ReluInPlace(z);
    activations.push_back(std::move(z));
  }
}

linalg::Matrix FeedForwardNetwork::PredictProba(
    const linalg::Matrix& features) const {
  BBV_CHECK(fitted_) << "PredictProba before Fit";
  std::vector<linalg::Matrix> activations;
  Forward(features, activations);
  return linalg::Softmax(activations.back());
}

}  // namespace bbv::ml

namespace bbv::ml {

namespace {
constexpr char kDnnMagic[] = "BBVNN";
constexpr uint32_t kDnnVersion = 1;
}  // namespace

common::Status FeedForwardNetwork::Save(common::BinaryWriter& writer) const {
  if (!fitted_) {
    return common::Status::FailedPrecondition("Save before Fit");
  }
  writer.WriteMagic(kDnnMagic, kDnnVersion);
  writer.WriteInt32(num_classes_);
  writer.WriteUint64(layers_.size());
  for (const Layer& layer : layers_) {
    linalg::WriteMatrix(writer, layer.weights);
    writer.WriteDoubleVector(layer.bias);
  }
  return common::Status::OK();
}

common::Status FeedForwardNetwork::Save(std::ostream& out) const {
  return common::SaveToStream(
      out, [&](common::BinaryWriter& writer) { return Save(writer); });
}

common::Result<FeedForwardNetwork> FeedForwardNetwork::Load(std::istream& in) {
  return common::LoadFromStream(
      in, [](common::BinaryReader& reader) { return Load(reader); });
}

common::Result<FeedForwardNetwork> FeedForwardNetwork::Load(
    common::BinaryReader& reader) {
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kDnnMagic, kDnnVersion));
  FeedForwardNetwork model;
  BBV_ASSIGN_OR_RETURN(model.num_classes_, reader.ReadInt32());
  BBV_ASSIGN_OR_RETURN(uint64_t layer_count, reader.ReadUint64());
  if (model.num_classes_ < 2 || layer_count == 0 || layer_count > 1000) {
    return common::Status::InvalidArgument("corrupt network header");
  }
  model.layers_.resize(layer_count);
  for (Layer& layer : model.layers_) {
    BBV_ASSIGN_OR_RETURN(layer.weights, linalg::ReadMatrix(reader));
    BBV_ASSIGN_OR_RETURN(layer.bias, reader.ReadDoubleVector());
    if (layer.bias.size() != layer.weights.cols()) {
      return common::Status::InvalidArgument("corrupt layer shapes");
    }
  }
  if (model.layers_.back().weights.cols() !=
      static_cast<size_t>(model.num_classes_)) {
    return common::Status::InvalidArgument("output layer width mismatch");
  }
  model.fitted_ = true;
  return model;
}

}  // namespace bbv::ml
