#include "ml/conv_net.h"

#include <algorithm>
#include <cmath>

namespace bbv::ml {

namespace {

constexpr size_t kKernel = 3;
constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEpsilon = 1e-8;

/// Adam optimizer state for one flat parameter buffer.
struct AdamState {
  std::vector<double> m;
  std::vector<double> v;

  explicit AdamState(size_t size) : m(size, 0.0), v(size, 0.0) {}

  void Update(std::vector<double>& params, const std::vector<double>& grads,
              double learning_rate, double step) {
    const double correction1 = 1.0 - std::pow(kAdamBeta1, step);
    const double correction2 = 1.0 - std::pow(kAdamBeta2, step);
    for (size_t i = 0; i < params.size(); ++i) {
      m[i] = kAdamBeta1 * m[i] + (1.0 - kAdamBeta1) * grads[i];
      v[i] = kAdamBeta2 * v[i] + (1.0 - kAdamBeta2) * grads[i] * grads[i];
      params[i] -= learning_rate * (m[i] / correction1) /
                   (std::sqrt(v[i] / correction2) + kAdamEpsilon);
    }
  }
};

void SoftmaxInPlace(std::vector<double>& logits) {
  const double max = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double& z : logits) {
    z = std::exp(z - max);
    sum += z;
  }
  for (double& z : logits) z /= sum;
}

}  // namespace

/// Per-sample forward buffers (post-activation values plus pooling argmax
/// and dropout mask for the backward pass).
struct ConvNet::Activations {
  std::vector<double> conv1;        // C1 * conv1_out^2 (post-ReLU)
  std::vector<double> conv2;        // C2 * conv2_out^2 (post-ReLU)
  std::vector<double> pool;         // C2 * pool_out^2
  std::vector<size_t> pool_argmax;  // flat index into conv2
  std::vector<double> dense;        // D (post-ReLU, post-dropout)
  std::vector<char> dense_mask;     // dropout keep mask
  std::vector<double> logits;       // m
};

common::Status ConvNet::Fit(const linalg::Matrix& features,
                            const std::vector<int>& labels, int num_classes,
                            common::Rng& rng) {
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
  side_ = options_.image_side;
  if (side_ == 0) {
    side_ = static_cast<size_t>(std::lround(
        std::sqrt(static_cast<double>(features.cols()))));
  }
  if (side_ * side_ != features.cols()) {
    return common::Status::InvalidArgument(
        "feature width is not a square image size");
  }
  if (side_ < 8) {
    return common::Status::InvalidArgument(
        "images must be at least 8x8 for this architecture");
  }
  num_classes_ = num_classes;
  conv1_out_ = side_ - 2;
  conv2_out_ = side_ - 4;
  pool_out_ = conv2_out_ / 2;

  const size_t c1 = options_.conv1_channels;
  const size_t c2 = options_.conv2_channels;
  const size_t d = options_.dense_units;
  const auto m = static_cast<size_t>(num_classes);
  const size_t flat = c2 * pool_out_ * pool_out_;

  auto he_init = [&](std::vector<double>& buffer, size_t size,
                     size_t fan_in) {
    buffer.resize(size);
    const double scale = std::sqrt(2.0 / static_cast<double>(fan_in));
    for (double& w : buffer) w = rng.Gaussian(0.0, scale);
  };
  he_init(conv1_kernels_, c1 * kKernel * kKernel, kKernel * kKernel);
  conv1_bias_.assign(c1, 0.0);
  he_init(conv2_kernels_, c2 * c1 * kKernel * kKernel,
          c1 * kKernel * kKernel);
  conv2_bias_.assign(c2, 0.0);
  he_init(dense_weights_, flat * d, flat);
  dense_bias_.assign(d, 0.0);
  he_init(out_weights_, d * m, d);
  out_bias_.assign(m, 0.0);

  AdamState adam_k1(conv1_kernels_.size());
  AdamState adam_b1(conv1_bias_.size());
  AdamState adam_k2(conv2_kernels_.size());
  AdamState adam_b2(conv2_bias_.size());
  AdamState adam_wd(dense_weights_.size());
  AdamState adam_bd(dense_bias_.size());
  AdamState adam_wo(out_weights_.size());
  AdamState adam_bo(out_bias_.size());

  std::vector<double> grad_k1(conv1_kernels_.size());
  std::vector<double> grad_b1(conv1_bias_.size());
  std::vector<double> grad_k2(conv2_kernels_.size());
  std::vector<double> grad_b2(conv2_bias_.size());
  std::vector<double> grad_wd(dense_weights_.size());
  std::vector<double> grad_bd(dense_bias_.size());
  std::vector<double> grad_wo(out_weights_.size());
  std::vector<double> grad_bo(out_bias_.size());

  Activations acts;
  std::vector<double> dlogits(m);
  std::vector<double> ddense(d);
  std::vector<double> dflat(flat);
  std::vector<double> dconv2(c2 * conv2_out_ * conv2_out_);
  std::vector<double> dconv1(c1 * conv1_out_ * conv1_out_);

  std::vector<size_t> order(features.rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  size_t step = 0;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += options_.batch_size) {
      const size_t end = std::min(start + options_.batch_size, order.size());
      const double batch = static_cast<double>(end - start);
      ++step;
      auto zero = [](std::vector<double>& g) {
        std::fill(g.begin(), g.end(), 0.0);
      };
      zero(grad_k1); zero(grad_b1); zero(grad_k2); zero(grad_b2);
      zero(grad_wd); zero(grad_bd); zero(grad_wo); zero(grad_bo);

      for (size_t index = start; index < end; ++index) {
        const size_t row = order[index];
        const double* image = features.RowData(row);
        Forward(image, acts, &rng);

        // Output gradient.
        for (size_t k = 0; k < m; ++k) {
          dlogits[k] = acts.logits[k] -
                       (labels[row] == static_cast<int>(k) ? 1.0 : 0.0);
        }
        // Dense layer backward.
        std::fill(ddense.begin(), ddense.end(), 0.0);
        for (size_t u = 0; u < d; ++u) {
          for (size_t k = 0; k < m; ++k) {
            grad_wo[u * m + k] += acts.dense[u] * dlogits[k];
            ddense[u] += out_weights_[u * m + k] * dlogits[k];
          }
          if (acts.dense[u] <= 0.0 || acts.dense_mask[u] == 0) {
            ddense[u] = 0.0;
          }
        }
        for (size_t k = 0; k < m; ++k) grad_bo[k] += dlogits[k];
        // Flatten backward.
        std::fill(dflat.begin(), dflat.end(), 0.0);
        for (size_t f = 0; f < flat; ++f) {
          const double pooled = acts.pool[f];
          for (size_t u = 0; u < d; ++u) {
            grad_wd[f * d + u] += pooled * ddense[u];
            dflat[f] += dense_weights_[f * d + u] * ddense[u];
          }
        }
        for (size_t u = 0; u < d; ++u) grad_bd[u] += ddense[u];
        // Unpool.
        std::fill(dconv2.begin(), dconv2.end(), 0.0);
        for (size_t f = 0; f < flat; ++f) {
          dconv2[acts.pool_argmax[f]] += dflat[f];
        }
        // ReLU mask on conv2.
        for (size_t i = 0; i < dconv2.size(); ++i) {
          if (acts.conv2[i] <= 0.0) dconv2[i] = 0.0;
        }
        // Conv2 backward (kernel grads + input grads).
        std::fill(dconv1.begin(), dconv1.end(), 0.0);
        for (size_t b = 0; b < c2; ++b) {
          for (size_t i = 0; i < conv2_out_; ++i) {
            for (size_t j = 0; j < conv2_out_; ++j) {
              const double g =
                  dconv2[(b * conv2_out_ + i) * conv2_out_ + j];
              // bbv-lint: allow(float-eq) exact-zero sparsity skip
              if (g == 0.0) continue;
              grad_b2[b] += g;
              for (size_t a = 0; a < c1; ++a) {
                const size_t kernel_base =
                    ((b * c1 + a) * kKernel) * kKernel;
                const size_t act_base = a * conv1_out_ * conv1_out_;
                for (size_t di = 0; di < kKernel; ++di) {
                  const size_t in_row = (i + di) * conv1_out_ + j;
                  for (size_t dj = 0; dj < kKernel; ++dj) {
                    grad_k2[kernel_base + di * kKernel + dj] +=
                        g * acts.conv1[act_base + in_row + dj];
                    dconv1[act_base + in_row + dj] +=
                        g * conv2_kernels_[kernel_base + di * kKernel + dj];
                  }
                }
              }
            }
          }
        }
        // ReLU mask on conv1 and conv1 backward (kernel grads only).
        for (size_t a = 0; a < c1; ++a) {
          for (size_t i = 0; i < conv1_out_; ++i) {
            for (size_t j = 0; j < conv1_out_; ++j) {
              const size_t idx = (a * conv1_out_ + i) * conv1_out_ + j;
              if (acts.conv1[idx] <= 0.0) continue;
              const double g = dconv1[idx];
              // bbv-lint: allow(float-eq) exact-zero sparsity skip
              if (g == 0.0) continue;
              grad_b1[a] += g;
              for (size_t di = 0; di < kKernel; ++di) {
                for (size_t dj = 0; dj < kKernel; ++dj) {
                  grad_k1[(a * kKernel + di) * kKernel + dj] +=
                      g * image[(i + di) * side_ + (j + dj)];
                }
              }
            }
          }
        }
      }

      auto scale = [&](std::vector<double>& g) {
        for (double& v : g) v /= batch;
      };
      scale(grad_k1); scale(grad_b1); scale(grad_k2); scale(grad_b2);
      scale(grad_wd); scale(grad_bd); scale(grad_wo); scale(grad_bo);
      const double t = static_cast<double>(step);
      adam_k1.Update(conv1_kernels_, grad_k1, options_.learning_rate, t);
      adam_b1.Update(conv1_bias_, grad_b1, options_.learning_rate, t);
      adam_k2.Update(conv2_kernels_, grad_k2, options_.learning_rate, t);
      adam_b2.Update(conv2_bias_, grad_b2, options_.learning_rate, t);
      adam_wd.Update(dense_weights_, grad_wd, options_.learning_rate, t);
      adam_bd.Update(dense_bias_, grad_bd, options_.learning_rate, t);
      adam_wo.Update(out_weights_, grad_wo, options_.learning_rate, t);
      adam_bo.Update(out_bias_, grad_bo, options_.learning_rate, t);
    }
  }
  fitted_ = true;
  return common::Status::OK();
}

void ConvNet::Forward(const double* image, Activations& acts,
                      common::Rng* dropout_rng) const {
  const size_t c1 = options_.conv1_channels;
  const size_t c2 = options_.conv2_channels;
  const size_t d = options_.dense_units;
  const auto m = static_cast<size_t>(num_classes_);
  const size_t flat = c2 * pool_out_ * pool_out_;

  acts.conv1.assign(c1 * conv1_out_ * conv1_out_, 0.0);
  for (size_t a = 0; a < c1; ++a) {
    const double* kernel = &conv1_kernels_[a * kKernel * kKernel];
    for (size_t i = 0; i < conv1_out_; ++i) {
      for (size_t j = 0; j < conv1_out_; ++j) {
        double sum = conv1_bias_[a];
        for (size_t di = 0; di < kKernel; ++di) {
          const double* in_row = image + (i + di) * side_ + j;
          const double* k_row = kernel + di * kKernel;
          sum += k_row[0] * in_row[0] + k_row[1] * in_row[1] +
                 k_row[2] * in_row[2];
        }
        acts.conv1[(a * conv1_out_ + i) * conv1_out_ + j] =
            std::max(sum, 0.0);
      }
    }
  }

  acts.conv2.assign(c2 * conv2_out_ * conv2_out_, 0.0);
  for (size_t b = 0; b < c2; ++b) {
    for (size_t i = 0; i < conv2_out_; ++i) {
      for (size_t j = 0; j < conv2_out_; ++j) {
        double sum = conv2_bias_[b];
        for (size_t a = 0; a < c1; ++a) {
          const double* kernel =
              &conv2_kernels_[((b * c1 + a) * kKernel) * kKernel];
          const double* act = &acts.conv1[a * conv1_out_ * conv1_out_];
          for (size_t di = 0; di < kKernel; ++di) {
            const double* in_row = act + (i + di) * conv1_out_ + j;
            const double* k_row = kernel + di * kKernel;
            sum += k_row[0] * in_row[0] + k_row[1] * in_row[1] +
                   k_row[2] * in_row[2];
          }
        }
        acts.conv2[(b * conv2_out_ + i) * conv2_out_ + j] =
            std::max(sum, 0.0);
      }
    }
  }

  acts.pool.assign(flat, 0.0);
  acts.pool_argmax.assign(flat, 0);
  for (size_t b = 0; b < c2; ++b) {
    for (size_t p = 0; p < pool_out_; ++p) {
      for (size_t q = 0; q < pool_out_; ++q) {
        double best = -1e300;
        size_t best_index = 0;
        for (size_t di = 0; di < 2; ++di) {
          for (size_t dj = 0; dj < 2; ++dj) {
            const size_t idx =
                (b * conv2_out_ + 2 * p + di) * conv2_out_ + 2 * q + dj;
            if (acts.conv2[idx] > best) {
              best = acts.conv2[idx];
              best_index = idx;
            }
          }
        }
        const size_t f = (b * pool_out_ + p) * pool_out_ + q;
        acts.pool[f] = best;
        acts.pool_argmax[f] = best_index;
      }
    }
  }

  acts.dense.assign(d, 0.0);
  acts.dense_mask.assign(d, 1);
  for (size_t u = 0; u < d; ++u) {
    double sum = dense_bias_[u];
    for (size_t f = 0; f < flat; ++f) {
      sum += dense_weights_[f * d + u] * acts.pool[f];
    }
    sum = std::max(sum, 0.0);
    if (dropout_rng != nullptr && options_.dropout > 0.0) {
      if (dropout_rng->Bernoulli(options_.dropout)) {
        sum = 0.0;
        acts.dense_mask[u] = 0;
      } else {
        sum /= 1.0 - options_.dropout;  // inverted dropout
      }
    }
    acts.dense[u] = sum;
  }

  acts.logits.assign(m, 0.0);
  for (size_t k = 0; k < m; ++k) {
    double sum = out_bias_[k];
    for (size_t u = 0; u < d; ++u) {
      sum += out_weights_[u * m + k] * acts.dense[u];
    }
    acts.logits[k] = sum;
  }
  SoftmaxInPlace(acts.logits);
}

linalg::Matrix ConvNet::PredictProba(const linalg::Matrix& features) const {
  BBV_CHECK(fitted_) << "PredictProba before Fit";
  BBV_CHECK_EQ(features.cols(), side_ * side_);
  const auto m = static_cast<size_t>(num_classes_);
  linalg::Matrix result(features.rows(), m);
  Activations acts;
  for (size_t i = 0; i < features.rows(); ++i) {
    Forward(features.RowData(i), acts, nullptr);
    std::copy(acts.logits.begin(), acts.logits.end(), result.RowData(i));
  }
  return result;
}

}  // namespace bbv::ml

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace bbv::ml {

namespace {
constexpr char kConvMagic[] = "BBVCV";
constexpr uint32_t kConvVersion = 1;
}  // namespace

common::Status ConvNet::Save(common::BinaryWriter& writer) const {
  if (!fitted_) {
    return common::Status::FailedPrecondition("Save before Fit");
  }
  writer.WriteMagic(kConvMagic, kConvVersion);
  writer.WriteInt32(num_classes_);
  writer.WriteUint64(side_);
  writer.WriteUint64(options_.conv1_channels);
  writer.WriteUint64(options_.conv2_channels);
  writer.WriteUint64(options_.dense_units);
  writer.WriteDoubleVector(conv1_kernels_);
  writer.WriteDoubleVector(conv1_bias_);
  writer.WriteDoubleVector(conv2_kernels_);
  writer.WriteDoubleVector(conv2_bias_);
  writer.WriteDoubleVector(dense_weights_);
  writer.WriteDoubleVector(dense_bias_);
  writer.WriteDoubleVector(out_weights_);
  writer.WriteDoubleVector(out_bias_);
  return common::Status::OK();
}

common::Status ConvNet::Save(std::ostream& out) const {
  return common::SaveToStream(
      out, [&](common::BinaryWriter& writer) { return Save(writer); });
}

common::Result<ConvNet> ConvNet::Load(std::istream& in) {
  return common::LoadFromStream(
      in, [](common::BinaryReader& reader) { return Load(reader); });
}

common::Result<ConvNet> ConvNet::Load(
    common::BinaryReader& reader) {
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kConvMagic, kConvVersion));
  int32_t num_classes = 0;
  uint64_t side = 0;
  Options options;
  BBV_ASSIGN_OR_RETURN(num_classes, reader.ReadInt32());
  BBV_ASSIGN_OR_RETURN(side, reader.ReadUint64());
  BBV_ASSIGN_OR_RETURN(options.conv1_channels, reader.ReadUint64());
  BBV_ASSIGN_OR_RETURN(options.conv2_channels, reader.ReadUint64());
  BBV_ASSIGN_OR_RETURN(options.dense_units, reader.ReadUint64());
  if (num_classes < 2 || side < 8 || side > 4096 ||
      options.conv1_channels == 0 || options.conv2_channels == 0 ||
      options.dense_units == 0) {
    return common::Status::InvalidArgument("corrupt conv net header");
  }
  options.image_side = side;
  ConvNet model(options);
  model.num_classes_ = num_classes;
  model.side_ = side;
  model.conv1_out_ = side - 2;
  model.conv2_out_ = side - 4;
  model.pool_out_ = (side - 4) / 2;
  BBV_ASSIGN_OR_RETURN(model.conv1_kernels_, reader.ReadDoubleVector());
  BBV_ASSIGN_OR_RETURN(model.conv1_bias_, reader.ReadDoubleVector());
  BBV_ASSIGN_OR_RETURN(model.conv2_kernels_, reader.ReadDoubleVector());
  BBV_ASSIGN_OR_RETURN(model.conv2_bias_, reader.ReadDoubleVector());
  BBV_ASSIGN_OR_RETURN(model.dense_weights_, reader.ReadDoubleVector());
  BBV_ASSIGN_OR_RETURN(model.dense_bias_, reader.ReadDoubleVector());
  BBV_ASSIGN_OR_RETURN(model.out_weights_, reader.ReadDoubleVector());
  BBV_ASSIGN_OR_RETURN(model.out_bias_, reader.ReadDoubleVector());
  const size_t flat =
      options.conv2_channels * model.pool_out_ * model.pool_out_;
  if (model.conv1_kernels_.size() != options.conv1_channels * 9 ||
      model.conv1_bias_.size() != options.conv1_channels ||
      model.conv2_kernels_.size() !=
          options.conv2_channels * options.conv1_channels * 9 ||
      model.conv2_bias_.size() != options.conv2_channels ||
      model.dense_weights_.size() != flat * options.dense_units ||
      model.dense_bias_.size() != options.dense_units ||
      model.out_weights_.size() !=
          options.dense_units * static_cast<size_t>(num_classes) ||
      model.out_bias_.size() != static_cast<size_t>(num_classes)) {
    return common::Status::InvalidArgument("corrupt conv net parameters");
  }
  model.fitted_ = true;
  return model;
}

}  // namespace bbv::ml
