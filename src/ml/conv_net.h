#ifndef BBV_ML_CONV_NET_H_
#define BBV_ML_CONV_NET_H_

#include <string>
#include <vector>

#include "common/serialize.h"
#include "ml/classifier.h"

namespace bbv::ml {

/// Small convolutional network for square grayscale images, mirroring the
/// paper's `conv` model: two 3x3 convolution layers with ReLU, 2x2 max
/// pooling, a dense ReLU layer with dropout, and a softmax output. Trained
/// with mini-batch Adam. Inputs are flattened images (side * side columns).
class ConvNet : public Classifier {
 public:
  struct Options {
    /// Image side length; inferred from the feature width when 0.
    size_t image_side = 0;
    size_t conv1_channels = 8;
    size_t conv2_channels = 16;
    size_t dense_units = 64;
    int epochs = 8;
    size_t batch_size = 32;
    double learning_rate = 1e-3;
    double dropout = 0.25;

    /// The paper's exact architecture (32/64 conv channels, dense 128).
    static Options PaperScale() {
      Options options;
      options.conv1_channels = 32;
      options.conv2_channels = 64;
      options.dense_units = 128;
      return options;
    }
  };

  ConvNet() : ConvNet(Options{}) {}
  explicit ConvNet(Options options) : options_(options) {}

  common::Status Fit(const linalg::Matrix& features,
                     const std::vector<int>& labels, int num_classes,
                     common::Rng& rng) override;
  linalg::Matrix PredictProba(const linalg::Matrix& features) const override;
  std::string Name() const override { return "conv"; }

  /// Persists the fitted network (architecture + parameters).
  common::Status Save(common::BinaryWriter& writer) const;
  common::Status Save(std::ostream& out) const;
  static common::Result<ConvNet> Load(
      common::BinaryReader& reader);
  static common::Result<ConvNet> Load(std::istream& in);

 private:
  struct Activations;

  /// Forward pass for one flattened image. `dropout_rng` enables training-
  /// time dropout when non-null.
  void Forward(const double* image, Activations& acts,
               common::Rng* dropout_rng) const;

  Options options_;
  bool fitted_ = false;
  size_t side_ = 0;       // input side
  size_t conv1_out_ = 0;  // side - 2
  size_t conv2_out_ = 0;  // side - 4
  size_t pool_out_ = 0;   // (side - 4) / 2
  // Parameters (flat buffers).
  std::vector<double> conv1_kernels_;  // C1 x 3 x 3
  std::vector<double> conv1_bias_;     // C1
  std::vector<double> conv2_kernels_;  // C2 x C1 x 3 x 3
  std::vector<double> conv2_bias_;     // C2
  std::vector<double> dense_weights_;  // (C2*P*P) x D
  std::vector<double> dense_bias_;     // D
  std::vector<double> out_weights_;    // D x m
  std::vector<double> out_bias_;       // m
};

}  // namespace bbv::ml

#endif  // BBV_ML_CONV_NET_H_
