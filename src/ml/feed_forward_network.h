#ifndef BBV_ML_FEED_FORWARD_NETWORK_H_
#define BBV_ML_FEED_FORWARD_NETWORK_H_

#include <string>
#include <vector>

#include "common/serialize.h"
#include "ml/classifier.h"

namespace bbv::ml {

/// Feed-forward neural network with ReLU hidden layers and a softmax output,
/// trained with mini-batch Adam — the paper's `dnn` model ("two layers with
/// ReLU activation and a softmax output").
class FeedForwardNetwork : public Classifier {
 public:
  struct Options {
    std::vector<size_t> hidden_sizes = {32, 32};
    int epochs = 40;
    size_t batch_size = 32;
    double learning_rate = 1e-3;
    double l2 = 1e-5;
    /// Dropout probability on hidden activations during training (0 = off).
    double dropout = 0.0;
  };

  FeedForwardNetwork() : FeedForwardNetwork(Options{}) {}
  explicit FeedForwardNetwork(Options options) : options_(options) {}

  common::Status Fit(const linalg::Matrix& features,
                     const std::vector<int>& labels, int num_classes,
                     common::Rng& rng) override;
  linalg::Matrix PredictProba(const linalg::Matrix& features) const override;
  std::string Name() const override { return "dnn"; }

  /// Persists the fitted layers (weights and biases; optimizer state is not
  /// needed for inference).
  common::Status Save(common::BinaryWriter& writer) const;
  common::Status Save(std::ostream& out) const;
  static common::Result<FeedForwardNetwork> Load(
      common::BinaryReader& reader);
  static common::Result<FeedForwardNetwork> Load(std::istream& in);

 private:
  struct Layer {
    linalg::Matrix weights;       // in x out
    std::vector<double> bias;     // out
    // Adam state.
    linalg::Matrix m_weights;
    linalg::Matrix v_weights;
    std::vector<double> m_bias;
    std::vector<double> v_bias;
  };

  /// Forward pass; fills per-layer activations (activations[0] == input).
  void Forward(const linalg::Matrix& input,
               std::vector<linalg::Matrix>& activations) const;

  Options options_;
  bool fitted_ = false;
  std::vector<Layer> layers_;
};

}  // namespace bbv::ml

#endif  // BBV_ML_FEED_FORWARD_NETWORK_H_
