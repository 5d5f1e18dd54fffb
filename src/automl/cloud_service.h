#ifndef BBV_AUTOML_CLOUD_SERVICE_H_
#define BBV_AUTOML_CLOUD_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

#include "automl/automl_search.h"
#include "common/result.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "ml/black_box.h"

namespace bbv::automl {

/// A model "hosted in the cloud": the Google-AutoML-Tables stand-in from the
/// paper's §6.3.2. The learning algorithm and feature map are chosen by an
/// AutoML search inside the service and are invisible to the caller, who
/// only gets a batch prediction endpoint. Requests are split into
/// API-style batches and metered, mimicking the operational surface of a
/// real prediction service.
class CloudHostedModel : public ml::BlackBox {
 public:
  CloudHostedModel(std::unique_ptr<ml::BlackBoxModel> model,
                   size_t max_batch_size)
      : model_(std::move(model)), max_batch_size_(max_batch_size) {
    BBV_CHECK(model_ != nullptr);
    BBV_CHECK_GT(max_batch_size_, 0u);
  }

  common::Result<linalg::Matrix> PredictProba(
      const data::DataFrame& frame) const override;
  int num_classes() const override { return model_->num_classes(); }
  std::string Name() const override { return "cloud-automl"; }

  /// Number of prediction API calls made so far (each covers at most
  /// max_batch_size rows; an empty frame makes none). PredictProba may run
  /// concurrently, so the meters are atomic.
  size_t api_calls() const { return api_calls_.load(); }
  size_t rows_served() const { return rows_served_.load(); }

 private:
  std::unique_ptr<ml::BlackBoxModel> model_;
  size_t max_batch_size_;
  mutable std::atomic<size_t> api_calls_{0};
  mutable std::atomic<size_t> rows_served_{0};
};

/// The training side of the cloud service: submit a dataset, receive an
/// opaque hosted model.
class CloudModelService {
 public:
  struct Options {
    /// Rows per prediction API request.
    size_t max_batch_size = 1000;
    AutoMlOptions automl;
  };

  CloudModelService() : CloudModelService(Options{}) {}
  explicit CloudModelService(Options options) : options_(std::move(options)) {}

  /// "Uploads" the dataset and trains a model in the cloud. Returns the
  /// hosted model handle.
  common::Result<std::unique_ptr<CloudHostedModel>> TrainModel(
      const data::Dataset& train, common::Rng& rng) const;

 private:
  Options options_;
};

}  // namespace bbv::automl

#endif  // BBV_AUTOML_CLOUD_SERVICE_H_
