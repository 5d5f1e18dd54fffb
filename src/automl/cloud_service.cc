#include "automl/cloud_service.h"

#include <algorithm>
#include <numeric>

namespace bbv::automl {

common::Result<linalg::Matrix> CloudHostedModel::PredictProba(
    const data::DataFrame& frame) const {
  const size_t num_rows = frame.NumRows();
  if (num_rows == 0) {
    return linalg::Matrix(0, static_cast<size_t>(num_classes()));
  }
  linalg::Matrix all_probabilities;
  // Split into API-sized batches like a real prediction endpoint would.
  for (size_t start = 0; start < num_rows; start += max_batch_size_) {
    const size_t end = std::min(start + max_batch_size_, num_rows);
    std::vector<size_t> rows(end - start);
    std::iota(rows.begin(), rows.end(), start);
    BBV_ASSIGN_OR_RETURN(linalg::Matrix batch_probabilities,
                         model_->PredictProba(frame.SelectRows(rows)));
    all_probabilities.AppendRows(batch_probabilities);
    ++api_calls_;
    rows_served_ += rows.size();
  }
  return all_probabilities;
}

common::Result<std::unique_ptr<CloudHostedModel>>
CloudModelService::TrainModel(const data::Dataset& train,
                              common::Rng& rng) const {
  BBV_ASSIGN_OR_RETURN(std::unique_ptr<ml::BlackBoxModel> model,
                       AutoMlTabularSearch(train, options_.automl, rng));
  return std::make_unique<CloudHostedModel>(std::move(model),
                                            options_.max_batch_size);
}

}  // namespace bbv::automl
