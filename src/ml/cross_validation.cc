#include "ml/cross_validation.h"

#include <cmath>

#include "common/parallel.h"
#include "ml/metrics.h"

namespace bbv::ml {

std::vector<Fold> KFoldIndices(size_t n, int k, common::Rng& rng) {
  BBV_CHECK_GE(k, 2);
  BBV_CHECK_LE(static_cast<size_t>(k), n);
  const std::vector<size_t> order = rng.Permutation(n);
  std::vector<Fold> folds(static_cast<size_t>(k));
  for (size_t i = 0; i < n; ++i) {
    const size_t fold = i % static_cast<size_t>(k);
    folds[fold].test_rows.push_back(order[i]);
  }
  for (size_t f = 0; f < folds.size(); ++f) {
    for (size_t g = 0; g < folds.size(); ++g) {
      if (f == g) continue;
      folds[f].train_rows.insert(folds[f].train_rows.end(),
                                 folds[g].test_rows.begin(),
                                 folds[g].test_rows.end());
    }
  }
  return folds;
}

common::Result<std::vector<Fold>> ForEachFold(
    size_t n, int k, common::Rng& rng,
    const std::function<common::Status(size_t, const Fold&, common::Rng&)>&
        body) {
  std::vector<Fold> folds = KFoldIndices(n, k, rng);
  std::vector<common::Rng> fold_rngs = rng.ForkStreams(folds.size());
  BBV_RETURN_NOT_OK(common::ParallelFor(
      folds.size(),
      [&](size_t f) { return body(f, folds[f], fold_rngs[f]); }));
  return folds;
}

common::Result<double> CrossValAccuracy(
    const std::function<std::unique_ptr<Classifier>()>& factory,
    const linalg::Matrix& features, const std::vector<int>& labels,
    int num_classes, int folds, common::Rng& rng) {
  if (features.rows() != labels.size()) {
    return common::Status::InvalidArgument(
        "features and labels disagree on the number of rows");
  }
  std::vector<double> fold_scores(static_cast<size_t>(folds), 0.0);
  BBV_RETURN_NOT_OK(ForEachFold(
      labels.size(), folds, rng,
      [&](size_t f, const Fold& fold, common::Rng& fold_rng) {
        std::vector<int> train_y;
        std::vector<int> test_y;
        train_y.reserve(fold.train_rows.size());
        test_y.reserve(fold.test_rows.size());
        for (size_t row : fold.train_rows) train_y.push_back(labels[row]);
        for (size_t row : fold.test_rows) test_y.push_back(labels[row]);
        std::unique_ptr<Classifier> model = factory();
        BBV_RETURN_NOT_OK(model->Fit(features.SelectRows(fold.train_rows),
                                     train_y, num_classes, fold_rng));
        fold_scores[f] = Accuracy(
            PredictLabels(*model, features.SelectRows(fold.test_rows)),
            test_y);
        return common::Status::OK();
      }).status());
  double total = 0.0;
  for (double score : fold_scores) total += score;
  return total / static_cast<double>(fold_scores.size());
}

common::Result<double> CrossValRegressionMae(
    const std::function<RandomForestRegressor()>& factory,
    const linalg::Matrix& features, const std::vector<double>& targets,
    int folds, common::Rng& rng) {
  if (features.rows() != targets.size()) {
    return common::Status::InvalidArgument(
        "features and targets disagree on the number of rows");
  }
  // Per-fold partial sums, totalled in fold order below.
  std::vector<double> fold_errors(static_cast<size_t>(folds), 0.0);
  BBV_RETURN_NOT_OK(ForEachFold(
      targets.size(), folds, rng,
      [&](size_t f, const Fold& fold, common::Rng& fold_rng) {
        std::vector<double> train_y;
        train_y.reserve(fold.train_rows.size());
        for (size_t row : fold.train_rows) train_y.push_back(targets[row]);
        RandomForestRegressor model = factory();
        BBV_RETURN_NOT_OK(
            model.Fit(features.SelectRows(fold.train_rows), train_y, fold_rng));
        const std::vector<double> predictions =
            model.Predict(features.SelectRows(fold.test_rows));
        for (size_t i = 0; i < fold.test_rows.size(); ++i) {
          fold_errors[f] +=
              std::abs(predictions[i] - targets[fold.test_rows[i]]);
        }
        return common::Status::OK();
      }).status());
  double total_error = 0.0;
  for (double error : fold_errors) total_error += error;
  return total_error / static_cast<double>(targets.size());
}

common::Result<size_t> GridSearchClassifier(
    const std::vector<std::function<std::unique_ptr<Classifier>()>>&
        candidates,
    const linalg::Matrix& features, const std::vector<int>& labels,
    int num_classes, int folds, common::Rng& rng) {
  if (candidates.empty()) {
    return common::Status::InvalidArgument("no candidates to search over");
  }
  std::vector<common::Rng> candidate_rngs = rng.ForkStreams(candidates.size());
  std::vector<double> candidate_scores(candidates.size(), 0.0);
  BBV_RETURN_NOT_OK(common::ParallelFor(
      candidates.size(), [&](size_t i) -> common::Status {
        BBV_ASSIGN_OR_RETURN(
            candidate_scores[i],
            CrossValAccuracy(candidates[i], features, labels, num_classes,
                             folds, candidate_rngs[i]));
        return common::Status::OK();
      }));
  // Serial argmax; ties keep the earliest candidate, as before.
  size_t best_index = 0;
  double best_score = -1.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidate_scores[i] > best_score) {
      best_score = candidate_scores[i];
      best_index = i;
    }
  }
  return best_index;
}

}  // namespace bbv::ml
