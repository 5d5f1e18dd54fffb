#ifndef BBV_ML_CROSS_VALIDATION_H_
#define BBV_ML_CROSS_VALIDATION_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "linalg/matrix.h"
#include "ml/classifier.h"
#include "ml/random_forest.h"

namespace bbv::ml {

/// Row indices for one cross-validation fold.
struct Fold {
  std::vector<size_t> train_rows;
  std::vector<size_t> test_rows;
};

/// Shuffled k-fold partition of [0, n). Every row appears in exactly one
/// test set. Requires 2 <= k <= n.
std::vector<Fold> KFoldIndices(size_t n, int k, common::Rng& rng);

/// The one k-fold scaffold behind every cross-validated fit: draws
/// KFoldIndices(n, k, rng), then forks one stream per fold from `rng`, then
/// runs `body(f, folds[f], fold_rng)` for every fold over the shared thread
/// pool. Bodies must write disjoint per-fold slots; the pre-forked streams
/// keep every result identical at every BBV_THREADS. Returns the folds (for
/// the caller's serial fold-major assembly) or the lowest-index body error.
common::Result<std::vector<Fold>> ForEachFold(
    size_t n, int k, common::Rng& rng,
    const std::function<common::Status(size_t, const Fold&, common::Rng&)>&
        body);

/// Mean k-fold accuracy of classifiers produced by `factory`.
common::Result<double> CrossValAccuracy(
    const std::function<std::unique_ptr<Classifier>()>& factory,
    const linalg::Matrix& features, const std::vector<int>& labels,
    int num_classes, int folds, common::Rng& rng);

/// Mean k-fold absolute error of regressors produced by `factory` (the
/// objective the paper's performance predictor minimizes).
common::Result<double> CrossValRegressionMae(
    const std::function<RandomForestRegressor()>& factory,
    const linalg::Matrix& features, const std::vector<double>& targets,
    int folds, common::Rng& rng);

/// Picks the candidate classifier factory with the best k-fold accuracy.
/// Returns the winning index. Mirrors the paper's five-fold grid searches.
common::Result<size_t> GridSearchClassifier(
    const std::vector<std::function<std::unique_ptr<Classifier>()>>&
        candidates,
    const linalg::Matrix& features, const std::vector<int>& labels,
    int num_classes, int folds, common::Rng& rng);

}  // namespace bbv::ml

#endif  // BBV_ML_CROSS_VALIDATION_H_
