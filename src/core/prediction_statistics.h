#ifndef BBV_CORE_PREDICTION_STATISTICS_H_
#define BBV_CORE_PREDICTION_STATISTICS_H_

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace bbv::core {

/// Default percentile grid: 0, 5, 10, ..., 100 (the paper collects "the 0th,
/// 5th, 10th, ... percentile" of the model outputs), plus extra resolution
/// at 1-4 and 96-99 for models with highly concentrated outputs.
std::vector<double> DefaultPercentilePoints();

/// The one finiteness check of every probability-fed estimate surface
/// (PerformancePredictor::EstimateScoreFromProba,
/// PerformanceValidator::ValidateFromProba, and through them
/// ModelMonitor::Observe): InvalidArgument naming the first row with a NaN
/// or infinite entry, OK otherwise. PredictionStatistics sorts each column,
/// and a NaN there breaks the sort's ordering contract instead of failing.
common::Status CheckFiniteProbabilities(const linalg::Matrix& probabilities);

/// The paper's prediction_statistics(Y-hat): a univariate non-parametric
/// summary of each output dimension of the black box model. Computes the
/// requested percentiles of every class-probability column and concatenates
/// them, yielding num_classes * points.size() features for the performance
/// predictor. Requires a non-empty probability matrix.
std::vector<double> PredictionStatistics(
    const linalg::Matrix& probabilities,
    const std::vector<double>& percentile_points = DefaultPercentilePoints());

/// Row-index-view variant: statistics of the sub-batch `rows` of
/// `probabilities` without materializing the sub-matrix. Equivalent to
/// PredictionStatistics(probabilities.SelectRows(rows), percentile_points);
/// used by the subsampled meta-training path, which would otherwise copy a
/// batch per repetition. Requires non-empty, in-range `rows`. No default
/// percentile grid here: a default would make two-argument calls with a
/// braced initializer list ambiguous against the overload above.
std::vector<double> PredictionStatistics(
    const linalg::Matrix& probabilities, const std::vector<size_t>& rows,
    const std::vector<double>& percentile_points);

}  // namespace bbv::core

#endif  // BBV_CORE_PREDICTION_STATISTICS_H_
