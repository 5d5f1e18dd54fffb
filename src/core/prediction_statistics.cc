#include "core/prediction_statistics.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "stats/descriptive.h"

namespace bbv::core {

std::vector<double> DefaultPercentilePoints() {
  // The paper's 0, 5, 10, ..., 100 grid, refined with extra points in both
  // tails: confident models (e.g. CNNs) concentrate nearly all output mass
  // at 0/1, so the informative signal lives in the extreme percentiles.
  std::vector<double> points = {1.0, 2.0, 3.0, 4.0};
  for (int q = 0; q <= 100; q += 5) {
    points.push_back(static_cast<double>(q));
  }
  points.insert(points.end(), {96.0, 97.0, 98.0, 99.0});
  std::sort(points.begin(), points.end());
  return points;
}

namespace {

/// Debug contract: every row of `probabilities` is a probability simplex —
/// entries in [0, 1] and summing to 1 within tolerance. Scans the whole
/// matrix, so it runs only under BBV_DCHECK.
bool RowsAreProbabilitySimplex(const linalg::Matrix& probabilities) {
  constexpr double kTolerance = 1e-6;
  for (size_t i = 0; i < probabilities.rows(); ++i) {
    double row_sum = 0.0;
    for (size_t k = 0; k < probabilities.cols(); ++k) {
      const double p = probabilities.At(i, k);
      if (!(p >= -kTolerance && p <= 1.0 + kTolerance)) return false;
      row_sum += p;
    }
    if (std::abs(row_sum - 1.0) > kTolerance * static_cast<double>(
                                                  probabilities.cols())) {
      return false;
    }
  }
  return true;
}

}  // namespace

common::Status CheckFiniteProbabilities(const linalg::Matrix& probabilities) {
  for (size_t i = 0; i < probabilities.rows(); ++i) {
    const double* row = probabilities.RowData(i);
    for (size_t k = 0; k < probabilities.cols(); ++k) {
      if (!std::isfinite(row[k])) {
        return common::Status::InvalidArgument(
            "class probabilities contain a non-finite value at row " +
            std::to_string(i));
      }
    }
  }
  return common::Status::OK();
}

std::vector<double> PredictionStatistics(
    const linalg::Matrix& probabilities,
    const std::vector<double>& percentile_points) {
  BBV_CHECK_GT(probabilities.rows(), 0u)
      << "PredictionStatistics on an empty batch";
  BBV_CHECK(!percentile_points.empty());
  BBV_DCHECK(std::is_sorted(percentile_points.begin(),
                            percentile_points.end()))
      << "percentile points must be ascending";
  BBV_DCHECK(percentile_points.front() >= 0.0 &&
             percentile_points.back() <= 100.0)
      << "percentile points must lie in [0, 100]";
  BBV_DCHECK(RowsAreProbabilitySimplex(probabilities))
      << "class-probability rows must lie on the probability simplex";
  std::vector<double> features;
  features.reserve(probabilities.cols() * percentile_points.size());
  for (size_t k = 0; k < probabilities.cols(); ++k) {
    // One sort per column; every percentile query hits the same view.
    const stats::SortedView column_view(probabilities.Col(k));
    const std::vector<double> column_percentiles =
        column_view.Percentiles(percentile_points);
    features.insert(features.end(), column_percentiles.begin(),
                    column_percentiles.end());
  }
  BBV_DCHECK(std::all_of(features.begin(), features.end(),
                         [](double v) { return std::isfinite(v); }))
      << "percentile feature vector contains NaN/Inf";
  return features;
}

std::vector<double> PredictionStatistics(
    const linalg::Matrix& probabilities, const std::vector<size_t>& rows,
    const std::vector<double>& percentile_points) {
  BBV_CHECK(!rows.empty()) << "PredictionStatistics on an empty row view";
  BBV_CHECK(!percentile_points.empty());
  BBV_DCHECK(std::all_of(rows.begin(), rows.end(),
                         [&](size_t row) { return row < probabilities.rows(); }))
      << "row view index out of range";
  std::vector<double> features;
  features.reserve(probabilities.cols() * percentile_points.size());
  std::vector<double> column_values(rows.size());
  for (size_t k = 0; k < probabilities.cols(); ++k) {
    for (size_t i = 0; i < rows.size(); ++i) {
      column_values[i] = probabilities.At(rows[i], k);
    }
    const stats::SortedView column_view(column_values);
    const std::vector<double> column_percentiles =
        column_view.Percentiles(percentile_points);
    features.insert(features.end(), column_percentiles.begin(),
                    column_percentiles.end());
  }
  BBV_DCHECK(std::all_of(features.begin(), features.end(),
                         [](double v) { return std::isfinite(v); }))
      << "percentile feature vector contains NaN/Inf";
  return features;
}

}  // namespace bbv::core
