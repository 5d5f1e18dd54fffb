#include "core/prediction_statistics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "common/rng.h"

namespace bbv::core {
namespace {

linalg::Matrix BinaryProba(const std::vector<double>& p1) {
  linalg::Matrix proba(p1.size(), 2);
  for (size_t i = 0; i < p1.size(); ++i) {
    proba.At(i, 0) = 1.0 - p1[i];
    proba.At(i, 1) = p1[i];
  }
  return proba;
}

TEST(DefaultPercentilePointsTest, SortedUniqueAndCoversRange) {
  const std::vector<double> points = DefaultPercentilePoints();
  EXPECT_TRUE(std::is_sorted(points.begin(), points.end()));
  EXPECT_DOUBLE_EQ(points.front(), 0.0);
  EXPECT_DOUBLE_EQ(points.back(), 100.0);
  EXPECT_EQ(std::adjacent_find(points.begin(), points.end()), points.end());
  // Contains the paper's 0,5,...,100 grid.
  for (int q = 0; q <= 100; q += 5) {
    EXPECT_NE(std::find(points.begin(), points.end(),
                        static_cast<double>(q)),
              points.end());
  }
}

TEST(CheckFiniteProbabilitiesTest, NamesTheFirstNonFiniteRow) {
  linalg::Matrix proba = BinaryProba({0.1, 0.5, 0.9, 0.3});
  EXPECT_TRUE(CheckFiniteProbabilities(proba).ok());
  EXPECT_TRUE(CheckFiniteProbabilities(linalg::Matrix()).ok());
  proba.At(2, 1) = std::numeric_limits<double>::infinity();
  proba.At(3, 0) = std::numeric_limits<double>::quiet_NaN();
  const common::Status status = CheckFiniteProbabilities(proba);
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("row 2"), std::string::npos)
      << status.ToString();
}

// Fills each row with a random point on the probability simplex; the
// PredictionStatistics contract (enforced via BBV_DCHECK) requires genuine
// class-probability rows.
void FillSimplexRows(linalg::Matrix& proba, common::Rng& rng) {
  for (size_t i = 0; i < proba.rows(); ++i) {
    double row_sum = 0.0;
    for (size_t k = 0; k < proba.cols(); ++k) {
      proba.At(i, k) = rng.Uniform() + 1e-6;
      row_sum += proba.At(i, k);
    }
    for (size_t k = 0; k < proba.cols(); ++k) proba.At(i, k) /= row_sum;
  }
}

TEST(PredictionStatisticsTest, WidthIsClassesTimesPoints) {
  common::Rng rng(1);
  linalg::Matrix proba(50, 3);
  FillSimplexRows(proba, rng);
  const std::vector<double> features = PredictionStatistics(proba);
  EXPECT_EQ(features.size(), 3 * DefaultPercentilePoints().size());
}

TEST(PredictionStatisticsTest, PerClassBlocksAreMonotone) {
  common::Rng rng(2);
  linalg::Matrix proba(100, 2);
  FillSimplexRows(proba, rng);
  const size_t points = DefaultPercentilePoints().size();
  const std::vector<double> features = PredictionStatistics(proba);
  for (size_t k = 0; k < 2; ++k) {
    for (size_t i = 1; i < points; ++i) {
      EXPECT_LE(features[k * points + i - 1], features[k * points + i]);
    }
  }
}

TEST(PredictionStatisticsTest, BoundedByProbabilityRange) {
  common::Rng rng(3);
  std::vector<double> p1(200);
  for (double& v : p1) v = rng.Uniform();
  const std::vector<double> features =
      PredictionStatistics(BinaryProba(p1));
  for (double f : features) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

TEST(PredictionStatisticsTest, PermutationInvariant) {
  common::Rng rng(4);
  std::vector<double> p1(64);
  for (double& v : p1) v = rng.Uniform();
  const std::vector<double> original =
      PredictionStatistics(BinaryProba(p1));
  rng.Shuffle(p1);
  const std::vector<double> shuffled =
      PredictionStatistics(BinaryProba(p1));
  ASSERT_EQ(original.size(), shuffled.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(original[i], shuffled[i]);
  }
}

TEST(PredictionStatisticsTest, DetectsDistributionShift) {
  // Confident predictions vs uniform predictions produce very different
  // statistics — the signal the performance predictor learns from.
  const std::vector<double> confident(100, 0.99);
  const std::vector<double> uncertain(100, 0.5);
  const std::vector<double> a = PredictionStatistics(BinaryProba(confident));
  const std::vector<double> b = PredictionStatistics(BinaryProba(uncertain));
  double difference = 0.0;
  for (size_t i = 0; i < a.size(); ++i) difference += std::abs(a[i] - b[i]);
  EXPECT_GT(difference, 1.0);
}

TEST(PredictionStatisticsTest, CustomGrid) {
  const std::vector<double> features = PredictionStatistics(
      BinaryProba({0.0, 0.5, 1.0}), {0.0, 50.0, 100.0});
  ASSERT_EQ(features.size(), 6u);
  // Class-0 column is {1, 0.5, 0}.
  EXPECT_DOUBLE_EQ(features[0], 0.0);
  EXPECT_DOUBLE_EQ(features[1], 0.5);
  EXPECT_DOUBLE_EQ(features[2], 1.0);
}

TEST(PredictionStatisticsTest, SingleRowBatch) {
  const std::vector<double> features =
      PredictionStatistics(BinaryProba({0.7}), {0.0, 100.0});
  ASSERT_EQ(features.size(), 4u);
  EXPECT_DOUBLE_EQ(features[0], 0.3);
  EXPECT_DOUBLE_EQ(features[2], 0.7);
}

}  // namespace
}  // namespace bbv::core
