// End-to-end tests for the streaming serving layer: streamed percentile
// features must agree with the exact batch path within the sketch's value
// error bound for every class and percentile, the scorer state must be
// byte-identical for any mini-batch split and thread count, and the
// sliding-window monitor must alarm only once degraded traffic dominates
// the window (i.e. after healthy batches are evicted).

#include "serve/streaming_scorer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/monitor.h"
#include "core/prediction_statistics.h"

namespace bbv::serve {
namespace {

/// Sets BBV_THREADS for one scope and restores the previous value after.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* previous = std::getenv("BBV_THREADS");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
    ::setenv("BBV_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (had_previous_) {
      ::setenv("BBV_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("BBV_THREADS");
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  bool had_previous_ = false;
  std::string previous_;
};

/// Binary predict_proba batch where a `good_fraction` of the rows are
/// confidently correct (winner probability 0.99) and the rest are barely
/// above chance (0.51); winners alternate between the two classes. The
/// merged multiset of a fraction-a batch and a fraction-b batch of equal
/// size is exactly a fraction-(a+b)/2 batch, which keeps every sliding
/// window mixture in-distribution for the predictor trained below.
linalg::Matrix MixtureBatch(double good_fraction, size_t rows) {
  linalg::Matrix batch(rows, 2);
  const size_t good_rows =
      static_cast<size_t>(good_fraction * static_cast<double>(rows) + 0.5);
  for (size_t i = 0; i < rows; ++i) {
    const double confidence = i < good_rows ? 0.99 : 0.51;
    const size_t winner = i % 2;
    batch.At(i, winner) = confidence;
    batch.At(i, 1 - winner) = 1.0 - confidence;
  }
  return batch;
}

/// Trains a performance predictor on synthetic (statistics, score) pairs
/// where the score is a linear function of the confident fraction, so the
/// regressor learns "more confident outputs => higher score" over the full
/// mixture range. Reference (clean-test) score is 0.99.
core::PerformancePredictor TrainSyntheticPredictor(common::Rng& rng) {
  core::PerformancePredictor::Options options;
  options.tree_count_grid = {30};
  core::PerformancePredictor predictor(options);
  std::vector<std::vector<double>> statistics;
  std::vector<double> scores;
  for (size_t rows : {400ul, 410ul, 420ul}) {
    for (int level = 0; level <= 10; ++level) {
      const double fraction = static_cast<double>(level) / 10.0;
      statistics.push_back(
          core::PredictionStatistics(MixtureBatch(fraction, rows)));
      scores.push_back(0.51 + 0.48 * fraction);
    }
  }
  BBV_CHECK(
      predictor.TrainFromStatistics(statistics, scores, 0.99, rng).ok());
  return predictor;
}

linalg::Matrix RandomProbabilities(size_t rows, common::Rng& rng) {
  linalg::Matrix batch(rows, 2);
  for (size_t i = 0; i < rows; ++i) {
    const double p = rng.Uniform();
    batch.At(i, 0) = p;
    batch.At(i, 1) = 1.0 - p;
  }
  return batch;
}

std::string ScorerBytes(const StreamingScorer& scorer) {
  std::ostringstream out;
  BBV_CHECK(scorer.SaveState(out).ok());
  return out.str();
}

/// Three-class analogue of MixtureBatch, for foreign-class-count guards.
linalg::Matrix Mixture3Batch(double good_fraction, size_t rows) {
  linalg::Matrix batch(rows, 3);
  const size_t good_rows =
      static_cast<size_t>(good_fraction * static_cast<double>(rows) + 0.5);
  for (size_t i = 0; i < rows; ++i) {
    const double confidence = i < good_rows ? 0.98 : 0.34;
    const size_t winner = i % 3;
    for (size_t k = 0; k < 3; ++k) {
      batch.At(i, k) = k == winner ? confidence : (1.0 - confidence) / 2.0;
    }
  }
  return batch;
}

core::PerformancePredictor Train3ClassPredictor(common::Rng& rng) {
  core::PerformancePredictor::Options options;
  options.tree_count_grid = {10};
  core::PerformancePredictor predictor(options);
  std::vector<std::vector<double>> statistics;
  std::vector<double> scores;
  for (size_t rows : {300ul, 310ul, 320ul}) {
    for (int level = 0; level <= 10; ++level) {
      const double fraction = static_cast<double>(level) / 10.0;
      statistics.push_back(
          core::PredictionStatistics(Mixture3Batch(fraction, rows)));
      scores.push_back(0.34 + 0.64 * fraction);
    }
  }
  BBV_CHECK(
      predictor.TrainFromStatistics(statistics, scores, 0.98, rng).ok());
  return predictor;
}

TEST(StreamingScorerTest, CreateValidatesPredictorAndResolution) {
  common::Rng rng(31);
  EXPECT_FALSE(
      StreamingScorer::Create(core::PerformancePredictor(), {}).ok());
  core::PerformancePredictor predictor = TrainSyntheticPredictor(rng);
  StreamingScorer::Options bad;
  bad.resolution_bits = 0;
  EXPECT_FALSE(StreamingScorer::Create(predictor, bad).ok());
  bad.resolution_bits = 25;
  EXPECT_FALSE(StreamingScorer::Create(predictor, bad).ok());
  EXPECT_TRUE(StreamingScorer::Create(predictor, {}).ok());
}

TEST(StreamingScorerTest, StreamedFeaturesMatchExactBatchWithinBound) {
  common::Rng rng(32);
  core::PerformancePredictor predictor = TrainSyntheticPredictor(rng);
  auto scorer = StreamingScorer::Create(predictor, {});
  ASSERT_TRUE(scorer.ok());

  const linalg::Matrix all = RandomProbabilities(5000, rng);
  for (size_t begin = 0; begin < all.rows(); begin += 97) {
    const size_t end = std::min(begin + 97, all.rows());
    std::vector<size_t> rows;
    for (size_t i = begin; i < end; ++i) rows.push_back(i);
    ASSERT_TRUE(scorer->Ingest(all.SelectRows(rows)).ok());
  }
  EXPECT_EQ(scorer->rows_ingested(), all.rows());

  const auto streamed = scorer->PercentileFeatures();
  ASSERT_TRUE(streamed.ok());
  const std::vector<double> exact =
      core::PredictionStatistics(all, predictor.percentile_points());
  ASSERT_EQ(streamed->size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR((*streamed)[i], exact[i], scorer->ValueErrorBound() + 1e-12)
        << "feature " << i;
  }

  // The score estimates feed the same regressor, so they should agree
  // closely as well (the features differ by at most the error bound).
  const auto streamed_score = scorer->EstimateScore();
  const auto exact_score = predictor.EstimateScoreFromProba(all);
  ASSERT_TRUE(streamed_score.ok());
  ASSERT_TRUE(exact_score.ok());
  EXPECT_NEAR(streamed_score->point, exact_score->point, 0.1);
}

TEST(StreamingScorerTest, StateIsByteIdenticalAcrossSplitsAndThreads) {
  common::Rng rng(33);
  core::PerformancePredictor predictor = TrainSyntheticPredictor(rng);
  const linalg::Matrix all = RandomProbabilities(2000, rng);

  auto bytes_for = [&](const char* threads, size_t batch) {
    ScopedThreadsEnv env(threads);
    auto scorer = StreamingScorer::Create(predictor, {});
    BBV_CHECK(scorer.ok());
    for (size_t begin = 0; begin < all.rows(); begin += batch) {
      const size_t end = std::min(begin + batch, all.rows());
      std::vector<size_t> rows;
      for (size_t i = begin; i < end; ++i) rows.push_back(i);
      BBV_CHECK(scorer->Ingest(all.SelectRows(rows)).ok());
    }
    return ScorerBytes(*scorer);
  };

  const std::string reference = bytes_for("1", 2000);
  EXPECT_EQ(bytes_for("1", 64), reference);
  EXPECT_EQ(bytes_for("8", 1), reference);
  EXPECT_EQ(bytes_for("8", 311), reference);
  EXPECT_EQ(bytes_for("8", 2000), reference);
}

TEST(StreamingScorerTest, IngestRejectsMalformedBatches) {
  common::Rng rng(34);
  auto scorer = StreamingScorer::Create(TrainSyntheticPredictor(rng), {});
  ASSERT_TRUE(scorer.ok());
  EXPECT_FALSE(scorer->Ingest(linalg::Matrix()).ok());
  EXPECT_FALSE(scorer->Ingest(linalg::Matrix(4, 3)).ok());
  linalg::Matrix poisoned = MixtureBatch(1.0, 8);
  poisoned.At(3, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(scorer->Ingest(poisoned).ok());
  // No failed batch may leak into the sketches.
  EXPECT_EQ(scorer->rows_ingested(), 0u);
  EXPECT_EQ(scorer->batches_ingested(), 0u);
  EXPECT_FALSE(scorer->EstimateScore().ok());
  ASSERT_TRUE(scorer->Ingest(MixtureBatch(1.0, 8)).ok());
  EXPECT_EQ(scorer->rows_ingested(), 8u);
  EXPECT_TRUE(scorer->EstimateScore().ok());
}

TEST(StreamingScorerTest, MergedPartialsMatchSingleStream) {
  common::Rng rng(35);
  core::PerformancePredictor predictor = TrainSyntheticPredictor(rng);
  const linalg::Matrix first = RandomProbabilities(700, rng);
  const linalg::Matrix second = RandomProbabilities(300, rng);

  auto combined = StreamingScorer::Create(predictor, {});
  ASSERT_TRUE(combined.ok());
  ASSERT_TRUE(combined->Ingest(first).ok());
  ASSERT_TRUE(combined->Ingest(second).ok());

  auto left = StreamingScorer::Create(predictor, {});
  auto right = StreamingScorer::Create(predictor, {});
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  ASSERT_TRUE(left->Ingest(first).ok());
  ASSERT_TRUE(right->Ingest(second).ok());
  ASSERT_TRUE(left->MergeFrom(*right).ok());
  EXPECT_EQ(left->rows_ingested(), 1000u);
  EXPECT_EQ(left->batches_ingested(), 2u);
  EXPECT_EQ(ScorerBytes(*left), ScorerBytes(*combined));

  StreamingScorer::Options coarse;
  coarse.resolution_bits = 6;
  auto other = StreamingScorer::Create(predictor, coarse);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(left->MergeFrom(*other).ok());
}

TEST(StreamingScorerTest, SaveLoadRoundTripIsByteIdentical) {
  common::Rng rng(39);
  core::PerformancePredictor predictor = TrainSyntheticPredictor(rng);
  auto scorer = StreamingScorer::Create(predictor, {});
  ASSERT_TRUE(scorer.ok());
  for (size_t b = 0; b < 6; ++b) {
    ASSERT_TRUE(scorer->Ingest(RandomProbabilities(200 + 13 * b, rng)).ok());
  }
  const std::string saved = ScorerBytes(*scorer);

  auto restored = StreamingScorer::Create(predictor, {});
  ASSERT_TRUE(restored.ok());
  std::istringstream in(saved);
  ASSERT_TRUE(restored->LoadState(in).ok());
  EXPECT_EQ(restored->rows_ingested(), scorer->rows_ingested());
  // The round-trip is exact: save(load(save(x))) == save(x), and every
  // estimate from the restored scorer is bitwise the original's.
  EXPECT_EQ(ScorerBytes(*restored), saved);
  const auto original_estimate = scorer->EstimateScore();
  const auto restored_estimate = restored->EstimateScore();
  ASSERT_TRUE(original_estimate.ok());
  ASSERT_TRUE(restored_estimate.ok());
  EXPECT_EQ(*restored_estimate, *original_estimate);

  // Continued ingestion stays in lockstep after the round-trip.
  const linalg::Matrix more = RandomProbabilities(333, rng);
  ASSERT_TRUE(scorer->Ingest(more).ok());
  ASSERT_TRUE(restored->Ingest(more).ok());
  EXPECT_EQ(ScorerBytes(*restored), ScorerBytes(*scorer));
}

TEST(StreamingScorerTest, EveryTruncatedStateIsRejected) {
  common::Rng rng(41);
  core::PerformancePredictor predictor = TrainSyntheticPredictor(rng);
  auto source = StreamingScorer::Create(predictor, {});
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(source->Ingest(RandomProbabilities(90, rng)).ok());
  const std::string saved = ScorerBytes(*source);
  auto scorer = StreamingScorer::Create(predictor, {});
  ASSERT_TRUE(scorer.ok());
  ASSERT_TRUE(scorer->Ingest(MixtureBatch(0.5, 50)).ok());
  const std::string before = ScorerBytes(*scorer);
  for (size_t size = 0; size < saved.size(); ++size) {
    std::istringstream prefix(saved.substr(0, size));
    EXPECT_FALSE(scorer->LoadState(prefix).ok()) << "prefix " << size;
  }
  EXPECT_EQ(ScorerBytes(*scorer), before);
  std::istringstream whole(saved);
  ASSERT_TRUE(scorer->LoadState(whole).ok());
  EXPECT_EQ(ScorerBytes(*scorer), saved);
}

TEST(StreamingScorerTest, LoadStateValidatesGridAndClassCount) {
  common::Rng rng(40);
  core::PerformancePredictor predictor = TrainSyntheticPredictor(rng);
  auto scorer = StreamingScorer::Create(predictor, {});
  ASSERT_TRUE(scorer.ok());
  ASSERT_TRUE(scorer->Ingest(MixtureBatch(0.5, 500)).ok());
  const std::string before = ScorerBytes(*scorer);

  // State sketched on a coarser grid answers quantile queries on a
  // different lattice; loading it would silently break byte-identity.
  StreamingScorer::Options coarse;
  coarse.resolution_bits = 10;
  auto coarse_scorer = StreamingScorer::Create(predictor, coarse);
  ASSERT_TRUE(coarse_scorer.ok());
  ASSERT_TRUE(coarse_scorer->Ingest(MixtureBatch(0.5, 500)).ok());
  std::istringstream coarse_in(ScorerBytes(*coarse_scorer));
  EXPECT_FALSE(scorer->LoadState(coarse_in).ok());

  // State sketched for three classes can never produce the feature vector
  // a two-class predictor was trained on.
  core::PerformancePredictor foreign = Train3ClassPredictor(rng);
  auto foreign_scorer = StreamingScorer::Create(foreign, {});
  ASSERT_TRUE(foreign_scorer.ok());
  ASSERT_TRUE(foreign_scorer->Ingest(Mixture3Batch(0.5, 500)).ok());
  std::istringstream foreign_in(ScorerBytes(*foreign_scorer));
  EXPECT_FALSE(scorer->LoadState(foreign_in).ok());

  // A truncated stream is rejected too.
  std::istringstream truncated(before.substr(0, before.size() / 2));
  EXPECT_FALSE(scorer->LoadState(truncated).ok());

  // None of the rejected loads may disturb the scorer's state.
  EXPECT_EQ(ScorerBytes(*scorer), before);
  EXPECT_TRUE(scorer->EstimateScore().ok());
}

TEST(StreamingScorerTest, MergeFromRejectsForeignClassCount) {
  common::Rng rng(41);
  // A fresh (zero-column) scorer used to adopt whatever column count the
  // merge source carried, leaving it permanently unable to estimate; the
  // incompatible shard must be rejected instead.
  auto scorer = StreamingScorer::Create(TrainSyntheticPredictor(rng), {});
  ASSERT_TRUE(scorer.ok());
  auto foreign = StreamingScorer::Create(Train3ClassPredictor(rng), {});
  ASSERT_TRUE(foreign.ok());
  ASSERT_TRUE(foreign->Ingest(Mixture3Batch(0.5, 300)).ok());
  EXPECT_FALSE(scorer->MergeFrom(*foreign).ok());
  EXPECT_EQ(scorer->num_classes(), 0u);

  ASSERT_TRUE(scorer->Ingest(MixtureBatch(1.0, 100)).ok());
  EXPECT_TRUE(scorer->EstimateScore().ok());
}

TEST(StreamingScorerTest, SwapPredictorValidatesAndSwitchesForests) {
  common::Rng rng(42);
  core::PerformancePredictor predictor = TrainSyntheticPredictor(rng);
  auto scorer = StreamingScorer::Create(predictor, {});
  ASSERT_TRUE(scorer.ok());
  ASSERT_TRUE(scorer->Ingest(MixtureBatch(0.7, 400)).ok());
  const auto before = scorer->EstimateScore();
  ASSERT_TRUE(before.ok());

  EXPECT_FALSE(scorer->SwapPredictor(nullptr).ok());
  EXPECT_FALSE(
      scorer
          ->SwapPredictor(std::make_shared<const core::PerformancePredictor>())
          .ok());
  // A predictor trained on a different class count cannot score the
  // sketches this scorer has already accumulated.
  EXPECT_FALSE(scorer
                   ->SwapPredictor(
                       std::make_shared<const core::PerformancePredictor>(
                           Train3ClassPredictor(rng)))
                   .ok());
  // Rejected swaps leave the original forest in place.
  const auto unchanged = scorer->EstimateScore();
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(*unchanged, *before);

  common::Rng other_rng(142);
  ASSERT_TRUE(scorer
                  ->SwapPredictor(
                      std::make_shared<const core::PerformancePredictor>(
                          TrainSyntheticPredictor(other_rng)))
                  .ok());
  const auto after = scorer->EstimateScore();
  ASSERT_TRUE(after.ok());
  // Different forest, same sketches: the estimate moves.
  EXPECT_NE(*after, *before);
}

TEST(SlidingWindowMonitorTest, AlarmFiresOnlyAfterHealthyBatchesEvicted) {
  common::Rng rng(38);
  core::ModelMonitor::Options options;
  options.alarm_threshold = 0.35;
  options.window_batches = 2;
  // This test pins down the point-drop eviction semantics; the certified
  // (interval-based) policy is covered in core_monitor_interval_test.
  options.alarm_policy = core::ModelMonitor::AlarmPolicy::kPointDrop;
  auto monitor = core::ModelMonitor::CreateForProba(
      "synthetic",
      std::make_shared<const core::PerformancePredictor>(
          TrainSyntheticPredictor(rng)),
      options);
  ASSERT_TRUE(monitor.ok());

  const linalg::Matrix good = MixtureBatch(1.0, 400);
  const linalg::Matrix bad = MixtureBatch(0.0, 400);

  const auto healthy = monitor->Observe(good);
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy->alarm);
  EXPECT_EQ(healthy->window_batches_used, 1u);
  EXPECT_EQ(healthy->window_rows, 400u);

  // First degraded batch: the window still contains the healthy batch, so
  // the windowed estimate sits near the midpoint and must NOT alarm even
  // though the per-batch drop alone would cross the threshold.
  const auto mixed = monitor->Observe(bad);
  ASSERT_TRUE(mixed.ok());
  EXPECT_GE(mixed->relative_drop, options.alarm_threshold);
  EXPECT_LT(mixed->windowed_relative_drop, options.alarm_threshold);
  EXPECT_FALSE(mixed->alarm);
  EXPECT_EQ(mixed->window_batches_used, 2u);
  EXPECT_EQ(mixed->window_rows, 800u);

  // Second degraded batch evicts the healthy one; the window is now all
  // degraded traffic and the alarm fires.
  const auto degraded = monitor->Observe(bad);
  ASSERT_TRUE(degraded.ok());
  EXPECT_GE(degraded->windowed_relative_drop, options.alarm_threshold);
  EXPECT_TRUE(degraded->alarm);
  EXPECT_EQ(degraded->window_batches_used, 2u);
  EXPECT_EQ(degraded->window_rows, 800u);
  EXPECT_EQ(monitor->alarms_raised(), 1u);

  // Traffic recovers: once degraded batches are evicted again, no alarm.
  ASSERT_TRUE(monitor->Observe(good).ok());
  const auto recovered = monitor->Observe(good);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->alarm);
  EXPECT_LT(recovered->windowed_relative_drop, options.alarm_threshold);
}

}  // namespace
}  // namespace bbv::serve
