// Tests for the multi-tenant ValidatorService: coalesced flushes must be
// bit-identical to a standalone StreamingScorer replay of each tenant's
// stream at every BBV_THREADS setting, hot-swaps must apply at exactly
// their queue position, eviction/rehydration must round-trip state
// byte-identically, and no malformed request may take down the process.

#include "serve/validator_service.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/monitor.h"
#include "core/prediction_statistics.h"
#include "serve/streaming_scorer.h"

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
/// above chance (0.51); winners alternate between the two classes.
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

/// Trains a predictor on synthetic (statistics, score) pairs where the
/// score is a linear function of the confident fraction; reference score
/// is 0.99. Different seeds grow different forests, which the hot-swap
/// tests rely on to tell the epochs apart.
std::shared_ptr<const core::PerformancePredictor> TrainSharedPredictor(
    uint64_t seed) {
  common::Rng rng(seed);
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
  return std::make_shared<const core::PerformancePredictor>(
      std::move(predictor));
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

std::string TenantBytes(const ValidatorService& service,
                        const std::string& model_id) {
  std::ostringstream out;
  BBV_CHECK(service.SaveTenantState(model_id, out).ok());
  return out.str();
}

/// Per-tenant synthetic stream: a deterministic mix of random and mixture
/// batches, keyed by the tenant index so streams differ across tenants.
std::vector<linalg::Matrix> TenantStream(size_t tenant, size_t batches) {
  common::Rng rng(1000 + tenant);
  std::vector<linalg::Matrix> stream;
  for (size_t b = 0; b < batches; ++b) {
    if (b % 3 == 0) {
      stream.push_back(
          MixtureBatch(static_cast<double>(tenant % 5) / 4.0, 40 + 7 * b));
    } else {
      stream.push_back(RandomProbabilities(30 + 5 * b, rng));
    }
  }
  return stream;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// Bitwise equality of all four ScoreEstimate fields.
bool SameBits(const core::ScoreEstimate& a, const core::ScoreEstimate& b) {
  return Bits(a.point) == Bits(b.point) && Bits(a.lo) == Bits(b.lo) &&
         Bits(a.hi) == Bits(b.hi) &&
         Bits(a.coverage_level) == Bits(b.coverage_level);
}

/// Replays one tenant's stream through a standalone StreamingScorer,
/// returning the per-batch estimates (the ground truth the service's
/// coalesced batch path must match bitwise).
std::vector<core::ScoreEstimate> StandaloneEstimates(
    const std::shared_ptr<const core::PerformancePredictor>& predictor,
    const std::vector<linalg::Matrix>& stream) {
  auto scorer = StreamingScorer::Create(predictor, {});
  BBV_CHECK(scorer.ok());
  std::vector<core::ScoreEstimate> estimates;
  for (const linalg::Matrix& batch : stream) {
    BBV_CHECK(scorer->Ingest(batch).ok());
    const auto estimate = scorer->EstimateScore();
    BBV_CHECK(estimate.ok());
    estimates.push_back(*estimate);
  }
  return estimates;
}

TEST(ValidatorServiceTest, CreateTenantValidatesArguments) {
  auto predictor = TrainSharedPredictor(41);
  ValidatorService service;
  EXPECT_FALSE(service.CreateTenant("", predictor).ok());
  EXPECT_FALSE(service.CreateTenant("m", nullptr).ok());
  EXPECT_FALSE(
      service
          .CreateTenant("m", std::make_shared<const core::PerformancePredictor>())
          .ok());
  ValidatorService::TenantOptions bad_resolution;
  bad_resolution.scorer.resolution_bits = 0;
  EXPECT_FALSE(service.CreateTenant("m", predictor, bad_resolution).ok());
  ValidatorService::TenantOptions bad_threshold;
  bad_threshold.window_batches = 4;
  bad_threshold.alarm_threshold = 1.5;
  EXPECT_FALSE(service.CreateTenant("m", predictor, bad_threshold).ok());
  // A monitored tenant's window reuses the scorer's grid cells, so the two
  // resolutions must agree.
  ValidatorService::TenantOptions mismatched_grid;
  mismatched_grid.window_batches = 4;
  mismatched_grid.monitor_resolution_bits = 10;
  EXPECT_EQ(service.CreateTenant("m", predictor, mismatched_grid).code(),
            common::StatusCode::kInvalidArgument);
  mismatched_grid.scorer.resolution_bits = 10;
  ASSERT_TRUE(service.CreateTenant("coarse", predictor, mismatched_grid).ok());
  ASSERT_TRUE(service.RemoveTenant("coarse").ok());

  ASSERT_TRUE(service.CreateTenant("m", predictor).ok());
  EXPECT_EQ(service.CreateTenant("m", predictor).code(),
            common::StatusCode::kAlreadyExists);
  EXPECT_EQ(service.num_tenants(), 1u);
  EXPECT_TRUE(service.RemoveTenant("m").ok());
  EXPECT_EQ(service.RemoveTenant("m").code(),
            common::StatusCode::kNotFound);
}

TEST(ValidatorServiceTest, CoalescedFlushMatchesStandaloneBitwise) {
  auto predictor = TrainSharedPredictor(42);
  auto retrained = TrainSharedPredictor(51);
  // Monitored tenants "watch-*" come first in every round, so watch-0 is
  // the coldest tenant of each flush; plain tenants "tenant-*" follow.
  const size_t kMonitored = 2;
  const size_t kPlain = 3;
  const size_t kTenants = kMonitored + kPlain;
  const size_t kBatches = 6;
  // Batches [0, kFlushSplit) ride the first flush, the rest the second.
  const size_t kFlushSplit = 3;
  // watch-1 hot-swaps to `retrained` right before its batch kSwapBefore.
  const size_t kSwapBefore = 2;
  ValidatorService::TenantOptions monitored;
  monitored.window_batches = 3;
  monitored.alarm_threshold = 0.15;
  std::vector<std::string> ids;
  std::vector<std::vector<linalg::Matrix>> streams;
  for (size_t t = 0; t < kTenants; ++t) {
    ids.push_back(t < kMonitored ? "watch-" + std::to_string(t)
                                 : "tenant-" + std::to_string(t - kMonitored));
    // Plain tenants keep streams 0-2; the monitored ones get the healthier
    // streams 3 and 4, so their windows see both alarm outcomes.
    streams.push_back(
        TenantStream(t < kMonitored ? kPlain + t : t - kMonitored, kBatches));
  }

  // One interleaved submission trace, replayed identically per run. The
  // residency cap is one below the tenant count, so the first flush ends by
  // evicting watch-0 and the second starts by rehydrating it.
  using Responses = std::vector<std::vector<ValidatorService::ScoreResponse>>;
  auto run_service = [&](const char* threads) {
    ScopedThreadsEnv env(threads);
    ValidatorService::Options options;
    options.max_resident_tenants = kTenants - 1;
    ValidatorService service(options);
    for (size_t t = 0; t < kTenants; ++t) {
      BBV_CHECK(service
                    .CreateTenant(ids[t], predictor,
                                  t < kMonitored
                                      ? monitored
                                      : ValidatorService::TenantOptions{})
                    .ok());
    }
    Responses responses(kTenants);
    for (const auto& [begin, end] :
         {std::make_pair(size_t{0}, kFlushSplit),
          std::make_pair(kFlushSplit, kBatches)}) {
      std::vector<size_t> tenant_of;
      for (size_t b = begin; b < end; ++b) {
        for (size_t t = 0; t < kTenants; ++t) {
          if (t == 1 && b == kSwapBefore) {
            service.SubmitSwap(ids[t], retrained);
            tenant_of.push_back(kTenants);
          }
          service.Submit(ids[t], streams[t][b]);
          tenant_of.push_back(t);
        }
      }
      const auto flushed = service.Flush();
      BBV_CHECK(flushed.size() == tenant_of.size());
      for (size_t i = 0; i < flushed.size(); ++i) {
        BBV_CHECK(flushed[i].status.ok()) << flushed[i].status.ToString();
        if (tenant_of[i] < kTenants) {
          responses[tenant_of[i]].push_back(flushed[i]);
        }
      }
      if (begin == 0) {
        BBV_CHECK(!service.GetTenantInfo(ids[0])->resident);
      }
    }
    BBV_CHECK(service.GetTenantInfo(ids[1])->epoch == 1u);
    std::vector<std::string> state;
    for (size_t t = 0; t < kTenants; ++t) {
      state.push_back(TenantBytes(service, ids[t]));
    }
    return std::make_pair(responses, state);
  };

  const auto [serial, serial_state] = run_service("1");
  const auto [parallel, parallel_state] = run_service("8");

  core::ModelMonitor::Options monitor_options;
  monitor_options.alarm_threshold = monitored.alarm_threshold;
  monitor_options.alarm_policy = monitored.alarm_policy;
  monitor_options.history_limit = monitored.history_limit;
  monitor_options.window_batches = monitored.window_batches;
  monitor_options.sketch_resolution_bits = monitored.monitor_resolution_bits;
  size_t alarms = 0;
  for (size_t t = 0; t < kTenants; ++t) {
    // Standalone replay of the tenant's stream, swap and eviction.
    auto scorer = StreamingScorer::Create(predictor, {});
    ASSERT_TRUE(scorer.ok());
    std::optional<core::ModelMonitor> monitor;
    if (t < kMonitored) {
      auto created =
          core::ModelMonitor::CreateForProba(ids[t], predictor, monitor_options);
      ASSERT_TRUE(created.ok());
      monitor.emplace(std::move(*created));
    }
    ASSERT_EQ(serial[t].size(), kBatches);
    ASSERT_EQ(parallel[t].size(), kBatches);
    for (size_t b = 0; b < kBatches; ++b) {
      if (t == 1 && b == kSwapBefore) {
        ASSERT_TRUE(scorer->SwapPredictor(retrained).ok());
        ASSERT_TRUE(monitor->SwapPredictor(retrained).ok());
      }
      if (t == 0 && b == kFlushSplit) monitor->ClearWindow();
      ASSERT_TRUE(scorer->Ingest(streams[t][b]).ok());
      const auto estimate = scorer->EstimateScore();
      ASSERT_TRUE(estimate.ok());
      for (const auto* responses : {&serial, &parallel}) {
        const ValidatorService::ScoreResponse& response = (*responses)[t][b];
        // Bitwise: the coalesced kernel batch walks trees in the same order
        // as the standalone scalar path.
        EXPECT_TRUE(SameBits(response.estimate, *estimate))
            << "tenant " << t << " batch " << b;
        EXPECT_EQ(response.monitored, monitor.has_value());
      }
      if (!monitor.has_value()) continue;
      const auto report = monitor->Observe(streams[t][b]);
      ASSERT_TRUE(report.ok());
      alarms += report->alarm ? 1 : 0;
      for (const auto* responses : {&serial, &parallel}) {
        const ValidatorService::ScoreResponse& response = (*responses)[t][b];
        EXPECT_EQ(response.alarm, report->alarm)
            << "tenant " << t << " batch " << b;
        EXPECT_TRUE(
            SameBits(response.windowed_estimate, report->windowed_estimate))
            << "tenant " << t << " batch " << b;
        EXPECT_EQ(Bits(response.windowed_relative_drop),
                  Bits(report->windowed_relative_drop));
        EXPECT_EQ(Bits(response.windowed_certified_drop),
                  Bits(report->windowed_certified_drop));
      }
    }
    EXPECT_EQ(serial_state[t], ScorerBytes(*scorer));
    EXPECT_EQ(parallel_state[t], ScorerBytes(*scorer));
  }
  // The trace must exercise both alarm outcomes to pin the alarm bits.
  EXPECT_GT(alarms, 0u);
  EXPECT_LT(alarms, kMonitored * kBatches);
}

TEST(ValidatorServiceTest, ScoreMatchesCoalescedFlush) {
  auto predictor = TrainSharedPredictor(43);
  const std::vector<linalg::Matrix> stream = TenantStream(7, 5);

  ValidatorService coalesced;
  ASSERT_TRUE(coalesced.CreateTenant("m", predictor).ok());
  for (const auto& batch : stream) coalesced.Submit("m", batch);
  const auto responses = coalesced.Flush();
  ASSERT_EQ(responses.size(), stream.size());

  ValidatorService sequential;
  ASSERT_TRUE(sequential.CreateTenant("m", predictor).ok());
  for (size_t b = 0; b < stream.size(); ++b) {
    const auto response = sequential.Score("m", stream[b]);
    ASSERT_TRUE(response.status.ok());
    ASSERT_TRUE(responses[b].status.ok());
    EXPECT_EQ(response.estimate, responses[b].estimate) << "batch " << b;
    EXPECT_EQ(response.rows_ingested, responses[b].rows_ingested);
  }
  EXPECT_EQ(TenantBytes(coalesced, "m"), TenantBytes(sequential, "m"));
}

TEST(ValidatorServiceTest, EvictionAndRehydrationAreByteInvisible) {
  auto predictor = TrainSharedPredictor(44);
  ValidatorService::Options options;
  options.max_resident_tenants = 1;
  ValidatorService service(options);
  ASSERT_TRUE(service.CreateTenant("a", predictor).ok());
  ASSERT_TRUE(service.CreateTenant("b", predictor).ok());
  EXPECT_EQ(service.num_resident(), 1u);

  const std::vector<linalg::Matrix> stream_a = TenantStream(0, 4);
  const std::vector<linalg::Matrix> stream_b = TenantStream(1, 4);

  // Alternate tenants so every request lands on an evicted tenant and
  // forces a rehydration round-trip.
  std::vector<core::ScoreEstimate> estimates_a;
  std::vector<core::ScoreEstimate> estimates_b;
  for (size_t b = 0; b < 4; ++b) {
    const auto response_a = service.Score("a", stream_a[b]);
    ASSERT_TRUE(response_a.status.ok()) << response_a.status.ToString();
    estimates_a.push_back(response_a.estimate);
    const auto response_b = service.Score("b", stream_b[b]);
    ASSERT_TRUE(response_b.status.ok()) << response_b.status.ToString();
    estimates_b.push_back(response_b.estimate);
  }
  EXPECT_EQ(service.num_resident(), 1u);

  const auto info_a = service.GetTenantInfo("a");
  const auto info_b = service.GetTenantInfo("b");
  ASSERT_TRUE(info_a.ok());
  ASSERT_TRUE(info_b.ok());
  // "b" was scored last, so it holds the single residency slot.
  EXPECT_FALSE(info_a->resident);
  EXPECT_TRUE(info_b->resident);
  size_t rows_a = 0;
  for (const auto& batch : stream_a) rows_a += batch.rows();
  EXPECT_EQ(info_a->rows_ingested, rows_a);

  // Evicted and resident tenants must serialize the same canonical bytes a
  // standalone scorer of the same stream produces.
  const std::vector<core::ScoreEstimate> standalone_a =
      StandaloneEstimates(predictor, stream_a);
  const std::vector<core::ScoreEstimate> standalone_b =
      StandaloneEstimates(predictor, stream_b);
  for (size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(estimates_a[b], standalone_a[b]) << "batch " << b;
    EXPECT_EQ(estimates_b[b], standalone_b[b]) << "batch " << b;
  }
  auto replay_a = StreamingScorer::Create(predictor, {});
  auto replay_b = StreamingScorer::Create(predictor, {});
  ASSERT_TRUE(replay_a.ok());
  ASSERT_TRUE(replay_b.ok());
  for (const auto& batch : stream_a) ASSERT_TRUE(replay_a->Ingest(batch).ok());
  for (const auto& batch : stream_b) ASSERT_TRUE(replay_b->Ingest(batch).ok());
  EXPECT_EQ(TenantBytes(service, "a"), ScorerBytes(*replay_a));
  EXPECT_EQ(TenantBytes(service, "b"), ScorerBytes(*replay_b));

  // EstimateScore rehydrates "a" and answers from the restored state.
  const auto estimate = service.EstimateScore("a");
  ASSERT_TRUE(estimate.ok());
  const auto replayed = replay_a->EstimateScore();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*estimate, *replayed);
  EXPECT_TRUE(service.GetTenantInfo("a")->resident);
}

TEST(ValidatorServiceTest, HotSwapAppliesAtItsQueuePosition) {
  auto old_predictor = TrainSharedPredictor(45);
  auto new_predictor = TrainSharedPredictor(46);
  const linalg::Matrix before = MixtureBatch(0.8, 300);
  const linalg::Matrix after = MixtureBatch(0.8, 310);

  ValidatorService service;
  ASSERT_TRUE(service.CreateTenant("m", old_predictor).ok());
  const uint64_t id_before = service.Submit("m", before);
  const uint64_t id_swap = service.SubmitSwap("m", new_predictor);
  const uint64_t id_after = service.Submit("m", after);
  const auto responses = service.Flush();
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_EQ(responses[0].request_id, id_before);
  ASSERT_EQ(responses[1].request_id, id_swap);
  ASSERT_EQ(responses[2].request_id, id_after);
  ASSERT_TRUE(responses[0].status.ok());
  ASSERT_TRUE(responses[1].status.ok());
  ASSERT_TRUE(responses[2].status.ok());
  EXPECT_TRUE(responses[1].is_swap);
  EXPECT_EQ(responses[0].epoch, 0u);
  EXPECT_EQ(responses[1].epoch, 1u);
  EXPECT_EQ(responses[2].epoch, 1u);

  // The request ahead of the swap is scored by the old forest; the one
  // behind it by the new forest — even though all three ride one flush.
  auto replay = StreamingScorer::Create(old_predictor, {});
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(replay->Ingest(before).ok());
  const auto old_estimate = replay->EstimateScore();
  ASSERT_TRUE(old_estimate.ok());
  EXPECT_EQ(responses[0].estimate, *old_estimate);

  ASSERT_TRUE(replay->SwapPredictor(new_predictor).ok());
  ASSERT_TRUE(replay->Ingest(after).ok());
  const auto new_estimate = replay->EstimateScore();
  ASSERT_TRUE(new_estimate.ok());
  EXPECT_EQ(responses[2].estimate, *new_estimate);

  // The two forests genuinely differ, otherwise this test proves nothing.
  auto cross_check = StreamingScorer::Create(old_predictor, {});
  ASSERT_TRUE(cross_check.ok());
  ASSERT_TRUE(cross_check->Ingest(before).ok());
  ASSERT_TRUE(cross_check->Ingest(after).ok());
  const auto old_path = cross_check->EstimateScore();
  ASSERT_TRUE(old_path.ok());
  EXPECT_NE(responses[2].estimate, *old_path);

  const auto info = service.GetTenantInfo("m");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 1u);
}

TEST(ValidatorServiceTest, MalformedRequestsFailSoftly) {
  auto predictor = TrainSharedPredictor(47);
  ValidatorService service;
  ASSERT_TRUE(service.CreateTenant("m", predictor).ok());

  EXPECT_EQ(service.Score("ghost", MixtureBatch(1.0, 8)).status.code(),
            common::StatusCode::kNotFound);

  EXPECT_FALSE(service.Score("m", linalg::Matrix()).status.ok());
  EXPECT_FALSE(service.Score("m", linalg::Matrix(4, 3)).status.ok());
  linalg::Matrix poisoned = MixtureBatch(1.0, 8);
  poisoned.At(3, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(service.Score("m", poisoned).status.ok());

  // A rejected swap leaves the tenant on its old predictor and epoch.
  service.SubmitSwap("m", nullptr);
  service.SubmitSwap("m",
                     std::make_shared<const core::PerformancePredictor>());
  for (const auto& response : service.Flush()) {
    EXPECT_TRUE(response.is_swap);
    EXPECT_FALSE(response.status.ok());
  }
  const auto info = service.GetTenantInfo("m");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 0u);
  EXPECT_EQ(info->rows_ingested, 0u);

  // The tenant is fully usable after every failure above.
  const auto response = service.Score("m", MixtureBatch(1.0, 200));
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(std::isfinite(response.estimate.point));
  EXPECT_EQ(response.rows_ingested, 200u);
}

TEST(ValidatorServiceTest, MonitoredTenantAlarmsOnWindowedDrop) {
  auto predictor = TrainSharedPredictor(48);
  ValidatorService service;
  ValidatorService::TenantOptions options;
  options.window_batches = 2;
  options.alarm_threshold = 0.35;
  ASSERT_TRUE(service.CreateTenant("m", predictor, options).ok());

  const linalg::Matrix good = MixtureBatch(1.0, 400);
  const linalg::Matrix bad = MixtureBatch(0.0, 400);

  const auto healthy = service.Score("m", good);
  ASSERT_TRUE(healthy.status.ok());
  EXPECT_TRUE(healthy.monitored);
  EXPECT_FALSE(healthy.alarm);

  // One degraded batch shares the window with the healthy one: no alarm.
  const auto mixed = service.Score("m", bad);
  ASSERT_TRUE(mixed.status.ok());
  EXPECT_FALSE(mixed.alarm);
  EXPECT_LT(mixed.windowed_relative_drop, options.alarm_threshold);

  // The second degraded batch evicts the healthy one and the alarm fires.
  const auto degraded = service.Score("m", bad);
  ASSERT_TRUE(degraded.status.ok());
  EXPECT_TRUE(degraded.alarm);
  EXPECT_GE(degraded.windowed_relative_drop, options.alarm_threshold);
  const auto info = service.GetTenantInfo("m");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->monitored);
  EXPECT_EQ(info->monitor_alarms, 1u);
}

TEST(ValidatorServiceTest, ConcurrentSubmitFlushAndSwapStayCoherent) {
  ScopedThreadsEnv env("8");
  auto predictor = TrainSharedPredictor(49);
  auto retrained = TrainSharedPredictor(50);
  const size_t kWorkers = 6;
  const size_t kBatches = 5;

  ValidatorService service;
  std::vector<std::string> ids;
  std::vector<std::vector<linalg::Matrix>> streams;
  for (size_t t = 0; t < kWorkers; ++t) {
    ids.push_back("tenant-" + std::to_string(t));
    ASSERT_TRUE(service.CreateTenant(ids[t], predictor).ok());
    streams.push_back(TenantStream(t, kBatches));
  }

  // Each worker drives its own tenant: submits its stream in order,
  // interleaves Flush calls (draining whatever other workers queued), and
  // worker 0 hot-swaps its tenant mid-stream. Per-tenant submission order
  // is still total because one worker owns each tenant, so the final state
  // must match a standalone replay no matter how the flushes interleave.
  const common::Status raced =
      common::ParallelFor(kWorkers, [&](size_t t) -> common::Status {
        for (size_t b = 0; b < kBatches; ++b) {
          service.Submit(ids[t], streams[t][b]);
          if (t == 0 && b == 2) service.SubmitSwap(ids[t], retrained);
          if (b % 2 == 1) service.Flush();
        }
        return common::Status::OK();
      });
  ASSERT_TRUE(raced.ok());
  service.Flush();
  EXPECT_EQ(service.num_pending(), 0u);

  for (size_t t = 0; t < kWorkers; ++t) {
    auto replay = StreamingScorer::Create(predictor, {});
    ASSERT_TRUE(replay.ok());
    for (const auto& batch : streams[t]) {
      ASSERT_TRUE(replay->Ingest(batch).ok());
    }
    EXPECT_EQ(TenantBytes(service, ids[t]), ScorerBytes(*replay))
        << "tenant " << t;
    const auto info = service.GetTenantInfo(ids[t]);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->epoch, t == 0 ? 1u : 0u);
    const auto estimate = service.EstimateScore(ids[t]);
    ASSERT_TRUE(estimate.ok());
    EXPECT_TRUE(std::isfinite(estimate->point));
  }
}

}  // namespace
}  // namespace bbv::serve
