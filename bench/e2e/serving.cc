// The two serving workloads: many small tenants behind serve::ValidatorService
// (serve_fleet) and a few monitored tenants with large requests
// (serve_monitored). Both are closed loops with one client: Flush blocks its
// caller, so the client submits one flush worth of requests, flushes, and
// only then generates the next group.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/e2e/e2e.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/monitor.h"
#include "core/performance_predictor.h"
#include "core/prediction_statistics.h"
#include "linalg/matrix.h"
#include "serve/streaming_scorer.h"
#include "serve/validator_service.h"

namespace bbv::bench::e2e {
namespace {

constexpr size_t kNumPredictors = 3;
/// Reference score of the synthetic predictors: the score of a batch whose
/// rows are 95% confident.
constexpr double kReferenceScore = 0.98;
/// Batch reports a monitored tenant keeps. Past the limit every Observe
/// erases the oldest report (an O(limit) vector erase), so timing must
/// start with every history full; 100 keeps the warm-up that fills them
/// short.
constexpr size_t kMonitorHistory = 100;

/// Shape of one serving workload. Counts are requests (scoring ops); swaps
/// are extra ops.
struct ServingShape {
  const char* name = "";
  size_t tenants = 0;
  /// Residency cap of the service; 0 keeps every tenant resident.
  size_t resident_cap = 0;
  /// Ops submitted per Flush.
  size_t flush_ops = 0;
  /// Monitor window per tenant; 0 runs without monitors.
  size_t window_batches = 0;
  /// Zipf(1.1) tenant popularity with bursts of 1-3 requests; otherwise
  /// tenants are drawn uniformly, one request at a time.
  bool zipf = false;
  /// Requests between hot-swap rounds of the hottest tenants; 0 = none.
  size_t swap_every = 0;
  size_t swapped_tenants = 0;
  size_t min_rows = 0;
  size_t max_rows = 0;
  /// Request pool: healthy batches, then degraded ones.
  size_t healthy_batches = 0;
  size_t degraded_batches = 0;
  /// A degrading tenant (every fourth) serves healthy batches for its first
  /// `degrade_after` requests, then ramps to degraded ones over
  /// `degrade_ramp` more.
  size_t degrade_after = 0;
  size_t degrade_ramp = 1;
  /// Requests checked against the standalone replay (and digested).
  size_t oracle_requests = 0;
  size_t warmup_requests = 0;
  /// Fixed request count of a smoke run.
  size_t smoke_requests = 0;
};

ServingShape FleetShape(bool smoke) {
  ServingShape shape;
  shape.name = "serve_fleet";
  shape.tenants = smoke ? 200 : 1000;
  shape.resident_cap = smoke ? 50 : 250;
  shape.flush_ops = 64;
  shape.zipf = true;
  shape.swap_every = smoke ? 1000 : 100000;
  shape.swapped_tenants = 8;
  shape.min_rows = 60;
  shape.max_rows = 140;
  shape.healthy_batches = smoke ? 256 : 4096;
  shape.oracle_requests = 10000;
  shape.warmup_requests = smoke ? 500 : 20000;
  shape.smoke_requests = 3000;
  return shape;
}

ServingShape MonitoredShape(bool smoke) {
  ServingShape shape;
  shape.name = "serve_monitored";
  shape.tenants = smoke ? 16 : 64;
  shape.flush_ops = 16;
  shape.window_batches = 8;
  shape.min_rows = 1000;
  shape.max_rows = 4000;
  shape.healthy_batches = smoke ? 32 : 384;
  shape.degraded_batches = smoke ? 16 : 128;
  shape.degrade_after = 8;
  shape.degrade_ramp = 32;
  shape.oracle_requests = 10000;
  shape.warmup_requests = smoke ? 50 : 8000;
  shape.smoke_requests = 400;
  return shape;
}

/// Binary predict_proba batch: a `good_fraction` share of the rows put
/// 0.9-1.0 on their class, the rest 0.5-0.7.
linalg::Matrix ProbaBatch(common::Rng& rng, size_t rows, double good_fraction) {
  linalg::Matrix batch(rows, 2);
  for (size_t i = 0; i < rows; ++i) {
    const double confidence = rng.Uniform() < good_fraction
                                  ? rng.Uniform(0.9, 1.0)
                                  : rng.Uniform(0.5, 0.7);
    const size_t winner = rng.UniformInt(2);
    batch.At(i, winner) = confidence;
    batch.At(i, 1 - winner) = 1.0 - confidence;
  }
  return batch;
}

/// A calibrated predictor meta-trained on synthetic (statistics, score)
/// pairs; score = 0.6 + 0.4 * confident share.
std::shared_ptr<const core::PerformancePredictor> TrainPredictor(
    uint64_t seed) {
  common::Rng rng(seed);
  core::PerformancePredictor::Options options;
  options.tree_count_grid = {30};
  core::PerformancePredictor predictor(options);
  std::vector<std::vector<double>> statistics;
  std::vector<double> scores;
  for (const size_t rows : {100, 400, 1600}) {
    for (int level = 0; level <= 20; ++level) {
      const double fraction = static_cast<double>(level) / 20.0;
      statistics.push_back(
          core::PredictionStatistics(ProbaBatch(rng, rows, fraction)));
      scores.push_back(0.6 + 0.4 * fraction);
    }
  }
  const common::Status trained =
      predictor.TrainFromStatistics(statistics, scores, kReferenceScore, rng);
  BBV_CHECK(trained.ok()) << trained.ToString();
  return std::make_shared<const core::PerformancePredictor>(
      std::move(predictor));
}

struct TraceOp {
  uint32_t tenant = 0;
  uint32_t batch = 0;
  bool swap = false;
  uint32_t predictor = 0;
};

/// The request stream of one workload: a pure function of the seed, so
/// the service run, the standalone replays and the traced replay all see
/// the same ops by regenerating them.
class TraceGenerator {
 public:
  TraceGenerator(const ServingShape& shape, uint64_t seed)
      : shape_(shape), rng_(seed), tenant_requests_(shape.tenants, 0) {
    if (shape.zipf) {
      double total = 0.0;
      for (size_t t = 0; t < shape.tenants; ++t) {
        total += 1.0 / std::pow(static_cast<double>(t + 1), 1.1);
        cdf_.push_back(total);
      }
      for (double& value : cdf_) value /= total;
    }
  }

  TraceOp Next() {
    TraceOp op;
    if (pending_swaps_ > 0) {
      // Tenant ids are popularity ranks, so 0..swapped-1 are the hottest.
      op.swap = true;
      op.tenant = static_cast<uint32_t>(shape_.swapped_tenants -
                                        pending_swaps_);
      op.predictor =
          static_cast<uint32_t>((op.tenant + swap_round_) % kNumPredictors);
      --pending_swaps_;
      return op;
    }
    if (burst_left_ == 0) {
      if (shape_.zipf) {
        const double u = rng_.Uniform();
        burst_tenant_ = static_cast<uint32_t>(std::min<size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
            shape_.tenants - 1));
        burst_left_ = 1 + rng_.UniformInt(3);
      } else {
        burst_tenant_ = static_cast<uint32_t>(rng_.UniformInt(shape_.tenants));
        burst_left_ = 1;
      }
    }
    --burst_left_;
    op.tenant = burst_tenant_;
    const size_t seen = tenant_requests_[op.tenant]++;
    bool degraded = false;
    if (shape_.degraded_batches > 0 && op.tenant % 4 == 0 &&
        seen >= shape_.degrade_after) {
      const double onset = static_cast<double>(seen - shape_.degrade_after) /
                           static_cast<double>(shape_.degrade_ramp);
      degraded = rng_.Uniform() < std::min(1.0, onset);
    }
    op.batch = static_cast<uint32_t>(
        degraded ? shape_.healthy_batches +
                       rng_.UniformInt(shape_.degraded_batches)
                 : rng_.UniformInt(shape_.healthy_batches));
    ++requests_;
    if (shape_.swap_every > 0 && requests_ % shape_.swap_every == 0) {
      pending_swaps_ = shape_.swapped_tenants;
      ++swap_round_;
    }
    return op;
  }

 private:
  const ServingShape& shape_;
  common::Rng rng_;
  std::vector<double> cdf_;
  std::vector<size_t> tenant_requests_;
  uint32_t burst_tenant_ = 0;
  size_t burst_left_ = 0;
  size_t requests_ = 0;
  size_t pending_swaps_ = 0;
  size_t swap_round_ = 0;
};

uint64_t TraceSeed(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ull + 3; }

/// Everything a serving run needs before its first timed op.
struct ServingState {
  std::vector<std::shared_ptr<const core::PerformancePredictor>> predictors;
  std::vector<linalg::Matrix> pool;
  std::vector<std::string> ids;
  std::unique_ptr<serve::ValidatorService> service;
};

serve::ValidatorService::TenantOptions TenantOptionsFor(
    const ServingShape& shape) {
  serve::ValidatorService::TenantOptions options;
  options.window_batches = shape.window_batches;
  options.history_limit = kMonitorHistory;
  return options;
}

std::unique_ptr<serve::ValidatorService> BuildService(
    const ServingShape& shape, const ServingState& state) {
  serve::ValidatorService::Options options;
  options.max_resident_tenants = shape.resident_cap;
  auto service = std::make_unique<serve::ValidatorService>(options);
  for (size_t t = 0; t < shape.tenants; ++t) {
    const common::Status created = service->CreateTenant(
        state.ids[t], state.predictors[t % kNumPredictors],
        TenantOptionsFor(shape));
    BBV_CHECK(created.ok()) << created.ToString();
  }
  return service;
}

std::unique_ptr<ServingState> BuildState(const ServingShape& shape,
                                         uint64_t seed) {
  auto state = std::make_unique<ServingState>();
  for (size_t p = 0; p < kNumPredictors; ++p) {
    state->predictors.push_back(TrainPredictor(seed * 31 + 7 + p));
  }
  common::Rng rng(seed * 31 + 101);
  const size_t pool_size = shape.healthy_batches + shape.degraded_batches;
  state->pool.reserve(pool_size);
  for (size_t b = 0; b < pool_size; ++b) {
    const size_t rows =
        shape.min_rows + rng.UniformInt(shape.max_rows - shape.min_rows + 1);
    const double good_fraction = b < shape.healthy_batches
                                     ? rng.Uniform(0.85, 1.0)
                                     : rng.Uniform(0.1, 0.5);
    state->pool.push_back(ProbaBatch(rng, rows, good_fraction));
  }
  for (size_t t = 0; t < shape.tenants; ++t) {
    state->ids.push_back("model-" + std::to_string(t));
  }
  state->service = BuildService(shape, *state);
  return state;
}

/// What the checks compare for one scoring request.
struct ResponseRecord {
  core::ScoreEstimate estimate;
  bool alarm = false;
  core::ScoreEstimate windowed;
};

bool SameRecord(const ResponseRecord& a, const ResponseRecord& b) {
  return SameEstimate(a.estimate, b.estimate) && a.alarm == b.alarm &&
         SameEstimate(a.windowed, b.windowed);
}

uint64_t DigestOf(const std::vector<ResponseRecord>& records) {
  Digest digest;
  for (const ResponseRecord& record : records) {
    digest.Add(record.estimate);
    digest.Add(record.alarm);
    digest.Add(record.windowed);
  }
  return digest.value();
}

core::ModelMonitor::Options MonitorOptionsFor(const ServingShape& shape) {
  // Mirrors what ValidatorService::CreateTenant builds from TenantOptions.
  const serve::ValidatorService::TenantOptions tenant =
      TenantOptionsFor(shape);
  core::ModelMonitor::Options options;
  options.alarm_threshold = tenant.alarm_threshold;
  options.alarm_policy = tenant.alarm_policy;
  options.history_limit = tenant.history_limit;
  options.window_batches = tenant.window_batches;
  options.sketch_resolution_bits = tenant.monitor_resolution_bits;
  return options;
}

std::string StateBytes(const serve::StreamingScorer& scorer) {
  std::ostringstream out;
  const common::Status saved = scorer.SaveState(out);
  BBV_CHECK(saved.ok()) << saved.ToString();
  return std::move(out).str();
}

/// The service rebuilt from the public calls Flush makes internally, for
/// traced runs: StreamingScorer Ingest / PercentileFeatures / SaveState /
/// LoadState, PerformancePredictor::EstimateScoresFromStatistics over the
/// same per-flush tenant segments, and ModelMonitor::Observe, with the
/// service's grouping, residency cap and LRU order. It runs its calls one
/// after another on the calling thread, one span each, right after the
/// one-thread service pass flushes the same group — so both see the same
/// machine state.
class DecomposedMirror {
 public:
  DecomposedMirror(const ServingShape& shape, const ServingState& state,
                   Tracer& tracer)
      : shape_(shape), state_(state), tracer_(tracer), tenants_(shape.tenants) {
    // Registration, as CreateTenant does it: touch in creation order and
    // enforce the cap after each tenant. Not part of any flush, so untraced.
    const core::ModelMonitor::Options monitor_options =
        MonitorOptionsFor(shape);
    for (size_t t = 0; t < shape.tenants; ++t) {
      Tenant& tenant = tenants_[t];
      tenant.predictor = state.predictors[t % kNumPredictors];
      auto scorer = serve::StreamingScorer::Create(tenant.predictor, {});
      BBV_CHECK(scorer.ok());
      tenant.scorer.emplace(std::move(*scorer));
      if (shape.window_batches > 0) {
        auto monitor = core::ModelMonitor::CreateForProba(
            state.ids[t], tenant.predictor, monitor_options);
        BBV_CHECK(monitor.ok());
        tenant.monitor.emplace(std::move(*monitor));
      }
      tenant.touch = ++clock_;
      EnforceCap(untraced_);
    }
  }

  /// Applies one flush group; spans only when `traced`.
  void Flush(const std::vector<TraceOp>& group, bool traced) {
    Tracer& spans = traced ? tracer_ : untraced_;
    const Tracer::Scope flush_span(spans, "replay.flush");
    std::map<uint32_t, std::vector<size_t>> by_tenant;
    std::vector<uint32_t> order;
    for (size_t i = 0; i < group.size(); ++i) {
      auto [it, inserted] = by_tenant.try_emplace(group[i].tenant);
      if (inserted) order.push_back(group[i].tenant);
      it->second.push_back(i);
    }
    for (const uint32_t t : order) {
      Tenant& tenant = tenants_[t];
      if (!tenant.scorer.has_value()) {
        const Tracer::Scope span(spans, "serve.state_load");
        auto scorer = serve::StreamingScorer::Create(tenant.predictor, {});
        BBV_CHECK(scorer.ok());
        std::istringstream in(tenant.cold);
        BBV_CHECK(scorer->LoadState(in).ok());
        tenant.scorer.emplace(std::move(*scorer));
        tenant.cold.clear();
      }
      tenant.touch = ++clock_;
    }
    for (const uint32_t t : order) {
      Tenant& tenant = tenants_[t];
      std::vector<std::vector<double>> segment;
      const auto close_segment = [&]() {
        if (segment.empty()) return;
        const Tracer::Scope span(spans, "serve.estimate");
        const linalg::Matrix statistics = linalg::Matrix::FromRows(segment);
        std::vector<core::ScoreEstimate> estimates(segment.size());
        BBV_CHECK(tenant.predictor
                      ->EstimateScoresFromStatistics(
                          statistics,
                          std::span<core::ScoreEstimate>(estimates))
                      .ok());
        segment.clear();
      };
      for (const size_t i : by_tenant.at(t)) {
        const TraceOp& op = group[i];
        if (op.swap) {
          close_segment();
          const auto& next = state_.predictors[op.predictor];
          BBV_CHECK(tenant.scorer->SwapPredictor(next).ok());
          if (tenant.monitor.has_value()) {
            BBV_CHECK(tenant.monitor->SwapPredictor(next).ok());
          }
          tenant.predictor = next;
          continue;
        }
        const linalg::Matrix& batch = state_.pool[op.batch];
        {
          const Tracer::Scope span(spans, "serve.ingest");
          BBV_CHECK(tenant.scorer->Ingest(batch).ok());
        }
        {
          const Tracer::Scope span(spans, "serve.features");
          auto features = tenant.scorer->PercentileFeatures();
          BBV_CHECK(features.ok());
          segment.push_back(std::move(*features));
        }
        if (tenant.monitor.has_value()) {
          // A monitor rejection is not a scoring failure in the service
          // either; the mirror only times the call.
          const Tracer::Scope span(spans, "serve.monitor");
          [[maybe_unused]] const auto report = tenant.monitor->Observe(batch);
        }
      }
      close_segment();
    }
    EnforceCap(spans);
  }

 private:
  struct Tenant {
    std::shared_ptr<const core::PerformancePredictor> predictor;
    std::optional<serve::StreamingScorer> scorer;
    std::string cold;
    std::optional<core::ModelMonitor> monitor;
    uint64_t touch = 0;
  };

  void EnforceCap(Tracer& spans) {
    if (shape_.resident_cap == 0) return;
    while (true) {
      size_t resident = 0;
      Tenant* coldest = nullptr;
      for (Tenant& tenant : tenants_) {
        if (!tenant.scorer.has_value()) continue;
        ++resident;
        if (coldest == nullptr || tenant.touch < coldest->touch) {
          coldest = &tenant;
        }
      }
      if (resident <= shape_.resident_cap) return;
      {
        const Tracer::Scope span(spans, "serve.state_save");
        coldest->cold = StateBytes(*coldest->scorer);
      }
      coldest->scorer.reset();
      if (coldest->monitor.has_value()) coldest->monitor->ClearWindow();
    }
  }

  const ServingShape& shape_;
  const ServingState& state_;
  Tracer& tracer_;
  Tracer untraced_{false};
  std::vector<Tenant> tenants_;
  uint64_t clock_ = 0;
};

struct PassResult {
  uint64_t ops = 0;
  uint64_t requests = 0;
  /// Ops and requests in the timed part of the pass.
  uint64_t timed_ops = 0;
  uint64_t timed_requests = 0;
  /// Seconds inside the timed Submit and Flush calls.
  double call_seconds = 0.0;
  /// Per flush: rows and seconds inside its Submit and Flush calls. Per
  /// request: from its Submit call to the return of its Flush.
  LoopSamples samples;
  /// Wall seconds of every Flush, in order (flush k drains ops
  /// [k * flush_ops, (k + 1) * flush_ops)); timing starts at
  /// first_timed_flush.
  std::vector<double> flush_seconds;
  size_t first_timed_flush = 0;
  /// The first `oracle_requests` responses.
  std::vector<ResponseRecord> prefix;
};

/// One closed-loop pass over the trace from its start on a fresh service.
/// The first `shape.warmup_requests` requests are untimed and untraced, so
/// timing starts in steady state: residency at its cap, monitor windows and
/// histories full. Then the pass times (and, with an enabled tracer,
/// traces) until `seconds` have passed and the checked prefix is complete
/// (smoke: until the fixed request count), stopping at a flush boundary.
/// A `mirror` replays every flushed group right after the service.
PassResult RunPass(const ServingShape& shape, const ServingState& state,
                   serve::ValidatorService& service, const RunSpec& spec,
                   double seconds, Tracer& tracer, WorkloadResult& result,
                   DecomposedMirror* mirror = nullptr) {
  PassResult pass;
  TraceGenerator trace(shape, TraceSeed(spec.seed));
  std::vector<TraceOp> group(shape.flush_ops);
  std::vector<linalg::Matrix> payloads(shape.flush_ops);
  std::vector<double> submitted_at(shape.flush_ops);
  Tracer warmup(false);
  WallTimer clock;
  bool timed = false;
  while (true) {
    if (!timed && pass.requests >= shape.warmup_requests) {
      timed = true;
      pass.first_timed_flush = pass.flush_seconds.size();
      // A traced pass reads the library's telemetry over its timed part.
      if (tracer.enabled()) ResetLibraryTelemetry();
      clock.Reset();
    }
    Tracer& spans = timed ? tracer : warmup;
    // Client-side work, outside the timed calls: draw the next group and
    // copy its payloads out of the pool.
    for (size_t i = 0; i < shape.flush_ops; ++i) {
      group[i] = trace.Next();
      if (!group[i].swap) payloads[i] = state.pool[group[i].batch];
    }
    double group_seconds = 0.0;
    double group_rows = 0.0;
    for (size_t i = 0; i < shape.flush_ops; ++i) {
      const TraceOp& op = group[i];
      const double start = clock.Seconds();
      {
        const Tracer::Scope span(spans, "serve.submit", pass.ops + i);
        if (op.swap) {
          service.SubmitSwap(state.ids[op.tenant],
                             state.predictors[op.predictor]);
        } else {
          service.Submit(state.ids[op.tenant], std::move(payloads[i]));
        }
      }
      submitted_at[i] = start;
      group_seconds += clock.Seconds() - start;
    }
    const double flush_start = clock.Seconds();
    std::vector<serve::ValidatorService::ScoreResponse> responses;
    {
      const Tracer::Scope span(spans, "serve.flush");
      responses = service.Flush();
    }
    const double flush_end = clock.Seconds();
    group_seconds += flush_end - flush_start;
    pass.flush_seconds.push_back(flush_end - flush_start);
    BBV_CHECK(responses.size() == shape.flush_ops);
    for (size_t i = 0; i < shape.flush_ops; ++i) {
      const auto& response = responses[i];
      if (!response.status.ok()) {
        result.Fail("op " + std::to_string(pass.ops + i) + ": " +
                    response.status.ToString());
      }
      if (group[i].swap) continue;
      if (timed) {
        pass.samples.latencies.push_back(
            {flush_end, flush_end - submitted_at[i]});
        ++pass.timed_requests;
      }
      group_rows += static_cast<double>(state.pool[group[i].batch].rows());
      if (pass.prefix.size() < shape.oracle_requests) {
        pass.prefix.push_back(
            {response.estimate, response.alarm, response.windowed_estimate});
      }
      ++pass.requests;
    }
    if (mirror != nullptr) mirror->Flush(group, timed);
    pass.ops += shape.flush_ops;
    if (!timed) continue;
    pass.samples.work.push_back({flush_end, group_rows, group_seconds});
    pass.call_seconds += group_seconds;
    pass.timed_ops += shape.flush_ops;
    if (spec.smoke ? pass.requests >= shape.smoke_requests
                   : pass.prefix.size() >= shape.oracle_requests &&
                         clock.Seconds() >= seconds) {
      break;
    }
  }
  return pass;
}

/// Output checks, after the timed region: the pass's first responses must
/// equal a standalone per-tenant StreamingScorer (+ ModelMonitor) replay
/// bit for bit, and every tenant's final state must equal an ingest-only
/// standalone replay of every request the pass served.
void CheckPass(const ServingShape& shape, const ServingState& state,
               const serve::ValidatorService& service, uint64_t seed,
               const PassResult& pass, WorkloadResult& result) {
  // Every op the pass served, its request index among the scoring ops, and
  // each tenant's trace positions; the checked prefix ends at prefix_end.
  std::vector<TraceOp> ops(pass.ops);
  std::vector<size_t> request_index(pass.ops, 0);
  std::vector<std::vector<size_t>> positions(shape.tenants);
  size_t prefix_end = 0;
  TraceGenerator trace(shape, TraceSeed(seed));
  for (size_t i = 0, requests = 0; i < pass.ops; ++i) {
    ops[i] = trace.Next();
    positions[ops[i].tenant].push_back(i);
    if (ops[i].swap) continue;
    request_index[i] = requests++;
    if (requests <= pass.prefix.size()) prefix_end = i + 1;
  }
  std::vector<ResponseRecord> expected(pass.prefix.size());
  const core::ModelMonitor::Options monitor_options = MonitorOptionsFor(shape);
  const common::Status replayed = common::ParallelFor(
      shape.tenants, [&](size_t t) -> common::Status {
        if (positions[t].empty() || positions[t].front() >= prefix_end) {
          return common::Status::OK();
        }
        const auto& predictor = state.predictors[t % kNumPredictors];
        BBV_ASSIGN_OR_RETURN(serve::StreamingScorer scorer,
                             serve::StreamingScorer::Create(predictor, {}));
        std::optional<core::ModelMonitor> monitor;
        if (shape.window_batches > 0) {
          BBV_ASSIGN_OR_RETURN(monitor,
                               core::ModelMonitor::CreateForProba(
                                   state.ids[t], predictor, monitor_options));
        }
        for (const size_t position : positions[t]) {
          if (position >= prefix_end) break;
          const TraceOp& op = ops[position];
          if (op.swap) {
            BBV_RETURN_NOT_OK(
                scorer.SwapPredictor(state.predictors[op.predictor]));
            if (monitor.has_value()) {
              BBV_RETURN_NOT_OK(
                  monitor->SwapPredictor(state.predictors[op.predictor]));
            }
            continue;
          }
          const linalg::Matrix& batch = state.pool[op.batch];
          BBV_RETURN_NOT_OK(scorer.Ingest(batch));
          ResponseRecord& record = expected[request_index[position]];
          BBV_ASSIGN_OR_RETURN(record.estimate, scorer.EstimateScore());
          if (monitor.has_value()) {
            const auto report = monitor->Observe(batch);
            if (report.ok()) {
              record.alarm = report->alarm;
              record.windowed = report->windowed_estimate;
            }
          }
        }
        return common::Status::OK();
      });
  if (!replayed.ok()) {
    result.Fail("standalone replay failed: " + replayed.ToString());
    return;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (!SameRecord(pass.prefix[i], expected[i])) {
      result.Fail("request " + std::to_string(i) +
                  " differs from the standalone replay");
    }
  }

  // Ingest-only replay of every served request: the sketch state is a pure
  // function of the ingested multiset, so swaps and evictions must not
  // show in the bytes.
  std::vector<std::string> states(shape.tenants);
  const common::Status ingested = common::ParallelFor(
      shape.tenants, [&](size_t t) -> common::Status {
        BBV_ASSIGN_OR_RETURN(
            serve::StreamingScorer scorer,
            serve::StreamingScorer::Create(
                state.predictors[t % kNumPredictors], {}));
        for (const size_t position : positions[t]) {
          const TraceOp& op = ops[position];
          if (!op.swap) BBV_RETURN_NOT_OK(scorer.Ingest(state.pool[op.batch]));
        }
        states[t] = StateBytes(scorer);
        return common::Status::OK();
      });
  if (!ingested.ok()) {
    result.Fail("ingest-only replay failed: " + ingested.ToString());
    return;
  }
  for (size_t t = 0; t < shape.tenants; ++t) {
    std::ostringstream out;
    const common::Status saved = service.SaveTenantState(state.ids[t], out);
    if (!saved.ok() || !SameBytes(out.str(), states[t])) {
      result.Fail("tenant " + state.ids[t] +
                  " final state differs from the ingest-only replay");
    }
  }
}

WorkloadResult RunServing(const ServingShape& shape, const RunSpec& spec,
                          Tracer& tracer) {
  WorkloadResult result;
  double setup_seconds = 0.0;
  std::unique_ptr<ServingState> state = RepeatSetup<ServingState>(
      spec, [&]() { return BuildState(shape, spec.seed); }, &setup_seconds);
  std::printf(
      "SHAPE %s tenants=%zu resident_cap=%zu flush_ops=%zu window_batches=%zu "
      "rows=%zu-%zu pool=%zu warmup_requests=%zu checked_requests=%zu\n",
      shape.name, shape.tenants, shape.resident_cap, shape.flush_ops,
      shape.window_batches, shape.min_rows, shape.max_rows, state->pool.size(),
      shape.warmup_requests, shape.oracle_requests);

  if (!tracer.enabled()) {
    const PassResult pass = RunPass(shape, *state, *state->service, spec,
                                    spec.seconds, tracer, result);
    result.ops = pass.ops;
    result.digest = DigestOf(pass.prefix);
    AddEndToEnd(result, setup_seconds, pass.samples, kWindowSeconds);
    CheckPass(shape, *state, *state->service, spec.seed, pass, result);
    return result;
  }

  // Traced run. Pass 1 is untraced and pass 2 traced, both at the measured
  // thread count; they give trace.overhead and the library telemetry.
  Tracer untraced(false);
  const PassResult plain = RunPass(shape, *state, *state->service, spec,
                                   spec.seconds / 3, untraced, result);
  const auto service = BuildService(shape, *state);
  const PassResult pass =
      RunPass(shape, *state, *service, spec, spec.seconds / 3, tracer, result);
  const LibrarySnapshot library = CaptureLibraryTelemetry();
  result.ops = pass.ops;
  result.digest = DigestOf(pass.prefix);
  result.telemetry_json = library.json;
  if (DigestOf(plain.prefix) != result.digest) {
    result.Fail("traced and untraced passes produced different outputs");
  }
  CheckPass(shape, *state, *service, spec.seed, pass, result);

  // Flush attribution: the mirror runs its calls one after another, so the
  // service pass it is compared with runs at one thread too. The one-thread
  // outputs must match the measured ones.
  const ScopedThreadsEnv one_thread(1);
  PassResult serial;
  {
    const auto serial_service = BuildService(shape, *state);
    DecomposedMirror mirror(shape, *state, tracer);
    serial = RunPass(shape, *state, *serial_service, spec, spec.seconds / 3,
                     untraced, result, &mirror);
  }
  if (DigestOf(serial.prefix) != result.digest) {
    result.Fail("outputs at BBV_THREADS=1 differ from the measured ones");
  }
  const size_t replayed =
      serial.flush_seconds.size() - serial.first_timed_flush;
  double replayed_flush_seconds = 0.0;
  for (size_t k = serial.first_timed_flush; k < serial.flush_seconds.size();
       ++k) {
    replayed_flush_seconds += serial.flush_seconds[k];
  }
  double attributed = 0.0;
  for (const char* layer :
       {"serve.ingest", "serve.features", "serve.estimate", "serve.monitor",
        "serve.state_save", "serve.state_load"}) {
    const double share = Share(tracer, layer, replayed_flush_seconds);
    attributed += share;
    result.Add(std::string(layer) + "_share", share, "share", replayed);
  }
  result.Add("serve.unattributed_share", 1.0 - attributed, "share", replayed);
  const double submit = tracer.Layer("serve.submit").total_seconds;
  const double flush = tracer.Layer("serve.flush").total_seconds;
  result.Add("serve.submit_share", submit / (submit + flush), "share",
             pass.timed_ops);
  const auto requests =
      static_cast<double>(std::max<uint64_t>(pass.timed_requests, 1));
  result.Add("serve.evictions_per_request",
             static_cast<double>(library.evictions) / requests, "1/op",
             pass.timed_requests);
  result.Add("serve.rehydrations_per_request",
             static_cast<double>(library.rehydrations) / requests, "1/op",
             pass.timed_requests);
  result.Add("stats.sketch_observe_busy_share",
             library.sketch_observe_seconds / pass.call_seconds, "share",
             pass.timed_requests);
  result.Add("core.estimate_batch_rows_mean",
             library.kernel_batches > 0
                 ? static_cast<double>(library.coalesced_requests) /
                       static_cast<double>(library.kernel_batches)
                 : 0.0,
             "rows", library.kernel_batches);
  AddCommonLayers(result, library, pass.timed_ops, pass.call_seconds,
                  plain.call_seconds / static_cast<double>(plain.timed_ops),
                  pass.call_seconds / static_cast<double>(pass.timed_ops),
                  attributed);
  AddTailLatency(result, plain.samples, kWindowSeconds);
  return result;
}

}  // namespace

WorkloadResult RunServeFleet(const RunSpec& spec, Tracer& tracer) {
  return RunServing(FleetShape(spec.smoke), spec, tracer);
}

WorkloadResult RunServeMonitored(const RunSpec& spec, Tracer& tracer) {
  return RunServing(MonitoredShape(spec.smoke), spec, tracer);
}

}  // namespace bbv::bench::e2e
