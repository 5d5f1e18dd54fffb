#include "serve/validator_service.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"

namespace bbv::serve {

namespace {

/// The standalone monitor a monitored tenant behaves like.
core::ModelMonitor::Options MonitorOptions(
    const ValidatorService::TenantOptions& options) {
  core::ModelMonitor::Options monitor_options;
  monitor_options.alarm_threshold = options.alarm_threshold;
  monitor_options.alarm_policy = options.alarm_policy;
  monitor_options.history_limit = options.history_limit;
  monitor_options.window_batches = options.window_batches;
  monitor_options.sketch_resolution_bits = options.monitor_resolution_bits;
  return monitor_options;
}

}  // namespace

common::Status ValidatorService::CreateTenant(
    const std::string& model_id,
    std::shared_ptr<const core::PerformancePredictor> predictor,
    const TenantOptions& options) {
  if (model_id.empty()) {
    return common::Status::InvalidArgument("model id must be non-empty");
  }
  // Build the per-tenant machinery before taking the lock; the factories
  // carry all the validation (trained predictor, sane resolutions, ...).
  BBV_ASSIGN_OR_RETURN(StreamingScorer scorer,
                       StreamingScorer::Create(predictor, options.scorer));
  std::optional<stats::QuantileSketchWindow> window;
  if (options.window_batches > 0) {
    if (options.monitor_resolution_bits != options.scorer.resolution_bits) {
      return common::Status::InvalidArgument(
          "monitor_resolution_bits must equal scorer.resolution_bits: the "
          "window reuses the scorer's grid cells");
    }
    BBV_RETURN_NOT_OK(core::ModelMonitor::ValidateOptions(
        *predictor, MonitorOptions(options)));
    window.emplace(options.window_batches, scorer.bank().options());
  }
  const common::MutexLock lock(mutex_);
  if (tenants_.find(model_id) != tenants_.end()) {
    return common::Status::AlreadyExists("tenant '" + model_id +
                                         "' is already registered");
  }
  Tenant& tenant = tenants_[model_id];
  tenant.predictor = std::move(predictor);
  tenant.options = options;
  tenant.scorer.emplace(std::move(scorer));
  tenant.window = std::move(window);
  tenant.last_touch = ++touch_clock_;
  common::telemetry::IncrementCounter("serve.service.tenants_created");
  EnforceResidencyCap();
  return common::Status::OK();
}

common::Status ValidatorService::RemoveTenant(const std::string& model_id) {
  const common::MutexLock lock(mutex_);
  const auto it = tenants_.find(model_id);
  if (it == tenants_.end()) {
    return common::Status::NotFound("unknown tenant '" + model_id + "'");
  }
  tenants_.erase(it);
  common::telemetry::IncrementCounter("serve.service.tenants_removed");
  return common::Status::OK();
}

uint64_t ValidatorService::Submit(const std::string& model_id,
                                  linalg::Matrix probabilities) {
  const common::MutexLock lock(mutex_);
  PendingOp op;
  op.request_id = next_request_id_++;
  op.model_id = model_id;
  op.probabilities = std::move(probabilities);
  pending_.push_back(std::move(op));
  common::telemetry::IncrementCounter("serve.service.requests");
  return pending_.back().request_id;
}

uint64_t ValidatorService::SubmitSwap(
    const std::string& model_id,
    std::shared_ptr<const core::PerformancePredictor> predictor) {
  const common::MutexLock lock(mutex_);
  PendingOp op;
  op.request_id = next_request_id_++;
  op.model_id = model_id;
  op.is_swap = true;
  op.predictor = std::move(predictor);
  pending_.push_back(std::move(op));
  common::telemetry::IncrementCounter("serve.service.swap_requests");
  return pending_.back().request_id;
}

common::Status ValidatorService::ApplySwap(
    Tenant& tenant,
    std::shared_ptr<const core::PerformancePredictor> predictor) {
  BBV_CHECK(tenant.scorer.has_value()) << "swap on a non-resident tenant";
  if (tenant.window.has_value() && predictor != nullptr) {
    // A monitored tenant's predictor must also pass the monitor's checks
    // (finite, strictly positive reference score).
    BBV_RETURN_NOT_OK(core::ModelMonitor::ValidateOptions(
        *predictor, MonitorOptions(tenant.options)));
  }
  BBV_RETURN_NOT_OK(tenant.scorer->SwapPredictor(predictor));
  if (tenant.window.has_value()) {
    // Epoch boundary (see ModelMonitor::SwapPredictor).
    tenant.window->Clear();
  }
  tenant.predictor = std::move(predictor);
  ++tenant.epoch;
  common::telemetry::IncrementCounter("serve.service.swaps");
  return common::Status::OK();
}

void ValidatorService::ProcessTenantOps(
    Tenant& tenant, const std::vector<PendingOp>& ops,
    const std::vector<size_t>& op_indices,
    std::vector<ScoreResponse>& responses) {
  const core::ModelMonitor::Options monitor_options =
      MonitorOptions(tenant.options);
  // Feature rows whose estimate is still pending: each scored request's
  // post-ingest cumulative row and, for a monitored tenant, its windowed row.
  // One kernel batch call scores them all when the segment closes (at a
  // hot-swap or at the end of the tenant's queue).
  struct PendingRow {
    /// Index into op_indices of the request the row belongs to.
    size_t position = 0;
    bool windowed = false;
  };
  std::vector<PendingRow> run;
  std::vector<std::vector<double>> run_features;
  const auto close_segment = [&]() {
    if (run.empty()) return;
    const size_t dimension = tenant.predictor->feature_dimension();
    linalg::Matrix statistics(run.size(), dimension);
    for (size_t i = 0; i < run.size(); ++i) {
      BBV_CHECK(run_features[i].size() == dimension);
      std::copy(run_features[i].begin(), run_features[i].end(),
                statistics.RowData(i));
    }
    std::vector<core::ScoreEstimate> estimates(run.size());
    // The coalesced path: one ForestKernel batch call for the whole run,
    // bit-identical per row (point and interval) to the scalar
    // EstimateScoreFromStatistics behind StreamingScorer::EstimateScore and
    // ModelMonitor::Observe.
    const common::Status scored = tenant.predictor->EstimateScoresFromStatistics(
        statistics, std::span<core::ScoreEstimate>(estimates));
    for (size_t i = 0; i < run.size(); ++i) {
      ScoreResponse& response = responses[op_indices[run[i].position]];
      if (!run[i].windowed) {
        if (scored.ok()) {
          response.estimate = estimates[i];
        } else {
          response.status = scored;
        }
        continue;
      }
      // A failed or non-finite windowed estimate raises no alarm and leaves
      // the windowed fields unset; the cumulative estimate is still
      // delivered. Unlike a standalone monitor, the batch stays in the
      // window (later requests of the segment already slid past it); only a
      // predictor with non-finite leaves can get here.
      if (!scored.ok() || !std::isfinite(estimates[i].point)) continue;
      const core::ModelMonitor::Assessment drops = core::ModelMonitor::Assess(
          estimates[i], tenant.predictor->test_score(), monitor_options);
      response.alarm = drops.alarm;
      response.windowed_estimate = estimates[i];
      response.windowed_relative_drop = drops.relative_drop;
      response.windowed_certified_drop = drops.certified_drop;
      if (drops.alarm) {
        ++tenant.monitor_alarms;
        common::telemetry::IncrementCounter("serve.service.windowed_alarms");
      }
    }
    common::telemetry::IncrementCounter("serve.service.kernel_batches");
    // Kernel rows, so a monitored request counts twice.
    common::telemetry::IncrementCounter("serve.service.coalesced_requests",
                                        run.size());
    run.clear();
    run_features.clear();
  };

  for (size_t position = 0; position < op_indices.size(); ++position) {
    const PendingOp& op = ops[op_indices[position]];
    ScoreResponse& response = responses[op_indices[position]];
    if (op.is_swap) {
      // Requests submitted before the swap must be scored by the predictor
      // they were submitted under; close their batch before switching.
      close_segment();
      response.status = ApplySwap(tenant, op.predictor);
      response.epoch = tenant.epoch;
      continue;
    }
    stats::CellBatch cells;
    const common::Status ingested = tenant.scorer->Ingest(
        op.probabilities, tenant.window.has_value() ? &cells : nullptr);
    if (!ingested.ok()) {
      common::telemetry::IncrementCounter("serve.service.request_errors");
      response.status = ingested;
      continue;
    }
    response.rows_ingested = tenant.scorer->rows_ingested();
    response.epoch = tenant.epoch;
    const common::Result<std::vector<double>> features =
        tenant.scorer->PercentileFeatures();
    if (!features.ok()) {
      response.status = features.status();
      continue;
    }
    run.push_back({position, false});
    run_features.push_back(*features);
    if (!tenant.window.has_value()) continue;
    response.monitored = true;
    // The window takes the cells the ingest just mapped. A window failure
    // is not a scoring failure: the estimate is still delivered and the
    // window skips the batch (as a standalone ModelMonitor rejecting it).
    if (tenant.window->Push(std::move(cells)).ok()) {
      run.push_back({position, true});
      run_features.push_back(tenant.window->bank().PercentileFeatures(
          tenant.predictor->percentile_points()));
    }
  }
  close_segment();
}

std::vector<ValidatorService::ScoreResponse> ValidatorService::Flush() {
  const common::telemetry::TraceSpan span("serve.service.flush");
  const common::MutexLock lock(mutex_);
  std::vector<PendingOp> ops;
  ops.swap(pending_);
  std::vector<ScoreResponse> responses(ops.size());
  if (ops.empty()) return responses;

  // Group the drained queue by tenant, preserving submission order within
  // each tenant; `order` remembers first-appearance order so the fan-out
  // below and the LRU stamps are deterministic.
  std::map<std::string, std::vector<size_t>> by_tenant;
  std::vector<std::string> order;
  for (size_t i = 0; i < ops.size(); ++i) {
    responses[i].request_id = ops[i].request_id;
    responses[i].model_id = ops[i].model_id;
    responses[i].is_swap = ops[i].is_swap;
    auto [it, inserted] = by_tenant.try_emplace(ops[i].model_id);
    if (inserted) order.push_back(ops[i].model_id);
    it->second.push_back(i);
  }

  // Resolve tenants and rehydrate serially (rehydration mutates the
  // registry and the order of rehydrations must not depend on BBV_THREADS).
  struct TenantWork {
    Tenant* tenant = nullptr;
    const std::vector<size_t>* op_indices = nullptr;
  };
  std::vector<TenantWork> work;
  work.reserve(order.size());
  for (const std::string& model_id : order) {
    const std::vector<size_t>& op_indices = by_tenant.at(model_id);
    const auto it = tenants_.find(model_id);
    common::Status resolve = common::Status::OK();
    if (it == tenants_.end()) {
      resolve = common::Status::NotFound("unknown tenant '" + model_id + "'");
    } else {
      resolve = EnsureResident(it->second);
    }
    if (!resolve.ok()) {
      for (const size_t i : op_indices) responses[i].status = resolve;
      common::telemetry::IncrementCounter("serve.service.request_errors",
                                          op_indices.size());
      continue;
    }
    it->second.last_touch = ++touch_clock_;
    work.push_back({&it->second, &op_indices});
  }

  // Fan the tenants out over the shared pool: each task owns one tenant's
  // state and disjoint response slots, so results are byte-identical at
  // every BBV_THREADS setting. Per-op statuses carry all failures, so the
  // tasks themselves never fail.
  const common::Status fanned_out = common::ParallelFor(
      work.size(), [&](size_t t) -> common::Status {
        ProcessTenantOps(*work[t].tenant, ops, *work[t].op_indices,
                         responses);
        return common::Status::OK();
      });
  BBV_CHECK(fanned_out.ok()) << fanned_out.ToString();

  EnforceResidencyCap();
  common::telemetry::IncrementCounter("serve.service.flushes");
  return responses;
}

ValidatorService::ScoreResponse ValidatorService::Score(
    const std::string& model_id, linalg::Matrix probabilities) {
  const uint64_t request_id = Submit(model_id, std::move(probabilities));
  const std::vector<ScoreResponse> responses = Flush();
  for (const ScoreResponse& response : responses) {
    if (response.request_id == request_id) return response;
  }
  // Another concurrent Flush drained our request; its responses are lost to
  // us by contract (see the header), so report the race explicitly.
  ScoreResponse response;
  response.request_id = request_id;
  response.model_id = model_id;
  response.status = common::Status::Internal(
      "request was flushed by a concurrent caller; use Submit/Flush to "
      "collect responses under concurrency");
  return response;
}

common::Result<core::ScoreEstimate> ValidatorService::EstimateScore(
    const std::string& model_id) {
  const common::MutexLock lock(mutex_);
  const auto it = tenants_.find(model_id);
  if (it == tenants_.end()) {
    return common::Status::NotFound("unknown tenant '" + model_id + "'");
  }
  BBV_RETURN_NOT_OK(EnsureResident(it->second));
  it->second.last_touch = ++touch_clock_;
  return it->second.scorer->EstimateScore();
}

common::Status ValidatorService::SaveTenantState(const std::string& model_id,
                                                 std::ostream& out) const {
  const common::MutexLock lock(mutex_);
  const auto it = tenants_.find(model_id);
  if (it == tenants_.end()) {
    return common::Status::NotFound("unknown tenant '" + model_id + "'");
  }
  if (it->second.scorer.has_value()) {
    return it->second.scorer->SaveState(out);
  }
  // Evicted: the cold store holds the bank's Save bytes.
  return common::WriteArchive(out, it->second.cold_state);
}

common::Result<ValidatorService::TenantInfo> ValidatorService::GetTenantInfo(
    const std::string& model_id) const {
  const common::MutexLock lock(mutex_);
  const auto it = tenants_.find(model_id);
  if (it == tenants_.end()) {
    return common::Status::NotFound("unknown tenant '" + model_id + "'");
  }
  const Tenant& tenant = it->second;
  TenantInfo info;
  info.epoch = tenant.epoch;
  info.resident = tenant.scorer.has_value();
  info.monitored = tenant.window.has_value();
  info.monitor_alarms = tenant.monitor_alarms;
  if (tenant.scorer.has_value()) {
    info.rows_ingested = tenant.scorer->rows_ingested();
  } else {
    // Parsing the cold bytes just for a row count is not worth it; an
    // evicted tenant reports the rows at eviction time instead.
    info.rows_ingested = tenant.cold_rows;
  }
  return info;
}

size_t ValidatorService::num_tenants() const {
  const common::MutexLock lock(mutex_);
  return tenants_.size();
}

size_t ValidatorService::num_resident() const {
  const common::MutexLock lock(mutex_);
  size_t resident = 0;
  for (const auto& [model_id, tenant] : tenants_) {
    if (tenant.scorer.has_value()) ++resident;
  }
  return resident;
}

size_t ValidatorService::num_pending() const {
  const common::MutexLock lock(mutex_);
  return pending_.size();
}

common::Status ValidatorService::EnsureResident(Tenant& tenant) {
  if (tenant.scorer.has_value()) return common::Status::OK();
  BBV_ASSIGN_OR_RETURN(
      StreamingScorer scorer,
      StreamingScorer::Create(tenant.predictor, tenant.options.scorer));
  common::BinaryReader reader(tenant.cold_state);
  BBV_ASSIGN_OR_RETURN(stats::QuantileSketchBank bank,
                       stats::QuantileSketchBank::Load(reader));
  BBV_RETURN_NOT_OK(scorer.RestoreState(std::move(bank)));
  tenant.scorer.emplace(std::move(scorer));
  tenant.cold_state.clear();
  tenant.cold_state.shrink_to_fit();
  common::telemetry::IncrementCounter("serve.service.rehydrations");
  return common::Status::OK();
}

void ValidatorService::EnforceResidencyCap() {
  if (options_.max_resident_tenants == 0) return;
  while (true) {
    size_t resident = 0;
    std::map<std::string, Tenant>::iterator coldest = tenants_.end();
    for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
      if (!it->second.scorer.has_value()) continue;
      ++resident;
      if (coldest == tenants_.end() ||
          it->second.last_touch < coldest->second.last_touch) {
        coldest = it;
      }
    }
    if (resident <= options_.max_resident_tenants ||
        coldest == tenants_.end()) {
      return;
    }
    Tenant& tenant = coldest->second;
    evict_writer_.Clear();
    const common::Status saved = tenant.scorer->bank().Save(evict_writer_);
    BBV_CHECK(saved.ok()) << saved.ToString();
    tenant.cold_rows = tenant.scorer->rows_ingested();
    tenant.cold_state = std::string(evict_writer_.bytes());
    tenant.scorer.reset();
    if (tenant.window.has_value()) {
      // Epoch-boundary contract: a window must not straddle an eviction
      // (rehydration restores sketch state, not the window).
      tenant.window->Clear();
    }
    common::telemetry::IncrementCounter("serve.service.evictions");
  }
}

}  // namespace bbv::serve
