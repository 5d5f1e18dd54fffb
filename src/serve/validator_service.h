#ifndef BBV_SERVE_VALIDATOR_SERVICE_H_
#define BBV_SERVE_VALIDATOR_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/serialize.h"
#include "common/thread_annotations.h"
#include "core/monitor.h"
#include "core/performance_predictor.h"
#include "core/score_estimate.h"
#include "linalg/matrix.h"
#include "serve/streaming_scorer.h"
#include "stats/quantile_sketch.h"

namespace bbv::serve {

/// Multi-tenant front door for the paper's validator: one process hosts
/// thousands of (model id -> predictor, sketch bank, monitor window)
/// tenants instead of the single triple the standalone StreamingScorer
/// supports. The service owns a registry keyed by model id and adds the
/// three things a fleet needs on top of the per-tenant machinery:
///
///  * Cross-tenant request batching. Scoring requests are enqueued with
///    Submit() and drained by Flush(), which groups the pending queue by
///    tenant and scores every request of a tenant segment through ONE
///    ForestKernel batch call (PerformancePredictor::
///    EstimateScoresFromStatistics) instead of one scalar tree walk per
///    request. Distinct tenants fan out over the shared thread pool.
///    Because the kernel's exact batch path accumulates trees in the same
///    order as the scalar walk, every estimate is bit-identical to running
///    that tenant's stream through a standalone StreamingScorer — at any
///    BBV_THREADS setting (each task touches only its own tenant and its
///    own response slots).
///
///  * Epoch-based predictor hot-swap. SubmitSwap() enqueues a retrained
///    predictor like any other request; Flush() applies it at exactly its
///    queue position, so requests submitted before the swap are still
///    scored by the old predictor (in-flight batches are never dropped or
///    rescored). Each accepted swap increments the tenant's epoch, clears
///    the monitor window (see ModelMonitor::SwapPredictor for why a window
///    must not straddle predictors), and stamps subsequent responses with
///    the new epoch.
///
///  * One sketch pass per monitored request. A monitored tenant keeps a
///    running stats::QuantileSketchWindow over its last window_batches
///    requests. Ingest maps each probability to its grid cell once; the
///    cells feed both the cumulative bank and the window, and the
///    request's windowed feature row joins its cumulative row in the
///    segment's one kernel call. The alarm comes from
///    core::ModelMonitor::Assess, so windowed responses are bit-identical
///    to a standalone ModelMonitor::CreateForProba fed the same stream.
///
///  * LRU eviction of cold tenants. With Options::max_resident_tenants set,
///    the least recently used tenants' sketch banks are saved
///    (QuantileSketchBank::Save, about one byte a cell) into an in-memory
///    cold store, one exact-size buffer per tenant, and the scorer is
///    destroyed; the next request for the tenant rehydrates it from that
///    buffer in place. The round-trip restores the bank's exact cells, so
///    eviction is invisible to scoring results, and SaveTenantState of an
///    evicted tenant writes the stored bytes as they are. The monitor window
///    is dropped on eviction (the same epoch-boundary contract as a
///    hot-swap).
///
/// Error contract: a malformed request (unknown tenant, class-count
/// mismatch, non-finite probabilities, corrupt state) fails only its own
/// ScoreResponse with a common::Status — it never aborts the process and
/// never pollutes the tenant's sketch state.
///
/// Threading: all public methods are safe to call concurrently; one mutex
/// guards the registry and the pending queue. Flush() holds it while
/// processing (drained work fans out over ParallelFor worker tasks that
/// each own disjoint tenants), so concurrent Flush() calls serialize.
class ValidatorService {
 public:
  struct TenantOptions {
    /// Sketch resolution etc. for the tenant's StreamingScorer.
    StreamingScorer::Options scorer;
    /// When positive, the tenant is monitored like a windowed
    /// core::ModelMonitor over the last `window_batches` mini-batches and
    /// every response carries the windowed alarm fields. 0 disables
    /// monitoring for the tenant.
    size_t window_batches = 0;
    /// Relative windowed drop that raises an alarm (see ModelMonitor).
    double alarm_threshold = 0.05;
    /// Whether the alarm requires the whole conformal interval to certify
    /// the drop or just the point estimate (see core::AlarmPolicy).
    core::ModelMonitor::AlarmPolicy alarm_policy =
        core::ModelMonitor::AlarmPolicy::kCertifiedDrop;
    /// Sketch resolution of the monitor's window. The window reuses the
    /// grid cells the scorer maps each request to, so a monitored tenant
    /// must set this equal to scorer.resolution_bits (CreateTenant rejects
    /// a mismatch with InvalidArgument).
    int monitor_resolution_bits = 12;
    /// Validated like core::ModelMonitor::Options::history_limit. The
    /// service keeps no per-batch reports; responses carry the windowed
    /// fields instead.
    size_t history_limit = 1000;
  };

  struct Options {
    /// Tenants allowed to keep their sketch banks resident; the least
    /// recently used beyond this are serialized to the in-memory cold
    /// store. 0 means never evict.
    size_t max_resident_tenants = 0;
  };

  /// Outcome of one submitted operation, returned by Flush() in submission
  /// order. When `status` is non-OK every other field except request_id /
  /// model_id / is_swap is meaningless.
  struct ScoreResponse {
    uint64_t request_id = 0;
    std::string model_id;
    common::Status status;
    /// True when this response answers a SubmitSwap instead of a Submit.
    bool is_swap = false;
    /// Streaming estimate over everything the tenant has ingested,
    /// including this request's batch — point plus conformal interval.
    /// Bit-identical (all four fields) to a standalone StreamingScorer fed
    /// the same stream.
    core::ScoreEstimate estimate;
    /// Tenant rows ingested up to and including this request.
    uint64_t rows_ingested = 0;
    /// Tenant predictor epoch the request was scored under.
    uint64_t epoch = 0;
    /// Windowed monitor fields; meaningful only when the tenant was
    /// created with window_batches > 0 (monitored == true). Bit-identical
    /// to the BatchReport of a standalone ModelMonitor::CreateForProba fed
    /// the same stream, swaps and evictions (as ClearWindow calls).
    bool monitored = false;
    bool alarm = false;
    core::ScoreEstimate windowed_estimate;
    double windowed_relative_drop = 0.0;
    double windowed_certified_drop = 0.0;
  };

  /// Registry/liveness facts about one tenant (introspection; does not
  /// count as a use for LRU purposes).
  struct TenantInfo {
    uint64_t rows_ingested = 0;
    uint64_t epoch = 0;
    bool resident = false;
    bool monitored = false;
    uint64_t monitor_alarms = 0;
  };

  explicit ValidatorService(Options options) : options_(options) {}
  ValidatorService() : ValidatorService(Options{}) {}

  /// Registers a tenant. The predictor is shared, not copied — deploy one
  /// retrained forest to any number of tenants. Rejects a duplicate or
  /// empty model id, a null/untrained predictor, and invalid options.
  common::Status CreateTenant(
      const std::string& model_id,
      std::shared_ptr<const core::PerformancePredictor> predictor,
      const TenantOptions& options);
  common::Status CreateTenant(
      const std::string& model_id,
      std::shared_ptr<const core::PerformancePredictor> predictor) {
    return CreateTenant(model_id, std::move(predictor), TenantOptions{});
  }

  /// Unregisters a tenant and drops its state. Pending requests for it
  /// fail with NotFound at the next Flush.
  common::Status RemoveTenant(const std::string& model_id);

  /// Enqueues one mini-batch of predicted class probabilities for scoring;
  /// returns the request id its Flush() response will carry.
  uint64_t Submit(const std::string& model_id, linalg::Matrix probabilities);

  /// Enqueues a predictor hot-swap behind all previously submitted
  /// requests; applied at its queue position during Flush().
  uint64_t SubmitSwap(
      const std::string& model_id,
      std::shared_ptr<const core::PerformancePredictor> predictor);

  /// Drains the pending queue: rehydrates evicted tenants that have work,
  /// scores each tenant's requests through coalesced kernel batches,
  /// applies swaps at their queue positions, updates LRU stamps, and
  /// enforces the residency cap. Returns one response per drained
  /// operation, in submission order.
  std::vector<ScoreResponse> Flush();

  /// Synchronous convenience: Submit + Flush, returning this request's
  /// response. Any other operations pending at the time are flushed too
  /// (their responses are delivered to nobody), so callers mixing Score
  /// with manual Submit on other threads should use Submit/Flush
  /// themselves.
  ScoreResponse Score(const std::string& model_id,
                      linalg::Matrix probabilities);

  /// Current streaming estimate of a tenant (rehydrates it if evicted and
  /// counts as a use for LRU purposes). Requires ingested rows.
  common::Result<core::ScoreEstimate> EstimateScore(
      const std::string& model_id);

  /// Serializes the tenant's canonical sketch state: byte-identical to the
  /// standalone StreamingScorer::SaveState of the same stream, whether the
  /// tenant is resident or evicted. Read-only (no LRU touch).
  common::Status SaveTenantState(const std::string& model_id,
                                 std::ostream& out) const;

  common::Result<TenantInfo> GetTenantInfo(const std::string& model_id) const;

  size_t num_tenants() const;
  /// Tenants whose sketch banks are currently in memory.
  size_t num_resident() const;
  size_t num_pending() const;

 private:
  struct Tenant {
    std::shared_ptr<const core::PerformancePredictor> predictor;
    TenantOptions options;
    /// Resident scorer; nullopt while evicted.
    std::optional<StreamingScorer> scorer;
    /// The bank's Save bytes while evicted, with no capacity beyond their
    /// size; empty while resident.
    std::string cold_state;
    /// rows_ingested() at eviction time, so GetTenantInfo need not parse
    /// the cold bytes.
    uint64_t cold_rows = 0;
    /// The last options.window_batches requests; nullopt when unmonitored.
    std::optional<stats::QuantileSketchWindow> window;
    /// Windowed alarms raised so far.
    uint64_t monitor_alarms = 0;
    uint64_t epoch = 0;
    /// LRU clock stamp of the last use.
    uint64_t last_touch = 0;
  };

  struct PendingOp {
    uint64_t request_id = 0;
    std::string model_id;
    bool is_swap = false;
    /// Scoring payload (is_swap == false).
    linalg::Matrix probabilities;
    /// Replacement predictor (is_swap == true).
    std::shared_ptr<const core::PerformancePredictor> predictor;
  };

  /// Ensures the tenant's scorer is resident, rehydrating from the cold
  /// store if needed.
  common::Status EnsureResident(Tenant& tenant) BBV_REQUIRES(mutex_);
  /// Saves + drops scorers of least-recently-used tenants until the
  /// residency cap holds.
  void EnforceResidencyCap() BBV_REQUIRES(mutex_);
  /// Scores `ops` (all for `tenant`, in submission order) into `responses`;
  /// contiguous scoring runs share one kernel batch call, which also scores
  /// the windowed rows of a monitored tenant.
  static void ProcessTenantOps(Tenant& tenant,
                               const std::vector<PendingOp>& ops,
                               const std::vector<size_t>& op_indices,
                               std::vector<ScoreResponse>& responses);
  /// Applies one hot-swap to scorer + window + tenant epoch.
  static common::Status ApplySwap(
      Tenant& tenant,
      std::shared_ptr<const core::PerformancePredictor> predictor);

  Options options_;
  mutable common::Mutex mutex_;
  /// std::map, not unordered: eviction scans and flush fan-out iterate the
  /// registry, and every iteration order in this repo must be
  /// deterministic (lint det-iter rule).
  std::map<std::string, Tenant> tenants_ BBV_GUARDED_BY(mutex_);
  std::vector<PendingOp> pending_ BBV_GUARDED_BY(mutex_);
  uint64_t next_request_id_ BBV_GUARDED_BY(mutex_) = 0;
  uint64_t touch_clock_ BBV_GUARDED_BY(mutex_) = 0;
  /// Archive each eviction saves into; it keeps its capacity between
  /// evictions, and the cold store copies out exactly the bytes written.
  common::BinaryWriter evict_writer_ BBV_GUARDED_BY(mutex_);
};

}  // namespace bbv::serve

#endif  // BBV_SERVE_VALIDATOR_SERVICE_H_
