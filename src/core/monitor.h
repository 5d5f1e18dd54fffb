#ifndef BBV_CORE_MONITOR_H_
#define BBV_CORE_MONITOR_H_

#include <deque>
#include <memory>
#include <string>

#include "common/result.h"
#include "core/performance_predictor.h"
#include "linalg/matrix.h"
#include "stats/quantile_sketch.h"

namespace bbv::core {

/// Serving-time monitor (the "end user or serving system inspects estimated
/// score" step from the paper's Figure 1): scores batches of precomputed
/// black-box probabilities with a trained performance predictor, alarms on
/// the estimate over a sliding window of the last Options::window_batches
/// batches, keeps a bounded history of reports, and renders an operations
/// summary plus a machine-readable JSON serving log.
///
/// The window is the same stats::QuantileSketchWindow the multi-tenant
/// service keeps per monitored tenant, so a standalone monitor and a
/// service tenant fed the same stream alarm bit for bit alike.
///
/// Hardening contract: the clean-test reference score must be finite and
/// strictly positive — a degenerate reference used to silently force
/// relative_drop to 0 so alarms could never fire. CreateForProba() is the
/// one factory and returns InvalidArgument for it.
class ModelMonitor {
 public:
  /// What the alarm thresholds on. The estimate is an interval now
  /// (core::ScoreEstimate), so "the score dropped" is a statement with an
  /// uncertainty attached:
  ///  * kCertifiedDrop (default) alarms when the *interval* has crossed
  ///    the drop threshold — even the optimistic endpoint (hi) shows a
  ///    relative drop >= alarm_threshold, i.e. the calibrated interval
  ///    certifies the drop at the estimate's coverage level. Estimation
  ///    noise inside the interval can no longer fire spurious alarms.
  ///  * kPointDrop alarms on the raw point estimate's drop (the
  ///    pre-interval behavior, and what both policies degrade to when the
  ///    predictor is uncalibrated).
  enum class AlarmPolicy {
    kCertifiedDrop,
    kPointDrop,
  };

  struct Options {
    /// Relative quality drop that raises an alarm (e.g. 0.05 = 5%). An
    /// alarm fires when the policy-selected drop >= alarm_threshold.
    double alarm_threshold = 0.05;
    /// Which drop the alarm thresholds on (see AlarmPolicy).
    AlarmPolicy alarm_policy = AlarmPolicy::kCertifiedDrop;
    /// Maximum batch reports retained (older entries are dropped).
    size_t history_limit = 1000;
    /// Batches the alarm window covers: the monitor keeps a running
    /// per-class quantile sketch of the last `window_batches` batches
    /// (stats::QuantileSketchWindow) and alarms on the estimate over it —
    /// recent traffic, not all-time aggregates — in O(num_classes *
    /// 2^sketch_resolution_bits + window * rows * num_classes) memory. The
    /// default 1 alarms on each batch's own sketch, whose percentile
    /// features lie within the grid's ValueErrorBound() of the exact ones.
    /// Must be positive.
    size_t window_batches = 1;
    /// Sketch resolution of the window (see stats::QuantileSketch::Options);
    /// must lie in [1, 24].
    int sketch_resolution_bits = 12;
  };

  /// Assessment of one serving batch.
  struct BatchReport {
    size_t batch_id = 0;
    size_t rows = 0;
    /// Exact predictor estimate of the score on this batch, with its
    /// conformal interval (degenerate when the predictor is uncalibrated).
    ScoreEstimate estimate;
    /// Clean-test reference score l_test.
    double reference_score = 0.0;
    /// (reference - estimate.point) / reference; positive = estimated drop.
    double relative_drop = 0.0;
    /// (reference - estimate.hi) / reference: the drop even the interval's
    /// optimistic endpoint concedes — what kCertifiedDrop alarms on.
    /// Equals relative_drop for degenerate estimates.
    double certified_drop = 0.0;
    /// Whether the windowed estimate's drop reaches the threshold.
    bool alarm = false;
    /// Wall-clock seconds spent scoring this batch (predictor featurization,
    /// forest inference and the window update; the black box runs before
    /// Observe). 0 when telemetry is disabled (BBV_TELEMETRY=off).
    double latency_seconds = 0.0;
    /// Telemetry snapshot at report time: process-wide count of predictor
    /// estimate calls, for cross-referencing this serving log against the
    /// telemetry JSON export. 0 when telemetry is disabled.
    uint64_t estimate_calls_total = 0;
    /// Alarms this monitor has raised up to and including this report.
    size_t alarms_total = 0;
    /// The estimate over the merged sketches of the last
    /// `window_batches_used` batches, and its drops — this is what drives
    /// the alarm.
    ScoreEstimate windowed_estimate;
    double windowed_relative_drop = 0.0;
    /// Certified drop of the windowed interval (see certified_drop).
    double windowed_certified_drop = 0.0;
    /// Batches merged into the windowed estimate (<= window_batches).
    size_t window_batches_used = 0;
    /// Rows covered by the windowed estimate.
    uint64_t window_rows = 0;
    /// Predictor epoch this batch was scored under: 0 for the predictor the
    /// monitor was created with, incremented by every SwapPredictor. A swap
    /// also clears the window, so all window_batches_used batches of a
    /// report belong to the same epoch.
    uint64_t epoch = 0;
  };

  /// The monitor's one alarm rule, shared by the per-batch and windowed
  /// estimates and the service's monitored tenants: the drops of `estimate`
  /// (as in BatchReport) and whether the policy's drop reaches the threshold.
  struct Assessment {
    double relative_drop = 0.0;
    double certified_drop = 0.0;
    bool alarm = false;
  };
  static Assessment Assess(const ScoreEstimate& estimate,
                           double reference_score, const Options& options);

  /// The predictor and options checks of CreateForProba (and of the
  /// service's monitored tenants).
  static common::Status ValidateOptions(const PerformancePredictor& predictor,
                                        const Options& options);

  /// The one factory. Rejects a null or untrained predictor, an alarm
  /// threshold outside (0, 1), a zero history limit or window, a sketch
  /// resolution outside [1, 24], and — the recoverable path for serving
  /// systems — a non-finite or non-positive reference score, with a Status
  /// instead of a crash. `name` labels the monitor in Summary() and
  /// ExportJson(); the predictor is shared, not copied, so thousands of
  /// tenants can monitor against one deployed forest.
  static common::Result<ModelMonitor> CreateForProba(
      std::string name,
      std::shared_ptr<const PerformancePredictor> predictor, Options options);

  /// The one observation surface: scores one batch of black-box class
  /// probabilities (the caller runs PredictProba), slides the window over
  /// it and appends the report to the history. Rejects empty batches,
  /// non-finite probabilities and non-finite estimates; a rejected batch
  /// pollutes neither the history nor the window. Callers must consume the
  /// report (or at minimum its Status; the status-discard lint flags
  /// drops).
  common::Result<BatchReport> Observe(const linalg::Matrix& probabilities);

  /// Deploys a retrained predictor (tenant hot-swap). This is an *epoch
  /// boundary*: the window is cleared, because its sketches were
  /// scored under the old predictor's reference — mixing them into a window
  /// estimated by the new predictor would alarm (or fail to alarm) against
  /// a reference the batches were never served under. The first report
  /// after a swap therefore has window_batches_used == 1 and carries the
  /// incremented epoch. Rejects a null/untrained predictor and a
  /// non-finite or non-positive reference score (the monitor keeps its old
  /// predictor on rejection).
  common::Status SwapPredictor(
      std::shared_ptr<const PerformancePredictor> predictor);

  /// Epoch boundaries crossed so far (== accepted SwapPredictor calls).
  uint64_t epoch() const { return epoch_; }

  const std::deque<BatchReport>& history() const { return history_; }
  size_t batches_observed() const { return batches_observed_; }
  size_t alarms_raised() const { return alarms_raised_; }
  /// Fraction of observed batches that alarmed; 0 before any observation.
  double AlarmRate() const;

  /// Multi-line human-readable summary: batches seen, alarm count and rate,
  /// the distribution of recent estimates, and per-batch latency
  /// percentiles from the retained history.
  std::string Summary() const;

  /// Machine-readable serving log: monitor configuration, aggregate alarm
  /// statistics, and one JSON object per retained batch report.
  std::string ExportJson() const;

  /// Drops the window without observing anything — the same epoch
  /// boundary SwapPredictor enforces, for callers that invalidate the
  /// window by other means (e.g. the tenant registry evicting a cold
  /// tenant and rehydrating it later).
  void ClearWindow() { window_.Clear(); }

 private:
  /// Requires options that pass ValidateOptions.
  ModelMonitor(std::string name,
               std::shared_ptr<const PerformancePredictor> predictor,
               Options options);

  /// Label for Summary()/ExportJson().
  std::string name_;
  std::shared_ptr<const PerformancePredictor> predictor_;
  Options options_;
  /// Retained reports, oldest first; a deque so the trim is O(1).
  std::deque<BatchReport> history_;
  /// The last options_.window_batches batches.
  stats::QuantileSketchWindow window_;
  size_t batches_observed_ = 0;
  size_t alarms_raised_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace bbv::core

#endif  // BBV_CORE_MONITOR_H_
