#ifndef BBV_ERRORS_DRIFT_SCENARIO_H_
#define BBV_ERRORS_DRIFT_SCENARIO_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "errors/error_gen.h"

namespace bbv::errors {

struct DriftScenarioOptions {
  /// Length of the serving stream in batches.
  size_t num_batches = 40;
  /// Rows per batch, sampled (with replacement) from the serving pool.
  size_t batch_size = 400;
  /// First batch index at which the stream drifts. Batches before the onset
  /// are always clean draws from the serving pool.
  size_t drift_onset = 20;
};

/// A named serving-stream drift scenario: a deterministic schedule mapping
/// batch index -> drift severity plus a batch sampler that materializes the
/// drifted batch. Extends errors::distribution_shift from single one-shot
/// resamples to the *temporal* regimes a deployed monitor actually faces
/// (paper §7 "detecting drift over time"; see also the monitoring loop in
/// core::ModelMonitor):
///
///   - no_drift        clean stream end to end (false-alarm measurement)
///   - sudden          step change: clean until the onset, then a fixed
///                     severity corruption on every later batch
///   - gradual_ramp    severity ramps linearly from 0 to max after the onset
///   - recurring       seasonal rotation: after the onset the stream cycles
///                     through mixture components, one per period
///   - feedback_loop   class-prior ramp via ResampleLabelShift — the
///                     selection-bias regime a model feeding its own
///                     training data creates
///
/// Determinism contract (PR-2 gate): MakeBatch consumes only the Rng the
/// caller passes, so a caller that pre-forks one stream per batch index gets
/// a byte-identical stream at any BBV_THREADS.
class DriftScenario {
 public:
  using SeveritySchedule = std::function<double(size_t batch_index)>;
  using BatchSampler = std::function<common::Result<data::Dataset>(
      size_t batch_index, double severity, common::Rng& rng)>;

  /// Prefer the factories below; the constructor is exposed for custom
  /// scenarios (benches composing their own schedules).
  DriftScenario(std::string name, DriftScenarioOptions options,
                SeveritySchedule severity, BatchSampler sampler);

  /// Materializes batch `batch_index` of the stream. Out-of-range indices
  /// return InvalidArgument.
  common::Result<data::Dataset> MakeBatch(size_t batch_index,
                                          common::Rng& rng) const;

  /// The scheduled severity for a batch (0 = clean draw). Exposed so tests
  /// can assert schedule shapes without materializing data.
  double SeverityAt(size_t batch_index) const;

  const std::string& name() const { return name_; }
  size_t num_batches() const { return options_.num_batches; }
  size_t batch_size() const { return options_.batch_size; }
  size_t drift_onset() const { return options_.drift_onset; }
  /// True when the stream stays clean (no batch should raise an alarm).
  bool ExpectsDrift() const;

  /// Clean stream: every batch is an undrifted draw from the serving pool.
  static DriftScenario NoDrift(std::shared_ptr<const data::Dataset> serving,
                               DriftScenarioOptions options = {});

  /// Step change at the onset: `corruption` blended into every batch at the
  /// fixed `severity` (fraction of rows corrupted) from the onset on.
  static DriftScenario Sudden(std::shared_ptr<const data::Dataset> serving,
                              std::shared_ptr<const ErrorGen> corruption,
                              double severity,
                              DriftScenarioOptions options = {});

  /// Severity ramps linearly from ~0 at the onset to `max_severity` at the
  /// final batch — the slow-degradation regime where early batches are
  /// near-indistinguishable from clean data.
  static DriftScenario GradualRamp(std::shared_ptr<const data::Dataset> serving,
                                   std::shared_ptr<const ErrorGen> corruption,
                                   double max_severity,
                                   DriftScenarioOptions options = {});

  /// Seasonal mixture rotation: after the onset the stream cycles through
  /// `components` (one per `period_batches`-long season) at the fixed
  /// severity, returning to the first component after the last — the
  /// recurring-drift regime where each season looks different.
  static DriftScenario Recurring(
      std::shared_ptr<const data::Dataset> serving,
      std::vector<std::shared_ptr<const ErrorGen>> components, double severity,
      size_t period_batches, DriftScenarioOptions options = {});

  /// Class-prior ramp (binary datasets): batches are label-shift resamples
  /// whose positive fraction moves linearly from the serving pool's own
  /// prior at the onset to `target_positive_fraction` at the final batch.
  /// Severity is reported as |current - base| prior distance.
  static DriftScenario FeedbackLoop(
      std::shared_ptr<const data::Dataset> serving,
      double target_positive_fraction, DriftScenarioOptions options = {});

 private:
  std::string name_;
  DriftScenarioOptions options_;
  SeveritySchedule severity_;
  BatchSampler sampler_;
};

/// The standard scenario library the drift bench replays: one scenario per
/// regime above, built over tabular corruption generators appropriate for
/// `serving`'s schema, in a fixed deterministic order.
std::vector<DriftScenario> StandardDriftScenarios(
    std::shared_ptr<const data::Dataset> serving,
    DriftScenarioOptions options = {});

}  // namespace bbv::errors

#endif  // BBV_ERRORS_DRIFT_SCENARIO_H_
