#ifndef BBV_SERVE_STREAMING_SCORER_H_
#define BBV_SERVE_STREAMING_SCORER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/serialize.h"
#include "core/performance_predictor.h"
#include "linalg/matrix.h"
#include "stats/quantile_sketch.h"

namespace bbv::serve {

/// Streaming counterpart of the paper's Algorithm 2 for heavy-traffic
/// serving: where PerformancePredictor::Estimate assumes the whole serving
/// batch is materialized before the percentile features are computed, this
/// scorer consumes an unbounded stream of prediction mini-batches and keeps
/// only O(num_classes * 2^resolution_bits) sketch state — no rows are
/// retained. At any point EstimateScore() reconstructs the percentile
/// feature vector from the per-class quantile sketches and runs the trained
/// regressor on it.
///
/// Determinism: the sketches are pure functions of the ingested multiset
/// (see stats::QuantileSketch), so the feature vector — and hence the
/// estimate and the serialized state — is byte-identical no matter how the
/// stream is split into mini-batches, in which order shard scorers are
/// merged via MergeFrom, or what BBV_THREADS is set to.
///
/// Accuracy: each percentile feature is within ValueErrorBound() (half a
/// grid cell, 2^-13 ~ 1.2e-4 at the default resolution) of the exact
/// batch-path feature, so streamed estimates track batch estimates to
/// within the regressor's sensitivity to that perturbation.
class StreamingScorer {
 public:
  struct Options {
    /// Per-class sketch resolution (see QuantileSketch::Options); class
    /// probabilities are sketched over [0, 1].
    int resolution_bits = 12;
  };

  /// Validating factory: requires a trained predictor and a resolution in
  /// [1, 24].
  static common::Result<StreamingScorer> Create(
      core::PerformancePredictor predictor, Options options);
  static common::Result<StreamingScorer> Create(
      core::PerformancePredictor predictor) {
    return Create(std::move(predictor), Options{});
  }
  /// Shared-ownership variant for the multi-tenant service, where one
  /// retrained predictor is deployed to many tenants without copying the
  /// forest per tenant. Rejects a null or untrained predictor.
  static common::Result<StreamingScorer> Create(
      std::shared_ptr<const core::PerformancePredictor> predictor,
      Options options);

  /// Folds one mini-batch of predicted class probabilities into the
  /// per-class sketches. Rejects empty batches, batches whose class count
  /// disagrees with earlier batches or with the predictor's trained feature
  /// dimension, and non-finite probabilities. Rows are not retained. When
  /// `cells` is non-null it receives the batch's grid cells from the same
  /// pass (what a stats::QuantileSketchWindow on this grid takes).
  common::Status Ingest(const linalg::Matrix& probabilities,
                        stats::CellBatch* cells = nullptr);

  /// Percentile feature vector over everything ingested so far, evaluated
  /// at the predictor's percentile grid. Requires at least one ingested row.
  common::Result<std::vector<double>> PercentileFeatures() const;

  /// Estimated score of the black box over the ingested stream (Algorithm 2
  /// on the sketch summary instead of the materialized batch), with its
  /// conformal interval (degenerate when the predictor is uncalibrated).
  common::Result<core::ScoreEstimate> EstimateScore() const;

  /// Merges another scorer's sketch state into this one (shard fan-in).
  /// Both scorers must use the same grid, and the other scorer's class
  /// count must be compatible with this scorer's predictor.
  common::Status MergeFrom(const StreamingScorer& other);

  /// Replaces the predictor behind the scorer (tenant hot-swap after a
  /// retrain). The ingested sketch state is kept: the sketches summarize
  /// raw class probabilities, so any predictor expecting the same class
  /// count can score them. Rejects a null or untrained predictor and one
  /// whose class count disagrees with the already-sketched columns.
  common::Status SwapPredictor(
      std::shared_ptr<const core::PerformancePredictor> predictor);

  /// Classes the predictor's feature vector implies
  /// (feature_dimension / |percentile grid|).
  size_t expected_classes() const;

  uint64_t rows_ingested() const { return bank_.rows_observed(); }
  size_t batches_ingested() const { return batches_ingested_; }
  /// Classes seen so far; 0 until the first batch.
  size_t num_classes() const { return bank_.num_columns(); }
  /// Resident bytes of the sketch state (the serving-memory story: constant
  /// in the number of ingested rows).
  size_t MemoryBytes() const { return bank_.MemoryBytes(); }
  /// Max distance between a streamed percentile feature and its exact
  /// batch-path counterpart.
  double ValueErrorBound() const;

  const stats::QuantileSketchBank& bank() const { return bank_; }
  const core::PerformancePredictor& predictor() const { return *predictor_; }
  /// Shared handle to the predictor (tenant registries deduplicate the
  /// forest across scorers through this).
  const std::shared_ptr<const core::PerformancePredictor>& shared_predictor()
      const {
    return predictor_;
  }

  /// Canonical serialization of the sketch state (not the predictor):
  /// byte-identical for equal ingested multisets regardless of batch split,
  /// merge order or thread count. The transient batches_ingested() counter
  /// is deliberately not part of the format — it depends on how the stream
  /// was split, which canonical bytes must not.
  common::Status SaveState(std::ostream& out) const;

  /// Restores exactly what SaveState wrote (LRU tenant rehydration).
  /// Replaces the current sketch state; rejects state on a different grid
  /// than Options::resolution_bits over [0, 1], and state whose class count
  /// disagrees with the predictor's trained feature dimension. A
  /// SaveState -> LoadState -> SaveState round-trip is byte-identical.
  common::Status LoadState(std::istream& in);
  /// Replaces the sketch state with `bank`, under LoadState's checks.
  common::Status RestoreState(stats::QuantileSketchBank bank);

 private:
  StreamingScorer(std::shared_ptr<const core::PerformancePredictor> predictor,
                  Options options);
  /// Archive core of the stream LoadState.
  common::Status LoadState(common::BinaryReader& reader);

  std::shared_ptr<const core::PerformancePredictor> predictor_;
  Options options_;
  stats::QuantileSketchBank bank_;
  size_t batches_ingested_ = 0;
};

}  // namespace bbv::serve

#endif  // BBV_SERVE_STREAMING_SCORER_H_
