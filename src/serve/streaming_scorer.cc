#include "serve/streaming_scorer.h"

#include <memory>
#include <string>
#include <utility>

#include "common/telemetry.h"

namespace bbv::serve {

common::Result<StreamingScorer> StreamingScorer::Create(
    core::PerformancePredictor predictor, Options options) {
  return Create(std::make_shared<const core::PerformancePredictor>(
                    std::move(predictor)),
                options);
}

common::Result<StreamingScorer> StreamingScorer::Create(
    std::shared_ptr<const core::PerformancePredictor> predictor,
    Options options) {
  if (predictor == nullptr || !predictor->trained()) {
    return common::Status::FailedPrecondition(
        "StreamingScorer needs a trained performance predictor");
  }
  if (options.resolution_bits < 1 || options.resolution_bits > 24) {
    return common::Status::InvalidArgument(
        "resolution_bits must lie in [1, 24], got " +
        std::to_string(options.resolution_bits));
  }
  return StreamingScorer(std::move(predictor), options);
}

StreamingScorer::StreamingScorer(
    std::shared_ptr<const core::PerformancePredictor> predictor,
    Options options)
    : predictor_(std::move(predictor)), options_(options) {
  stats::QuantileSketch::Options sketch_options;
  sketch_options.resolution_bits = options_.resolution_bits;
  sketch_options.lo = 0.0;
  sketch_options.hi = 1.0;
  bank_ = stats::QuantileSketchBank(0, sketch_options);
}

common::Status StreamingScorer::Ingest(const linalg::Matrix& probabilities,
                                       stats::CellBatch* cells) {
  const common::telemetry::TraceSpan span("serve.ingest");
  if (probabilities.rows() == 0) {
    return common::Status::InvalidArgument("empty serving mini-batch");
  }
  if (probabilities.cols() != expected_classes()) {
    return common::Status::InvalidArgument(
        "mini-batch has " + std::to_string(probabilities.cols()) +
        " classes but the predictor was trained on " +
        std::to_string(expected_classes()));
  }
  // The shape was checked above, so a batch the bank rejects holds a NaN
  // or +-inf value; the bank rejects it before any count moves.
  const common::Status observed = bank_.Observe(probabilities, cells);
  if (!observed.ok()) {
    common::telemetry::IncrementCounter("serve.nonfinite_batches");
    return observed;
  }
  ++batches_ingested_;
  common::telemetry::IncrementCounter("serve.batches");
  common::telemetry::IncrementCounter("serve.rows", probabilities.rows());
  return common::Status::OK();
}

common::Result<std::vector<double>> StreamingScorer::PercentileFeatures()
    const {
  if (bank_.rows_observed() == 0) {
    return common::Status::FailedPrecondition(
        "PercentileFeatures before any ingested rows");
  }
  return bank_.PercentileFeatures(predictor_->percentile_points());
}

common::Result<core::ScoreEstimate> StreamingScorer::EstimateScore() const {
  const common::telemetry::TraceSpan span("serve.estimate");
  BBV_ASSIGN_OR_RETURN(std::vector<double> features, PercentileFeatures());
  common::telemetry::IncrementCounter("serve.estimates");
  return predictor_->EstimateScoreFromStatistics(features);
}

common::Status StreamingScorer::MergeFrom(const StreamingScorer& other) {
  if (options_.resolution_bits != other.options_.resolution_bits) {
    return common::Status::InvalidArgument(
        "MergeFrom across different sketch resolutions");
  }
  // Bank::Merge only compares column counts when both banks are non-empty;
  // merging a foreign shard into a fresh scorer would otherwise adopt a
  // class count this scorer's predictor cannot score, and every later
  // EstimateScore would fail. Reject the incompatible shard instead.
  if (other.num_classes() != 0 && other.num_classes() != expected_classes()) {
    return common::Status::InvalidArgument(
        "merge source sketches " + std::to_string(other.num_classes()) +
        " classes but this scorer's predictor was trained on " +
        std::to_string(expected_classes()));
  }
  BBV_RETURN_NOT_OK(bank_.Merge(other.bank_));
  batches_ingested_ += other.batches_ingested_;
  common::telemetry::IncrementCounter("serve.merges");
  return common::Status::OK();
}

common::Status StreamingScorer::SwapPredictor(
    std::shared_ptr<const core::PerformancePredictor> predictor) {
  if (predictor == nullptr || !predictor->trained()) {
    return common::Status::FailedPrecondition(
        "SwapPredictor needs a trained performance predictor");
  }
  const size_t swapped_classes = predictor->feature_dimension() /
                                 predictor->percentile_points().size();
  if (num_classes() != 0 && swapped_classes != num_classes()) {
    return common::Status::InvalidArgument(
        "swapped predictor expects " + std::to_string(swapped_classes) +
        " classes but the scorer has sketched " +
        std::to_string(num_classes()));
  }
  predictor_ = std::move(predictor);
  common::telemetry::IncrementCounter("serve.predictor_swaps");
  return common::Status::OK();
}

size_t StreamingScorer::expected_classes() const {
  return predictor_->feature_dimension() /
         predictor_->percentile_points().size();
}

double StreamingScorer::ValueErrorBound() const {
  stats::QuantileSketch::Options sketch_options;
  sketch_options.resolution_bits = options_.resolution_bits;
  return stats::QuantileSketch(sketch_options).ValueErrorBound();
}

common::Status StreamingScorer::SaveState(std::ostream& out) const {
  return bank_.Save(out);
}

common::Status StreamingScorer::LoadState(std::istream& in) {
  return common::LoadFromStream(
      in, [this](common::BinaryReader& reader) { return LoadState(reader); });
}

common::Status StreamingScorer::LoadState(common::BinaryReader& reader) {
  BBV_ASSIGN_OR_RETURN(stats::QuantileSketchBank bank,
                       stats::QuantileSketchBank::Load(reader));
  return RestoreState(std::move(bank));
}

common::Status StreamingScorer::RestoreState(stats::QuantileSketchBank bank) {
  // The state must be queryable on this scorer's grid: a bank sketched at a
  // different resolution or domain answers quantile queries on a different
  // lattice, silently breaking the byte-identity contract with the scorer
  // that saved it.
  if (bank.options().resolution_bits != options_.resolution_bits ||
      bank.options().lo != 0.0 || bank.options().hi != 1.0) {
    return common::Status::InvalidArgument(
        "saved state uses a different sketch grid than this scorer");
  }
  // Feature-dimension guard: state sketched for a different class count can
  // never produce the feature vector this predictor was trained on.
  if (bank.num_columns() != 0 && bank.num_columns() != expected_classes()) {
    return common::Status::InvalidArgument(
        "saved state sketches " + std::to_string(bank.num_columns()) +
        " classes but the predictor was trained on " +
        std::to_string(expected_classes()));
  }
  bank_ = std::move(bank);
  common::telemetry::IncrementCounter("serve.state_loads");
  return common::Status::OK();
}

}  // namespace bbv::serve
