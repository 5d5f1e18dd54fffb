#include "core/monitor.h"

#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "common/telemetry.h"
#include "stats/descriptive.h"

namespace bbv::core {

namespace {

stats::QuantileSketch::Options WindowGrid(int resolution_bits) {
  stats::QuantileSketch::Options grid;
  grid.resolution_bits = resolution_bits;
  return grid;
}

}  // namespace

ModelMonitor::Assessment ModelMonitor::Assess(const ScoreEstimate& estimate,
                                              double reference_score,
                                              const Options& options) {
  Assessment assessment;
  assessment.relative_drop =
      (reference_score - estimate.point) / reference_score;
  assessment.certified_drop =
      (reference_score - estimate.hi) / reference_score;
  const double alarm_drop =
      options.alarm_policy == AlarmPolicy::kCertifiedDrop
          ? assessment.certified_drop
          : assessment.relative_drop;
  assessment.alarm = alarm_drop >= options.alarm_threshold;
  return assessment;
}

common::Status ModelMonitor::ValidateOptions(
    const PerformancePredictor& predictor, const Options& options) {
  if (!predictor.trained()) {
    return common::Status::FailedPrecondition(
        "ModelMonitor needs a trained predictor");
  }
  if (!(options.alarm_threshold > 0.0 && options.alarm_threshold < 1.0)) {
    return common::Status::InvalidArgument(
        "alarm_threshold must lie in (0, 1)");
  }
  if (options.history_limit == 0) {
    return common::Status::InvalidArgument("history_limit must be positive");
  }
  if (options.window_batches == 0) {
    return common::Status::InvalidArgument(
        "window_batches must be positive");
  }
  if (options.sketch_resolution_bits < 1 ||
      options.sketch_resolution_bits > 24) {
    return common::Status::InvalidArgument(
        "sketch_resolution_bits must lie in [1, 24]");
  }
  // A non-positive reference used to silently clamp relative_drop to 0,
  // so alarms could never fire against it; reject it up front instead.
  const double reference = predictor.test_score();
  if (!std::isfinite(reference) || reference <= 0.0) {
    return common::Status::InvalidArgument(
        "reference score must be finite and strictly positive, got " +
        std::to_string(reference));
  }
  return common::Status::OK();
}

common::Result<ModelMonitor> ModelMonitor::CreateForProba(
    std::string name, std::shared_ptr<const PerformancePredictor> predictor,
    Options options) {
  if (predictor == nullptr) {
    return common::Status::InvalidArgument(
        "CreateForProba needs a predictor");
  }
  BBV_RETURN_NOT_OK(ValidateOptions(*predictor, options));
  return ModelMonitor(std::move(name), std::move(predictor), options);
}

ModelMonitor::ModelMonitor(
    std::string name, std::shared_ptr<const PerformancePredictor> predictor,
    Options options)
    : name_(std::move(name)),
      predictor_(std::move(predictor)),
      options_(options),
      window_(options_.window_batches,
              WindowGrid(options_.sketch_resolution_bits)) {}

common::Result<ModelMonitor::BatchReport> ModelMonitor::Observe(
    const linalg::Matrix& probabilities) {
  const common::telemetry::TraceSpan span("monitor.observe_from_proba");
  if (probabilities.rows() == 0) {
    return common::Status::InvalidArgument("empty serving batch");
  }
  BBV_ASSIGN_OR_RETURN(ScoreEstimate estimate,
                       predictor_->EstimateScoreFromProba(probabilities));
  if (!std::isfinite(estimate.point)) {
    // Never let NaN/Inf flow into reports, history or alarm decisions.
    common::telemetry::IncrementCounter("monitor.nonfinite_estimates");
    return common::Status::Internal(
        "performance predictor produced a non-finite estimate");
  }
  BatchReport report;
  report.rows = probabilities.rows();
  report.estimate = estimate;
  report.reference_score = predictor_->test_score();
  // The factory guarantees a finite, strictly positive reference.
  const Assessment batch = Assess(estimate, report.reference_score, options_);
  report.relative_drop = batch.relative_drop;
  report.certified_drop = batch.certified_drop;
  // Slide the window over this batch and alarm on the estimate over it. A
  // batch whose windowed estimate fails is undone, so it never pollutes the
  // window.
  BBV_ASSIGN_OR_RETURN(
      stats::CellBatch cells,
      stats::CellBatch::Of(probabilities, window_.bank().options()));
  BBV_ASSIGN_OR_RETURN(stats::CellBatch evicted,
                       window_.Push(std::move(cells)));
  const common::Result<ScoreEstimate> window_estimate =
      predictor_->EstimateScoreFromStatistics(
          window_.bank().PercentileFeatures(predictor_->percentile_points()));
  if (!window_estimate.ok() || !std::isfinite(window_estimate->point)) {
    window_.Undo(std::move(evicted));
    if (!window_estimate.ok()) return window_estimate.status();
    common::telemetry::IncrementCounter("monitor.nonfinite_estimates");
    return common::Status::Internal(
        "performance predictor produced a non-finite windowed estimate");
  }
  const Assessment window_drops =
      Assess(*window_estimate, report.reference_score, options_);
  report.windowed_estimate = *window_estimate;
  report.windowed_relative_drop = window_drops.relative_drop;
  report.windowed_certified_drop = window_drops.certified_drop;
  report.window_batches_used = window_.batches();
  report.window_rows = window_.bank().rows_observed();
  report.alarm = window_drops.alarm;
  report.batch_id = batches_observed_++;
  if (report.alarm) {
    ++alarms_raised_;
    common::telemetry::IncrementCounter("monitor.alarms");
  }
  common::telemetry::IncrementCounter("monitor.batches");
  common::telemetry::IncrementCounter("monitor.rows", probabilities.rows());
  report.alarms_total = alarms_raised_;
  report.epoch = epoch_;
  report.estimate_calls_total =
      common::telemetry::ReadCounter("predictor.estimate.calls");
  report.latency_seconds = span.ElapsedSeconds();
  history_.push_back(report);
  while (history_.size() > options_.history_limit) history_.pop_front();
  return report;
}

common::Status ModelMonitor::SwapPredictor(
    std::shared_ptr<const PerformancePredictor> predictor) {
  if (predictor == nullptr) {
    return common::Status::FailedPrecondition(
        "SwapPredictor needs a trained performance predictor");
  }
  BBV_RETURN_NOT_OK(ValidateOptions(*predictor, options_));
  // Epoch boundary: the retained window sketches were served under the old
  // predictor's reference score; scoring them with the new predictor would
  // alarm against a reference they never ran under. Drop them so the first
  // post-swap report windows over exactly the batches of the new epoch.
  ClearWindow();
  predictor_ = std::move(predictor);
  ++epoch_;
  common::telemetry::IncrementCounter("monitor.predictor_swaps");
  return common::Status::OK();
}

double ModelMonitor::AlarmRate() const {
  return batches_observed_ == 0
             ? 0.0
             : static_cast<double>(alarms_raised_) /
                   static_cast<double>(batches_observed_);
}

std::string ModelMonitor::Summary() const {
  std::ostringstream os;
  os << "ModelMonitor(" << name_ << "): " << batches_observed_
     << " batches observed, " << alarms_raised_ << " alarms (rate "
     << AlarmRate() << ")\n";
  os << "reference score: " << predictor_->test_score() << " (alarm at >= "
     << options_.alarm_threshold << " "
     << (options_.alarm_policy == AlarmPolicy::kCertifiedDrop
             ? "certified drop — the interval must cross"
             : "point-estimate drop")
     << ")\n";
  os << "sliding window: last " << options_.window_batches
     << " batches, sketched at 2^" << options_.sketch_resolution_bits
     << " cells per class";
  if (!history_.empty()) {
    const BatchReport& last = history_.back();
    os << "; current windowed estimate " << last.windowed_estimate.point
       << " [" << last.windowed_estimate.lo << ", "
       << last.windowed_estimate.hi << "] (" << last.window_batches_used
       << " batches, " << last.window_rows << " rows)";
  }
  os << "\n";
  if (!history_.empty()) {
    std::vector<double> estimates;
    std::vector<double> widths;
    std::vector<double> latencies;
    estimates.reserve(history_.size());
    widths.reserve(history_.size());
    latencies.reserve(history_.size());
    for (const BatchReport& report : history_) {
      estimates.push_back(report.estimate.point);
      widths.push_back(report.estimate.width());
      latencies.push_back(report.latency_seconds);
    }
    // One sort per metric family, arbitrarily many quantiles after.
    const stats::SortedView estimate_view(std::move(estimates));
    os << "recent estimates (" << history_.size()
       << " batches): p5=" << estimate_view.Percentile(5.0)
       << " median=" << estimate_view.Median()
       << " p95=" << estimate_view.Percentile(95.0) << "\n";
    const stats::SortedView width_view(std::move(widths));
    os << "interval width (coverage "
       << history_.back().estimate.coverage_level
       << "): p50=" << width_view.Median()
       << " p95=" << width_view.Percentile(95.0) << "\n";
    const stats::SortedView latency_view(std::move(latencies));
    os << "batch latency: p50=" << latency_view.Median() * 1e3
       << "ms p95=" << latency_view.Percentile(95.0) * 1e3
       << "ms max=" << latency_view.Max() * 1e3 << "ms\n";
  }
  return os.str();
}

std::string ModelMonitor::ExportJson() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\n";
  os << "  \"monitor\": {\n";
  os << "    \"model\": \"" << name_ << "\",\n";
  os << "    \"reference_score\": " << predictor_->test_score() << ",\n";
  os << "    \"alarm_threshold\": " << options_.alarm_threshold << ",\n";
  os << "    \"alarm_policy\": \""
     << (options_.alarm_policy == AlarmPolicy::kCertifiedDrop
             ? "certified_drop"
             : "point_drop")
     << "\",\n";
  os << "    \"coverage_level\": " << predictor_->coverage_level() << ",\n";
  os << "    \"history_limit\": " << options_.history_limit << ",\n";
  os << "    \"window_batches\": " << options_.window_batches << ",\n";
  os << "    \"predictor_epoch\": " << epoch_ << ",\n";
  os << "    \"batches_observed\": " << batches_observed_ << ",\n";
  os << "    \"alarms_raised\": " << alarms_raised_ << ",\n";
  os << "    \"alarm_rate\": " << AlarmRate() << ",\n";
  os << "    \"history\": [\n";
  for (size_t i = 0; i < history_.size(); ++i) {
    const BatchReport& report = history_[i];
    os << "      {\"batch_id\": " << report.batch_id
       << ", \"rows\": " << report.rows
       << ", \"estimated_score\": " << report.estimate.point
       << ", \"estimate_lo\": " << report.estimate.lo
       << ", \"estimate_hi\": " << report.estimate.hi
       << ", \"estimate_width\": " << report.estimate.width()
       << ", \"coverage_level\": " << report.estimate.coverage_level
       << ", \"relative_drop\": " << report.relative_drop
       << ", \"certified_drop\": " << report.certified_drop
       << ", \"alarm\": " << (report.alarm ? "true" : "false")
       << ", \"latency_seconds\": " << report.latency_seconds
       << ", \"estimate_calls_total\": " << report.estimate_calls_total
       << ", \"alarms_total\": " << report.alarms_total
       << ", \"epoch\": " << report.epoch
       << ", \"windowed_estimate\": " << report.windowed_estimate.point
       << ", \"windowed_lo\": " << report.windowed_estimate.lo
       << ", \"windowed_hi\": " << report.windowed_estimate.hi
       << ", \"windowed_relative_drop\": " << report.windowed_relative_drop
       << ", \"windowed_certified_drop\": " << report.windowed_certified_drop
       << ", \"window_batches_used\": " << report.window_batches_used
       << ", \"window_rows\": " << report.window_rows << "}"
       << (i + 1 < history_.size() ? "," : "") << "\n";
  }
  os << "    ]\n";
  os << "  }\n";
  os << "}\n";
  return os.str();
}

}  // namespace bbv::core
