#include "core/performance_predictor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/prediction_statistics.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"
#include "stats/descriptive.h"

namespace bbv::core {

double ComputeScore(ScoreMetric metric, const linalg::Matrix& probabilities,
                    const std::vector<int>& labels) {
  switch (metric) {
    case ScoreMetric::kAccuracy:
      return ml::AccuracyFromProba(probabilities, labels);
    case ScoreMetric::kRocAuc:
      return ml::RocAucFromProba(probabilities, labels);
  }
  BBV_CHECK(false) << "unreachable";
  return 0.0;
}

double ComputeScore(ScoreMetric metric, const linalg::Matrix& probabilities,
                    const std::vector<size_t>& rows,
                    const std::vector<int>& labels) {
  switch (metric) {
    case ScoreMetric::kAccuracy:
      return ml::AccuracyFromProba(probabilities, rows, labels);
    case ScoreMetric::kRocAuc:
      return ml::RocAucFromProba(probabilities, rows, labels);
  }
  BBV_CHECK(false) << "unreachable";
  return 0.0;
}

namespace {

bool SameShapeAndSchema(const data::DataFrame& a, const data::DataFrame& b) {
  if (a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols()) return false;
  for (size_t c = 0; c < a.NumCols(); ++c) {
    if (a.column(c).name() != b.column(c).name() ||
        a.column(c).type() != b.column(c).type()) {
      return false;
    }
  }
  return true;
}

}  // namespace

common::Result<linalg::Matrix> PredictCorruptedCopy(
    const ml::BlackBox& model, const data::DataFrame& clean,
    const linalg::Matrix& clean_probabilities, data::DataFrame corrupted,
    const std::vector<size_t>& rows_read) {
  if (!SameShapeAndSchema(corrupted, clean) ||
      clean_probabilities.rows() != clean.NumRows()) {
    common::telemetry::IncrementCounter("predictor.black_box_rows",
                                        corrupted.NumRows());
    return model.PredictProba(corrupted);
  }
  for (size_t row : rows_read) {
    if (row >= clean.NumRows()) {
      return common::Status::InvalidArgument(
          "read row " + std::to_string(row) + " is outside the " +
          std::to_string(clean.NumRows()) + "-row test set");
    }
  }
  // Column-major diff over the read rows only: a row is changed as soon as
  // one of its cells differs bit for bit.
  std::vector<uint8_t> changed(clean.NumRows(), 0);
  for (size_t c = 0; c < clean.NumCols(); ++c) {
    const std::vector<data::CellValue>& before = clean.column(c).cells();
    const std::vector<data::CellValue>& after = corrupted.column(c).cells();
    for (size_t row : rows_read) {
      if (changed[row] == 0 && !after[row].BitwiseEquals(before[row])) {
        changed[row] = 1;
      }
    }
  }
  std::vector<size_t> changed_rows;
  for (size_t row = 0; row < changed.size(); ++row) {
    if (changed[row] != 0) changed_rows.push_back(row);
  }
  common::telemetry::IncrementCounter("predictor.black_box_rows",
                                      changed_rows.size());
  common::telemetry::IncrementCounter("predictor.black_box_rows_reused",
                                      rows_read.size() - changed_rows.size());
  linalg::Matrix probabilities = clean_probabilities;
  if (changed_rows.empty()) return probabilities;
  corrupted.KeepRows(changed_rows);
  BBV_ASSIGN_OR_RETURN(const linalg::Matrix predicted,
                       model.PredictProba(corrupted));
  if (predicted.rows() != changed_rows.size() ||
      predicted.cols() != probabilities.cols()) {
    return common::Status::InvalidArgument(
        "black box returned " + std::to_string(predicted.rows()) + " x " +
        std::to_string(predicted.cols()) + " probabilities for " +
        std::to_string(changed_rows.size()) + " rows of a " +
        std::to_string(probabilities.cols()) + "-class model");
  }
  for (size_t i = 0; i < changed_rows.size(); ++i) {
    std::copy(predicted.RowData(i), predicted.RowData(i) + predicted.cols(),
              probabilities.RowData(changed_rows[i]));
  }
  return probabilities;
}

PerformancePredictor::PerformancePredictor(Options options)
    : options_(std::move(options)) {
  if (options_.percentile_points.empty()) {
    options_.percentile_points = DefaultPercentilePoints();
  }
}

namespace {

/// Folds of the tree-count grid search and of the conformal residual pass.
constexpr int kCvFolds = 5;
constexpr int kCalibrationFolds = 5;

/// Options of every forest the predictor fits: grid-search candidates,
/// the final regressor and the calibration fold refits.
ml::RandomForestRegressor::Options ForestOptions(int num_trees) {
  ml::RandomForestRegressor::Options options;
  options.num_trees = num_trees;
  return options;
}

}  // namespace

common::Result<MetaExamples> CollectMetaExamples(
    const ml::BlackBox& model, const data::Dataset& test,
    const std::vector<const errors::ErrorGen*>& generators,
    const std::vector<size_t>& row_pool,
    const PerformancePredictor::Options& options, bool keep_batches,
    common::Rng& rng) {
  if (test.NumRows() == 0) {
    return common::Status::InvalidArgument("empty test dataset");
  }
  if (generators.empty()) {
    return common::Status::InvalidArgument(
        "need at least one error generator");
  }
  if (options.clean_copies < 0 || options.corruptions_per_generator < 0) {
    return common::Status::InvalidArgument(
        "clean_copies and corruptions_per_generator must not be negative");
  }
  std::vector<size_t> pool = row_pool;
  if (pool.empty()) {
    pool.resize(test.NumRows());
    std::iota(pool.begin(), pool.end(), size_t{0});
  }
  if (*std::max_element(pool.begin(), pool.end()) >= test.NumRows()) {
    return common::Status::InvalidArgument("row pool outside the test set");
  }

  // Score on the clean test data (line 2 of Algorithm 1).
  MetaExamples examples;
  BBV_ASSIGN_OR_RETURN(examples.clean_probabilities,
                       model.PredictProba(test.features));
  common::telemetry::IncrementCounter("predictor.black_box_rows",
                                      test.NumRows());
  examples.test_score =
      ComputeScore(options.metric, examples.clean_probabilities, test.labels);

  const std::vector<double> grid = options.percentile_points.empty()
                                        ? DefaultPercentilePoints()
                                        : options.percentile_points;
  // Lines 3-12. Every corrupt -> predict -> score pass is independent, so
  // the collection fans out over the shared thread pool: one pre-forked Rng
  // per task keeps M (and hence every trained byte) identical at every
  // thread count.
  const bool subsample =
      options.meta_batch_size > 0 && options.meta_batch_size < pool.size();
  std::vector<const errors::ErrorGen*> task_generators(
      static_cast<size_t>(options.clean_copies), nullptr);
  for (const errors::ErrorGen* generator : generators) {
    BBV_CHECK(generator != nullptr);
    task_generators.insert(
        task_generators.end(),
        static_cast<size_t>(options.corruptions_per_generator), generator);
  }
  common::telemetry::IncrementCounter("predictor.meta_examples",
                                      task_generators.size());
  std::vector<common::Rng> task_rngs = rng.ForkStreams(task_generators.size());
  examples.statistics.resize(task_generators.size());
  examples.scores.resize(task_generators.size());
  if (keep_batches) examples.batches.resize(task_generators.size());
  BBV_RETURN_NOT_OK(common::ParallelFor(
      task_generators.size(), [&](size_t task) -> common::Status {
        common::Rng& task_rng = task_rngs[task];
        const errors::ErrorGen* generator = task_generators[task];
        data::DataFrame corrupted;
        if (generator != nullptr) {
          BBV_ASSIGN_OR_RETURN(corrupted,
                               generator->Corrupt(test.features, task_rng));
          if (corrupted.NumRows() != test.NumRows()) {
            return common::Status::InvalidArgument(
                "error generator " + generator->Name() + " returned " +
                std::to_string(corrupted.NumRows()) + " rows for a " +
                std::to_string(test.NumRows()) +
                "-row test set; corruptions must keep the row count");
          }
        }
        // The subsample is drawn right after Corrupt, before the model runs;
        // PredictProba draws nothing.
        std::vector<size_t> sampled_rows;
        if (subsample) {
          for (size_t pick : task_rng.SampleWithoutReplacement(
                   pool.size(), options.meta_batch_size)) {
            sampled_rows.push_back(pool[pick]);
          }
        }
        const std::vector<size_t>& rows = subsample ? sampled_rows : pool;
        const linalg::Matrix* probabilities = &examples.clean_probabilities;
        linalg::Matrix corrupted_probabilities;
        if (generator != nullptr) {
          BBV_ASSIGN_OR_RETURN(
              corrupted_probabilities,
              PredictCorruptedCopy(model, test.features,
                                   examples.clean_probabilities,
                                   std::move(corrupted), rows));
          probabilities = &corrupted_probabilities;
        }
        examples.statistics[task] =
            PredictionStatistics(*probabilities, rows, grid);
        examples.scores[task] =
            ComputeScore(options.metric, *probabilities, rows, test.labels);
        if (keep_batches) {
          examples.batches[task] = probabilities->SelectRows(rows);
        }
        return common::Status::OK();
      }));
  return examples;
}

common::Status PerformancePredictor::Train(
    const ml::BlackBox& model, const data::Dataset& test,
    const std::vector<const errors::ErrorGen*>& generators,
    common::Rng& rng) {
  const common::telemetry::TraceSpan span("predictor.train");
  common::telemetry::IncrementCounter("predictor.train.calls");
  BBV_ASSIGN_OR_RETURN(
      const MetaExamples examples,
      CollectMetaExamples(model, test, generators, /*row_pool=*/{}, options_,
                          /*keep_batches=*/false, rng));
  return TrainFromStatistics(examples.statistics, examples.scores,
                             examples.test_score, rng);
}

common::Status PerformancePredictor::TrainFromStatistics(
    const std::vector<std::vector<double>>& statistics,
    const std::vector<double>& scores, double test_score, common::Rng& rng) {
  if (statistics.size() != scores.size()) {
    return common::Status::InvalidArgument(
        "statistics and scores disagree on the number of examples");
  }
  if (statistics.empty()) {
    return common::Status::InvalidArgument("no meta-training examples");
  }
  if (options_.tree_count_grid.empty()) {
    return common::Status::InvalidArgument("empty tree_count_grid");
  }
  test_score_ = test_score;
  const linalg::Matrix features = linalg::Matrix::FromRows(statistics);
  num_training_examples_ = scores.size();
  feature_dimension_ = features.cols();

  // Grid search over the number of trees with k-fold CV on MAE (line 13;
  // paper §4 trains a RandomForestRegressor with five-fold CV).
  int best_trees = options_.tree_count_grid.front();
  double best_mae = -1.0;
  if (options_.tree_count_grid.size() > 1 &&
      scores.size() >= static_cast<size_t>(kCvFolds)) {
    for (int tree_count : options_.tree_count_grid) {
      BBV_ASSIGN_OR_RETURN(
          double mae,
          ml::CrossValRegressionMae(
              [tree_count] {
                return ml::RandomForestRegressor(ForestOptions(tree_count));
              },
              features, scores, kCvFolds, rng));
      if (best_mae < 0.0 || mae < best_mae) {
        best_mae = mae;
        best_trees = tree_count;
      }
    }
  }
  selected_tree_count_ = best_trees;

  regressor_ = ml::RandomForestRegressor(ForestOptions(best_trees));
  BBV_RETURN_NOT_OK(regressor_.Fit(features, scores, rng));
  // The conformal pass runs strictly AFTER the final fit and on its own
  // internal Rng: it neither perturbs the Rng draws the forest consumed nor
  // advances the caller's stream, so the regressor, every `.point`
  // downstream (including the committed adversarial-search probe fixtures),
  // and every later draw from `rng` are byte-identical whether calibration
  // is on or off.
  calibrator_ = ConformalCalibrator();
  if (options_.conformal_calibration &&
      scores.size() >= static_cast<size_t>(kCalibrationFolds)) {
    BBV_RETURN_NOT_OK(CalibrateConformal(features, scores));
  }
  trained_ = true;
  return common::Status::OK();
}

common::Status PerformancePredictor::CalibrateConformal(
    const linalg::Matrix& features, const std::vector<double>& scores) {
  const common::telemetry::TraceSpan span("predictor.calibrate");
  // Fixed-seed internal stream, deliberately NOT the training Rng: drawing
  // the fold permutation from the caller's stream would shift every Rng
  // consumer downstream of Train, breaking seed-pinned fixtures and replays
  // that predate calibration. The fold split only needs to be deterministic,
  // which a constant seed plus the example count provides.
  common::Rng rng(0xC0'4F'0B'A1ull + scores.size());
  std::vector<std::vector<double>> fold_predictions(
      static_cast<size_t>(kCalibrationFolds));
  BBV_ASSIGN_OR_RETURN(
      const std::vector<ml::Fold> folds,
      ml::ForEachFold(
          scores.size(), kCalibrationFolds, rng,
          [&](size_t f, const ml::Fold& fold, common::Rng& fold_rng) {
            std::vector<double> train_y;
            train_y.reserve(fold.train_rows.size());
            for (size_t row : fold.train_rows) train_y.push_back(scores[row]);
            ml::RandomForestRegressor fold_model(
                ForestOptions(selected_tree_count_));
            BBV_RETURN_NOT_OK(fold_model.Fit(
                features.SelectRows(fold.train_rows), train_y, fold_rng));
            fold_predictions[f].resize(fold.test_rows.size());
            fold_model.PredictInto(features.SelectRows(fold.test_rows),
                                   fold_predictions[f]);
            return common::Status::OK();
          }));
  // Serial assembly in fold-major order; the calibrator canonicalizes by
  // sorting, so assembly order never reaches the stored state anyway.
  // Difficulty scales come from the FINAL forest, not the fold models: the
  // normalized-conformal guarantee needs one fixed sigma(x) shared between
  // calibration and serving, and fold forests (fit on a 1 - 1/folds
  // fraction) have systematically wider tree spreads, which would deflate
  // every calibration score and undercover at serving time. Residuals stay
  // honest (out-of-fold) regardless.
  const bool scaled =
      options_.conformal_mode == ConformalCalibrator::Mode::kQuantileForest;
  std::vector<double> truths;
  std::vector<double> predictions;
  std::vector<double> spreads;
  truths.reserve(scores.size());
  predictions.reserve(scores.size());
  if (scaled) spreads.reserve(scores.size());
  for (size_t f = 0; f < folds.size(); ++f) {
    for (size_t i = 0; i < folds[f].test_rows.size(); ++i) {
      const size_t row = folds[f].test_rows[i];
      truths.push_back(scores[row]);
      predictions.push_back(fold_predictions[f][i]);
      if (scaled) spreads.push_back(TreeValueSpread(features.RowData(row)));
    }
  }
  BBV_ASSIGN_OR_RETURN(
      calibrator_,
      ConformalCalibrator::Calibrate(options_.conformal_mode, truths,
                                     predictions, spreads));
  common::telemetry::IncrementCounter("predictor.calibration_examples",
                                      truths.size());
  return common::Status::OK();
}

double PerformancePredictor::TreeValueSpread(const double* row) const {
  const ml::ForestKernel& kernel = regressor_.kernel();
  std::vector<double> tree_values(kernel.num_trees());
  kernel.PredictRowValuesInto(row, tree_values);
  const stats::SortedView view(std::move(tree_values));
  return view.Percentile(75.0) - view.Percentile(25.0);
}

ScoreEstimate PerformancePredictor::IntervalFor(
    double point, const double* row, double coverage_level) const {
  if (!calibrator_.calibrated()) return ScoreEstimate::Degenerate(point);
  const bool scaled =
      calibrator_.mode() == ConformalCalibrator::Mode::kQuantileForest;
  const double spread = scaled ? TreeValueSpread(row) : 0.0;
  return calibrator_.Interval(point, spread, coverage_level);
}

namespace {
constexpr char kPredictorMagic[] = "BBVPP";
// Version 2 added the trained feature dimension, which guards
// EstimateScoreFromStatistics against mis-sized feature vectors. Version 3
// carries the conformal calibration state (coverage level, mode, sorted
// residual quantiles) so a deployed predictor serves the same intervals it
// was trained with.
constexpr uint32_t kPredictorVersion = 3;
}  // namespace

common::Status PerformancePredictor::Save(common::BinaryWriter& writer) const {
  if (!trained_) {
    return common::Status::FailedPrecondition("Save before Train");
  }
  writer.WriteMagic(kPredictorMagic, kPredictorVersion);
  writer.WriteInt32(static_cast<int32_t>(options_.metric));
  writer.WriteDouble(test_score_);
  writer.WriteDoubleVector(options_.percentile_points);
  writer.WriteInt32(static_cast<int32_t>(selected_tree_count_));
  writer.WriteUint64(num_training_examples_);
  writer.WriteUint64(feature_dimension_);
  writer.WriteDouble(options_.coverage_level);
  // Canonical calibration state: sorted residuals, so equal calibration
  // multisets — e.g. the same train at different BBV_THREADS — serialize
  // byte-identically.
  calibrator_.Save(writer);
  // Chain the forest's archive core onto the open writer; the bytes are
  // identical to the pre-redesign nested stream Save.
  return regressor_.Save(writer);
}

common::Status PerformancePredictor::Save(std::ostream& out) const {
  return common::SaveToStream(
      out, [&](common::BinaryWriter& writer) { return Save(writer); });
}

common::Result<PerformancePredictor> PerformancePredictor::Load(
    std::istream& in) {
  return common::LoadFromStream(
      in, [](common::BinaryReader& reader) { return Load(reader); });
}

common::Result<PerformancePredictor> PerformancePredictor::Load(
    common::BinaryReader& reader) {
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kPredictorMagic, kPredictorVersion));
  BBV_ASSIGN_OR_RETURN(int32_t metric, reader.ReadInt32());
  if (metric < 0 || metric > static_cast<int32_t>(ScoreMetric::kRocAuc)) {
    return common::Status::InvalidArgument("corrupt score metric");
  }
  Options options;
  options.metric = static_cast<ScoreMetric>(metric);
  PerformancePredictor predictor(options);
  BBV_ASSIGN_OR_RETURN(predictor.test_score_, reader.ReadDouble());
  BBV_ASSIGN_OR_RETURN(predictor.options_.percentile_points,
                       reader.ReadDoubleVector());
  if (predictor.options_.percentile_points.empty()) {
    return common::Status::InvalidArgument("corrupt percentile grid");
  }
  // The quantile machinery BBV_CHECKs that the grid is sorted and within
  // [0, 100]; a predictor file is untrusted input, so reject a bad grid here
  // instead of aborting at the first serving-time estimate.
  for (size_t i = 0; i < predictor.options_.percentile_points.size(); ++i) {
    const double point = predictor.options_.percentile_points[i];
    if (!std::isfinite(point) || point < 0.0 || point > 100.0 ||
        (i > 0 && point <= predictor.options_.percentile_points[i - 1])) {
      return common::Status::InvalidArgument("corrupt percentile grid");
    }
  }
  BBV_ASSIGN_OR_RETURN(int32_t tree_count, reader.ReadInt32());
  predictor.selected_tree_count_ = tree_count;
  BBV_ASSIGN_OR_RETURN(uint64_t examples, reader.ReadUint64());
  predictor.num_training_examples_ = examples;
  BBV_ASSIGN_OR_RETURN(uint64_t feature_dimension, reader.ReadUint64());
  // The feature vector is num_classes * |grid| by construction; anything
  // else is corrupt and would wedge every class-count check downstream.
  if (feature_dimension == 0 ||
      feature_dimension % predictor.options_.percentile_points.size() != 0) {
    return common::Status::InvalidArgument("corrupt feature dimension");
  }
  predictor.feature_dimension_ = feature_dimension;
  BBV_ASSIGN_OR_RETURN(double coverage_level, reader.ReadDouble());
  if (!(coverage_level > 0.0 && coverage_level < 1.0)) {
    return common::Status::InvalidArgument("corrupt coverage level");
  }
  predictor.options_.coverage_level = coverage_level;
  BBV_ASSIGN_OR_RETURN(predictor.calibrator_,
                       ConformalCalibrator::Load(reader));
  predictor.options_.conformal_mode = predictor.calibrator_.mode();
  BBV_ASSIGN_OR_RETURN(predictor.regressor_,
                       ml::RandomForestRegressor::Load(reader));
  // Every split must read inside the feature rows the estimate surfaces
  // accept; a forest reading past them is corrupt, not servable.
  const int32_t max_feature = predictor.regressor_.kernel().max_feature();
  if (max_feature >= 0 &&
      static_cast<uint64_t>(max_feature) >= feature_dimension) {
    return common::Status::InvalidArgument(
        "forest splits on a feature beyond the stored feature dimension");
  }
  predictor.trained_ = true;
  return predictor;
}

common::Result<ScoreEstimate> PerformancePredictor::EstimateScore(
    const ml::BlackBox& model, const data::DataFrame& serving) const {
  BBV_ASSIGN_OR_RETURN(linalg::Matrix probabilities,
                       model.PredictProba(serving));
  return EstimateScoreFromProba(probabilities);
}

common::Result<PerformancePredictor::EstimationErrorProbe>
PerformancePredictor::ProbeEstimationError(
    const ml::BlackBox& model, const data::DataFrame& serving,
    const std::vector<int>& labels) const {
  const common::telemetry::TraceSpan span("predictor.probe_error");
  if (labels.size() != serving.NumRows()) {
    return common::Status::InvalidArgument(
        "probe labels size " + std::to_string(labels.size()) +
        " != serving rows " + std::to_string(serving.NumRows()));
  }
  BBV_ASSIGN_OR_RETURN(linalg::Matrix probabilities,
                       model.PredictProba(serving));
  EstimationErrorProbe probe;
  BBV_ASSIGN_OR_RETURN(probe.estimate, EstimateScoreFromProba(probabilities));
  probe.estimated_score = probe.estimate.point;
  probe.actual_score = ComputeScore(options_.metric, probabilities, labels);
  probe.abs_error = std::fabs(probe.estimated_score - probe.actual_score);
  return probe;
}

common::Result<ScoreEstimate> PerformancePredictor::EstimateScoreFromProba(
    const linalg::Matrix& probabilities) const {
  return EstimateScoreFromProba(probabilities, options_.coverage_level);
}

common::Result<ScoreEstimate> PerformancePredictor::EstimateScoreFromProba(
    const linalg::Matrix& probabilities, double coverage_level) const {
  // Featurizing asserts the rows are class probabilities; an untrained
  // predictor reports its state before it judges the input.
  if (!trained_) {
    return common::Status::FailedPrecondition("EstimateScore before Train");
  }
  BBV_RETURN_NOT_OK(CheckFiniteProbabilities(probabilities));
  return EstimateScoreFromStatistics(
      PredictionStatistics(probabilities, options_.percentile_points),
      coverage_level);
}

common::Result<ScoreEstimate>
PerformancePredictor::EstimateScoreFromStatistics(
    std::span<const double> statistics) const {
  return EstimateScoreFromStatistics(statistics, options_.coverage_level);
}

common::Result<ScoreEstimate>
PerformancePredictor::EstimateScoreFromStatistics(
    std::span<const double> statistics, double coverage_level) const {
  const linalg::Matrix row(
      1, statistics.size(),
      std::vector<double>(statistics.begin(), statistics.end()));
  ScoreEstimate estimate;
  BBV_RETURN_NOT_OK(EstimateRows(row, coverage_level,
                                 std::span<ScoreEstimate>(&estimate, 1)));
  return estimate;
}

common::Status PerformancePredictor::EstimateScoresFromStatistics(
    const linalg::Matrix& statistics, std::span<ScoreEstimate> out) const {
  return EstimateRows(statistics, options_.coverage_level, out);
}

common::Status PerformancePredictor::EstimateRows(
    const linalg::Matrix& statistics, double coverage_level,
    std::span<ScoreEstimate> out) const {
  const common::telemetry::TraceSpan span("predictor.estimate");
  if (!trained_) {
    return common::Status::FailedPrecondition("EstimateScore before Train");
  }
  if (statistics.cols() != feature_dimension_) {
    // The regressor indexes features by position; a mis-sized row would
    // read out of bounds, so reject it before inference.
    const size_t grid = options_.percentile_points.size();
    return common::Status::InvalidArgument(
        "feature rows have " + std::to_string(statistics.cols()) +
        " columns but the predictor was trained on " +
        std::to_string(feature_dimension_) + " (" +
        std::to_string(feature_dimension_ / grid) + " classes x " +
        std::to_string(grid) + " percentiles)");
  }
  if (out.size() != statistics.rows()) {
    return common::Status::InvalidArgument(
        "output span holds " + std::to_string(out.size()) +
        " slots for " + std::to_string(statistics.rows()) + " feature rows");
  }
  if (statistics.rows() == 0) return common::Status::OK();
  common::telemetry::IncrementCounter("predictor.estimate.calls",
                                      statistics.rows());
  common::telemetry::IncrementCounter("predictor.estimate.batches");
  // Points through one kernel batch call, then the interval per row — a
  // pure function of the point and, in quantile-forest mode, the row's
  // per-tree spread — so an estimate never depends on which rows share its
  // batch.
  std::vector<double> points(statistics.rows());
  regressor_.PredictInto(statistics, points);
  for (size_t i = 0; i < statistics.rows(); ++i) {
    out[i] = IntervalFor(points[i], statistics.RowData(i), coverage_level);
  }
  return common::Status::OK();
}

}  // namespace bbv::core
