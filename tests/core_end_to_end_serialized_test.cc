// Deployment-path integration test: train everything offline, serialize the
// black box model AND the performance predictor, reload both in a fresh
// scope (as a serving sidecar would), and verify that the reloaded pair
// produces the same monitoring decisions as the originals on corrupted
// serving batches.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "core/monitor.h"
#include "core/performance_predictor.h"
#include "datasets/tabular.h"
#include "errors/mixture.h"
#include "errors/missing_values.h"
#include "errors/numeric_errors.h"
#include "ml/black_box.h"
#include "ml/gradient_boosted_trees.h"

namespace bbv {
namespace {

TEST(EndToEndSerializedTest, ReloadedArtifactsReproduceDecisions) {
  common::Rng rng(77);
  data::Dataset dataset = datasets::MakeHeart(3000, rng);
  dataset = data::BalanceClasses(dataset, rng);
  auto [source, serving] = data::TrainTestSplit(dataset, 0.7, rng);
  auto [train, test] = data::TrainTestSplit(source, 0.7, rng);

  // ---- offline: train + persist both artifacts ----
  std::stringstream model_artifact;
  std::stringstream predictor_artifact;
  {
    ml::BlackBoxModel model(std::make_unique<ml::GradientBoostedTrees>());
    ASSERT_TRUE(model.Train(train, rng).ok());
    core::PerformancePredictor::Options options;
    options.corruptions_per_generator = 30;
    options.tree_count_grid = {30};
    core::PerformancePredictor predictor(options);
    const errors::ErrorMixture mixture(
        {std::make_shared<errors::MissingValues>(),
         std::make_shared<errors::NumericOutliers>(),
         std::make_shared<errors::Scaling>()});
    std::vector<const errors::ErrorGen*> generators = {&mixture};
    ASSERT_TRUE(predictor.Train(model, test, generators, rng).ok());
    ASSERT_TRUE(model.Save(model_artifact).ok());
    ASSERT_TRUE(predictor.Save(predictor_artifact).ok());
  }

  // ---- serving side: reload and monitor ----
  auto model = ml::BlackBoxModel::Load(model_artifact);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  auto predictor = core::PerformancePredictor::Load(predictor_artifact);
  ASSERT_TRUE(predictor.ok()) << predictor.status().ToString();

  auto monitor = core::ModelMonitor::CreateForProba(
      (*model)->Name(),
      std::make_shared<const core::PerformancePredictor>(
          std::move(*predictor)),
      {});
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  const auto observe = [&](const data::DataFrame& batch) {
    const auto probabilities = (*model)->PredictProba(batch);
    BBV_CHECK(probabilities.ok()) << probabilities.status().ToString();
    return monitor->Observe(*probabilities);
  };
  const errors::Scaling incident({}, errors::FractionRange{0.9, 1.0},
                                 {1000.0});
  // Clean batch accepted; severe incident alarmed.
  const auto clean_report = observe(serving.features);
  ASSERT_TRUE(clean_report.ok());
  EXPECT_FALSE(clean_report->alarm);
  int alarms = 0;
  for (int i = 0; i < 3; ++i) {
    const auto corrupted = incident.Corrupt(serving.features, rng);
    ASSERT_TRUE(corrupted.ok());
    const auto report = observe(*corrupted);
    ASSERT_TRUE(report.ok());
    if (report->alarm) ++alarms;
  }
  EXPECT_GE(alarms, 2);
  EXPECT_EQ(monitor->batches_observed(), 4u);
}

}  // namespace
}  // namespace bbv
