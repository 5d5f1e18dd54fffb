// Golden bytes of Algorithm 1's meta-training collection
// (CollectMetaExamples) and of the k-fold fits behind both trainers
// (ml::ForEachFold). The black box is queried only for the rows a
// corruption changed, and the clean outputs are reused for the rest; that
// must not move a single trained byte. These FNV-1a hashes of the saved
// models must hold at BBV_THREADS 1 and 4:
//  - PerformancePredictor over full corrupted copies;
//  - PerformancePredictor with meta_batch_size (the subsample is drawn from
//    the task stream, so the draw order is pinned too);
//  - PerformancePredictor with a two-point tree-count grid (the CV search),
//    with quantile-forest calibration (the final forest's tree spreads) and
//    with ROC AUC scoring;
//  - PerformanceValidator over the example half, with meta_batch_size and
//    with ROC AUC scoring.
// The generators are the four known ones plus SignFlip, whose 0.0 -> -0.0
// cells are equal under CellValue::operator== but not bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/performance_predictor.h"
#include "core/performance_validator.h"
#include "data/dataset.h"
#include "datasets/tabular.h"
#include "errors/missing_values.h"
#include "errors/numeric_errors.h"
#include "errors/swapped_columns.h"
#include "ml/black_box.h"
#include "ml/gradient_boosted_trees.h"

namespace bbv::core {
namespace {

/// Sets BBV_THREADS for one scope and restores the previous value after.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* previous = std::getenv("BBV_THREADS");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
    ::setenv("BBV_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (had_previous_) {
      ::setenv("BBV_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("BBV_THREADS");
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  bool had_previous_ = false;
  std::string previous_;
};

struct Fixture {
  data::Dataset test;
  std::unique_ptr<ml::BlackBoxModel> model;
  errors::MissingValues missing;
  errors::NumericOutliers outliers;
  errors::SwappedColumns swapped;
  errors::Scaling scaling;
  errors::SignFlip sign_flip;

  std::vector<const errors::ErrorGen*> Generators() const {
    return {&missing, &outliers, &swapped, &scaling, &sign_flip};
  }
};

/// Income with an xgb-style black box, as in the paper's train path.
std::unique_ptr<Fixture> MakeFixture() {
  auto fixture = std::make_unique<Fixture>();
  common::Rng rng(2718);
  data::Dataset dataset = datasets::MakeIncome(900, rng);
  dataset = data::BalanceClasses(dataset, rng);
  auto [train, test] = data::TrainTestSplit(dataset, 0.6, rng);
  fixture->test = std::move(test);
  ml::GradientBoostedTrees::Options gbt;
  gbt.num_rounds = 15;
  fixture->model = std::make_unique<ml::BlackBoxModel>(
      std::make_unique<ml::GradientBoostedTrees>(gbt));
  BBV_CHECK(fixture->model->Train(train, rng).ok());
  return fixture;
}

const Fixture& SharedFixture() {
  static const std::unique_ptr<Fixture> fixture = MakeFixture();
  return *fixture;
}

PerformancePredictor::Options SmallPredictorOptions(size_t meta_batch_size) {
  PerformancePredictor::Options options;
  options.corruptions_per_generator = 6;
  options.clean_copies = 2;
  options.tree_count_grid = {12};
  options.meta_batch_size = meta_batch_size;
  return options;
}

uint64_t PredictorHash(const Fixture& fixture,
                       const PerformancePredictor::Options& options) {
  PerformancePredictor predictor(options);
  common::Rng rng(31);
  const common::Status trained = predictor.Train(
      *fixture.model, fixture.test, fixture.Generators(), rng);
  EXPECT_TRUE(trained.ok()) << trained.ToString();
  std::ostringstream out;
  EXPECT_TRUE(predictor.Save(out).ok());
  return common::Fnv1aHash(out.str());
}

uint64_t ValidatorHash(const Fixture& fixture, size_t meta_batch_size,
                       ScoreMetric metric = ScoreMetric::kAccuracy) {
  PerformanceValidator::Options options;
  options.corruptions_per_generator = 6;
  options.clean_copies = 2;
  options.predictor_tree_count_grid = {12};
  options.gbdt.num_rounds = 10;
  options.meta_batch_size = meta_batch_size;
  options.metric = metric;
  PerformanceValidator validator(options);
  common::Rng rng(37);
  const common::Status trained = validator.Train(
      *fixture.model, fixture.test, fixture.Generators(), rng);
  EXPECT_TRUE(trained.ok()) << trained.ToString();
  std::ostringstream out;
  EXPECT_TRUE(validator.Save(out).ok());
  return common::Fnv1aHash(out.str());
}

// Pinned from the collector that ran PredictProba on every full corrupted
// copy of the test set.
constexpr uint64_t kPredictorFullHash = 8491394933230790350ULL;
constexpr uint64_t kPredictorSubsampleHash = 12683308065069518279ULL;
constexpr uint64_t kValidatorHash = 5580347351599688590ULL;
constexpr uint64_t kValidatorSubsampleHash = 7968921086147070380ULL;
// Pinned from the two hand-kept collectors that preceded
// CollectMetaExamples and from the inline fold loops that preceded
// ml::ForEachFold: the CV grid search, the quantile-forest spreads and the
// ROC AUC score. The ROC AUC validator was recorded with its internal
// predictor's metric set to ROC AUC as well, which the validator now does
// itself.
constexpr uint64_t kPredictorGridHash = 2106156533468090824ULL;
constexpr uint64_t kPredictorQuantileForestHash = 14173982321731862652ULL;
constexpr uint64_t kPredictorRocAucHash = 9628490558846314556ULL;
constexpr uint64_t kValidatorRocAucHash = 7827032351245776485ULL;

class CollectionGoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CollectionGoldenTest, PredictorFullCopies) {
  const ScopedThreadsEnv threads(GetParam());
  EXPECT_EQ(PredictorHash(SharedFixture(), SmallPredictorOptions(0)),
            kPredictorFullHash);
}

TEST_P(CollectionGoldenTest, PredictorMetaBatch) {
  const ScopedThreadsEnv threads(GetParam());
  EXPECT_EQ(PredictorHash(SharedFixture(), SmallPredictorOptions(60)),
            kPredictorSubsampleHash);
}

TEST_P(CollectionGoldenTest, PredictorTreeCountGridSearch) {
  const ScopedThreadsEnv threads(GetParam());
  PerformancePredictor::Options options = SmallPredictorOptions(0);
  options.tree_count_grid = {8, 12};
  EXPECT_EQ(PredictorHash(SharedFixture(), options), kPredictorGridHash);
}

TEST_P(CollectionGoldenTest, PredictorQuantileForestCalibration) {
  const ScopedThreadsEnv threads(GetParam());
  PerformancePredictor::Options options = SmallPredictorOptions(0);
  options.conformal_mode = ConformalCalibrator::Mode::kQuantileForest;
  EXPECT_EQ(PredictorHash(SharedFixture(), options),
            kPredictorQuantileForestHash);
}

TEST_P(CollectionGoldenTest, PredictorRocAuc) {
  const ScopedThreadsEnv threads(GetParam());
  PerformancePredictor::Options options = SmallPredictorOptions(0);
  options.metric = ScoreMetric::kRocAuc;
  EXPECT_EQ(PredictorHash(SharedFixture(), options), kPredictorRocAucHash);
}

TEST_P(CollectionGoldenTest, ValidatorExampleHalf) {
  const ScopedThreadsEnv threads(GetParam());
  EXPECT_EQ(ValidatorHash(SharedFixture(), 0), kValidatorHash);
}

TEST_P(CollectionGoldenTest, ValidatorMetaBatch) {
  const ScopedThreadsEnv threads(GetParam());
  EXPECT_EQ(ValidatorHash(SharedFixture(), 50), kValidatorSubsampleHash);
}

TEST_P(CollectionGoldenTest, ValidatorRocAuc) {
  const ScopedThreadsEnv threads(GetParam());
  EXPECT_EQ(ValidatorHash(SharedFixture(), 0, ScoreMetric::kRocAuc),
            kValidatorRocAucHash);
}

INSTANTIATE_TEST_SUITE_P(Threads, CollectionGoldenTest,
                         ::testing::Values("1", "4"));

}  // namespace
}  // namespace bbv::core
