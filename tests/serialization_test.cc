// Round-trip tests for the binary persistence layer: trained artifacts must
// reload with bit-identical predictions, and corrupt inputs must fail with
// readable errors instead of crashing.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/performance_predictor.h"
#include "core/performance_validator.h"
#include "datasets/tabular.h"
#include "errors/missing_values.h"
#include "ml/black_box.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/random_forest.h"
#include "ml/sgd_logistic_regression.h"

namespace bbv {
namespace {

// ---------------------------------------------------------------------------
// Archive primitives
// ---------------------------------------------------------------------------

TEST(BinaryArchiveTest, PrimitiveRoundTrip) {
  common::BinaryWriter writer;
  writer.WriteMagic("TEST", 3);
  writer.WriteUint32(7);
  writer.WriteUint64(1ull << 40);
  writer.WriteInt32(-5);
  writer.WriteDouble(3.14159);
  writer.WriteString("hello");
  writer.WriteDoubleVector({1.0, 2.0, 3.0});
  writer.WriteInt32Vector({-1, 0, 1});

  common::BinaryReader reader(writer.bytes());
  ASSERT_TRUE(reader.ExpectMagic("TEST", 3).ok());
  EXPECT_EQ(reader.ReadUint32().ValueOrDie(), 7u);
  EXPECT_EQ(reader.ReadUint64().ValueOrDie(), 1ull << 40);
  EXPECT_EQ(reader.ReadInt32().ValueOrDie(), -5);
  EXPECT_DOUBLE_EQ(reader.ReadDouble().ValueOrDie(), 3.14159);
  EXPECT_EQ(reader.ReadString().ValueOrDie(), "hello");
  EXPECT_EQ(reader.ReadDoubleVector().ValueOrDie(),
            (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(reader.ReadInt32Vector().ValueOrDie(),
            (std::vector<int32_t>{-1, 0, 1}));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BinaryArchiveTest, BlockPrimitivesRoundTrip) {
  common::BinaryWriter writer;
  const size_t count_at = writer.size();
  writer.WriteUint64(0);
  const std::vector<uint64_t> values = {3, uint64_t{1} << 63, 0};
  writer.WriteUint64s(values);
  writer.PatchUint64(count_at, values.size());
  for (const uint64_t value :
       {uint64_t{0}, uint64_t{127}, uint64_t{128}, uint64_t{300},
        ~uint64_t{0}}) {
    writer.WriteVarUint64(value);
  }
  char* raw = writer.Extend(3);
  raw[0] = 'a';
  raw[1] = 'b';
  raw[2] = 'c';

  common::BinaryReader reader(writer.bytes());
  EXPECT_EQ(reader.ReadUint64().ValueOrDie(), values.size());
  std::vector<uint64_t> read(values.size());
  ASSERT_TRUE(reader.ReadUint64s(read).ok());
  EXPECT_EQ(read, values);
  EXPECT_EQ(reader.ReadVarUint64().ValueOrDie(), 0u);
  EXPECT_EQ(reader.ReadVarUint64().ValueOrDie(), 127u);
  EXPECT_EQ(reader.ReadVarUint64().ValueOrDie(), 128u);
  EXPECT_EQ(reader.ReadVarUint64().ValueOrDie(), 300u);
  EXPECT_EQ(reader.ReadVarUint64().ValueOrDie(), ~uint64_t{0});
  const auto tail = reader.ReadBytes(3);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(std::string(tail->data(), tail->size()), "abc");
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_FALSE(reader.ReadBytes(1).ok());
  EXPECT_FALSE(reader.ReadVarUint64().ok());
}

TEST(BinaryArchiveTest, MalformedVarintsRejected) {
  // Eleven continuation bytes, and a tenth byte carrying more than bit 63.
  const std::string overlong(11, static_cast<char>(0x80));
  common::BinaryReader overlong_reader(overlong);
  EXPECT_FALSE(overlong_reader.ReadVarUint64().ok());
  std::string too_wide(9, static_cast<char>(0xFF));
  too_wide.push_back(0x02);
  common::BinaryReader wide_reader(too_wide);
  EXPECT_FALSE(wide_reader.ReadVarUint64().ok());
  EXPECT_EQ(wide_reader.position(), 0u);
  // Padded encodings, which WriteVarUint64 never writes: 0x80 0x00 is a
  // two-byte zero.
  const std::string padded = std::string("\x80\x00", 2);
  common::BinaryReader padded_reader(padded);
  EXPECT_FALSE(padded_reader.ReadVarUint64().ok());
  EXPECT_EQ(padded_reader.position(), 0u);
  std::string padded_max(9, static_cast<char>(0xFF));
  padded_max.push_back(0x00);
  common::BinaryReader padded_max_reader(padded_max);
  EXPECT_FALSE(padded_max_reader.ReadVarUint64().ok());
  // A truncated varint consumes nothing.
  const std::string truncated(2, static_cast<char>(0x80));
  common::BinaryReader truncated_reader(truncated);
  EXPECT_FALSE(truncated_reader.ReadVarUint64().ok());
  EXPECT_EQ(truncated_reader.position(), 0u);
}

TEST(BinaryArchiveTest, WrongMagicRejected) {
  common::BinaryWriter writer;
  writer.WriteMagic("AAAA", 1);
  common::BinaryReader reader(writer.bytes());
  EXPECT_FALSE(reader.ExpectMagic("BBBB", 1).ok());
}

TEST(BinaryArchiveTest, WrongVersionRejected) {
  common::BinaryWriter writer;
  writer.WriteMagic("AAAA", 2);
  common::BinaryReader reader(writer.bytes());
  EXPECT_FALSE(reader.ExpectMagic("AAAA", 1).ok());
}

TEST(BinaryArchiveTest, TruncatedStreamRejected) {
  common::BinaryWriter writer;
  writer.WriteUint32(1);
  common::BinaryReader reader(writer.bytes());
  EXPECT_TRUE(reader.ReadUint32().ok());
  EXPECT_FALSE(reader.ReadDouble().ok());
}

TEST(BinaryArchiveTest, ImplausibleVectorLengthRejected) {
  common::BinaryWriter writer;
  writer.WriteUint64(uint64_t{1} << 60);  // bogus length prefix
  common::BinaryReader reader(writer.bytes());
  EXPECT_FALSE(reader.ReadDoubleVector().ok());
}

// ---------------------------------------------------------------------------
// Random forest
// ---------------------------------------------------------------------------

TEST(ForestSerializationTest, PredictionsSurviveRoundTrip) {
  common::Rng rng(1);
  linalg::Matrix features(200, 4);
  std::vector<double> targets(200);
  for (size_t i = 0; i < 200; ++i) {
    for (size_t j = 0; j < 4; ++j) features.At(i, j) = rng.Uniform();
    targets[i] = features.At(i, 0) + 0.5 * features.At(i, 2);
  }
  ml::RandomForestRegressor::Options options;
  options.num_trees = 15;
  ml::RandomForestRegressor forest(options);
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());

  std::stringstream buffer;
  ASSERT_TRUE(forest.Save(buffer).ok());
  const auto restored = ml::RandomForestRegressor::Load(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_trees(), 15);
  const std::vector<double> expected = forest.Predict(features);
  const std::vector<double> actual = restored->Predict(features);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(expected[i], actual[i]);
  }
}

TEST(ForestSerializationTest, WriterCoreMatchesStreamWrapperBytes) {
  // The stream overload is a thin wrapper over the BinaryWriter core; both
  // must emit the same bytes so archives written either way (and any
  // pre-redesign stream) stay interchangeable.
  common::Rng rng(5);
  linalg::Matrix features(120, 3);
  std::vector<double> targets(120);
  for (size_t i = 0; i < 120; ++i) {
    for (size_t j = 0; j < 3; ++j) features.At(i, j) = rng.Uniform();
    targets[i] = features.At(i, 1);
  }
  ml::RandomForestRegressor::Options options;
  options.num_trees = 9;
  ml::RandomForestRegressor forest(options);
  ASSERT_TRUE(forest.Fit(features, targets, rng).ok());

  std::ostringstream via_stream;
  ASSERT_TRUE(forest.Save(via_stream).ok());
  common::BinaryWriter writer;
  ASSERT_TRUE(forest.Save(writer).ok());
  EXPECT_EQ(via_stream.str(), writer.bytes());

  // And the reader core restores from the same bytes.
  common::BinaryReader reader(writer.bytes());
  const auto restored = ml::RandomForestRegressor::Load(reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->Predict(features), forest.Predict(features));
}

TEST(ForestSerializationTest, SaveBeforeFitFails) {
  ml::RandomForestRegressor forest;
  std::stringstream buffer;
  EXPECT_FALSE(forest.Save(buffer).ok());
}

TEST(ForestSerializationTest, GarbageInputRejected) {
  std::stringstream buffer("this is not a forest");
  EXPECT_FALSE(ml::RandomForestRegressor::Load(buffer).ok());
}

// ---------------------------------------------------------------------------
// Gradient-boosted trees
// ---------------------------------------------------------------------------

TEST(GbdtSerializationTest, ProbabilitiesSurviveRoundTrip) {
  common::Rng rng(3);
  linalg::Matrix features(200, 3);
  std::vector<int> labels(200);
  for (size_t i = 0; i < 200; ++i) {
    const int label = static_cast<int>(i % 3);
    features.At(i, 0) = rng.Gaussian(static_cast<double>(label), 0.4);
    features.At(i, 1) = rng.Uniform();
    features.At(i, 2) = rng.Uniform();
    labels[i] = label;
  }
  ml::GradientBoostedTrees::Options options;
  options.num_rounds = 10;
  ml::GradientBoostedTrees model(options);
  ASSERT_TRUE(model.Fit(features, labels, 3, rng).ok());

  std::stringstream buffer;
  ASSERT_TRUE(model.Save(buffer).ok());
  const auto restored = ml::GradientBoostedTrees::Load(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_classes(), 3);
  const linalg::Matrix expected = model.PredictProba(features);
  const linalg::Matrix actual = restored->PredictProba(features);
  for (size_t i = 0; i < expected.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(expected.data()[i], actual.data()[i]);
  }
}

TEST(GbdtSerializationTest, WriterCoreMatchesStreamWrapperBytes) {
  common::Rng rng(6);
  linalg::Matrix features(150, 3);
  std::vector<int> labels(150);
  for (size_t i = 0; i < 150; ++i) {
    const int label = static_cast<int>(i % 2);
    features.At(i, 0) = rng.Gaussian(static_cast<double>(label), 0.5);
    features.At(i, 1) = rng.Uniform();
    features.At(i, 2) = rng.Uniform();
    labels[i] = label;
  }
  ml::GradientBoostedTrees::Options options;
  options.num_rounds = 6;
  ml::GradientBoostedTrees model(options);
  ASSERT_TRUE(model.Fit(features, labels, 2, rng).ok());

  std::ostringstream via_stream;
  ASSERT_TRUE(model.Save(via_stream).ok());
  common::BinaryWriter writer;
  ASSERT_TRUE(model.Save(writer).ok());
  EXPECT_EQ(via_stream.str(), writer.bytes());

  common::BinaryReader reader(writer.bytes());
  const auto restored = ml::GradientBoostedTrees::Load(reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const linalg::Matrix expected = model.PredictProba(features);
  const linalg::Matrix actual = restored->PredictProba(features);
  EXPECT_EQ(expected.data(), actual.data());
}

TEST(GbdtSerializationTest, GarbageInputRejected) {
  std::stringstream buffer("BBVGBxx");
  EXPECT_FALSE(ml::GradientBoostedTrees::Load(buffer).ok());
}

// ---------------------------------------------------------------------------
// Hostile tree topologies
// ---------------------------------------------------------------------------

/// Three-node regression tree whose internal nodes 0 and 1 point at
/// `lefts`/`rights`; node 2 is a leaf. Loading only ever checks the status:
/// a cyclic tree must never reach a predict call, which would not return.
common::Result<ml::RegressionTree> LoadRegressionTree(
    const std::vector<int32_t>& lefts, const std::vector<int32_t>& rights) {
  common::BinaryWriter writer;
  writer.WriteInt32Vector({0, 0, -1});
  writer.WriteInt32Vector(lefts);
  writer.WriteInt32Vector(rights);
  writer.WriteDoubleVector({0.5, 0.25, 0.0});
  writer.WriteDoubleVector({0.0, 0.0, 1.0});
  common::BinaryReader reader(writer.bytes());
  return ml::RegressionTree::Load(reader);
}

TEST(TreeSerializationTest, RegressionTreeRejectsCycles) {
  // Preorder layout (the only shape Grow writes) loads.
  EXPECT_TRUE(LoadRegressionTree({1, 2, -1}, {2, 2, -1}).ok());
  // Self-loop at the root.
  EXPECT_EQ(LoadRegressionTree({0, 2, -1}, {2, 2, -1}).status().code(),
            common::StatusCode::kInvalidArgument);
  // Back-edge from node 1 to its parent.
  EXPECT_EQ(LoadRegressionTree({1, 0, -1}, {2, 2, -1}).status().code(),
            common::StatusCode::kInvalidArgument);
}

/// DecisionTreeClassifier counterpart of LoadRegressionTree.
common::Result<ml::DecisionTreeClassifier> LoadClassifierTree(
    const std::vector<int32_t>& lefts, const std::vector<int32_t>& rights) {
  common::BinaryWriter writer;
  writer.WriteMagic("BBVCT", 1);
  writer.WriteInt32(2);
  writer.WriteUint64(3);
  const int32_t features[] = {0, 0, -1};
  for (size_t i = 0; i < 3; ++i) {
    writer.WriteInt32(features[i]);
    writer.WriteDouble(0.5);
    writer.WriteInt32(lefts[i]);
    writer.WriteInt32(rights[i]);
    writer.WriteDoubleVector({0.5, 0.5});
  }
  common::BinaryReader reader(writer.bytes());
  return ml::DecisionTreeClassifier::Load(reader);
}

TEST(TreeSerializationTest, DecisionTreeClassifierRejectsCycles) {
  EXPECT_TRUE(LoadClassifierTree({1, 2, -1}, {2, 2, -1}).ok());
  EXPECT_EQ(LoadClassifierTree({0, 2, -1}, {2, 2, -1}).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadClassifierTree({1, 0, -1}, {2, 2, -1}).status().code(),
            common::StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Performance predictor
// ---------------------------------------------------------------------------

TEST(PredictorSerializationTest, EstimatesSurviveRoundTrip) {
  common::Rng rng(2);
  data::Dataset dataset = datasets::MakeIncome(2000, rng);
  auto [source, serving] = data::TrainTestSplit(dataset, 0.7, rng);
  auto [train, test] = data::TrainTestSplit(source, 0.7, rng);
  ml::BlackBoxModel model(std::make_unique<ml::SgdLogisticRegression>());
  ASSERT_TRUE(model.Train(train, rng).ok());

  core::PerformancePredictor::Options options;
  options.corruptions_per_generator = 20;
  options.tree_count_grid = {25};
  core::PerformancePredictor predictor(options);
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  ASSERT_TRUE(predictor.Train(model, test, generators, rng).ok());

  std::stringstream buffer;
  ASSERT_TRUE(predictor.Save(buffer).ok());
  const auto restored = core::PerformancePredictor::Load(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->trained());
  EXPECT_DOUBLE_EQ(restored->test_score(), predictor.test_score());
  EXPECT_EQ(restored->num_training_examples(),
            predictor.num_training_examples());

  const auto proba = model.PredictProba(serving.features).ValueOrDie();
  // Full four-field ScoreEstimate equality: the round-trip restores the
  // conformal calibration state, not just the forest.
  EXPECT_EQ(predictor.EstimateScoreFromProba(proba).ValueOrDie(),
            restored->EstimateScoreFromProba(proba).ValueOrDie());
}

TEST(PredictorSerializationTest, SaveBeforeTrainFails) {
  core::PerformancePredictor predictor;
  std::stringstream buffer;
  EXPECT_FALSE(predictor.Save(buffer).ok());
}

TEST(PredictorSerializationTest, GarbageInputRejected) {
  std::stringstream buffer("BBVPPnonsense");
  EXPECT_FALSE(core::PerformancePredictor::Load(buffer).ok());
}

TEST(PredictorSerializationTest, ForestReadingPastFeatureDimensionRejected) {
  // Percentile grid of 3 over 2 classes: 6 equally informative features,
  // so the 25 trees split on features past the first 3.
  core::PerformancePredictor::Options options;
  options.percentile_points = {25.0, 50.0, 75.0};
  options.tree_count_grid = {25};
  core::PerformancePredictor predictor(options);
  std::vector<std::vector<double>> statistics;
  std::vector<double> scores;
  for (int i = 0; i < 40; ++i) {
    const double x = static_cast<double>(i) / 40.0;
    statistics.push_back(std::vector<double>(6, x));
    scores.push_back(x);
  }
  common::Rng rng(6);
  ASSERT_TRUE(predictor.TrainFromStatistics(statistics, scores, 0.5, rng).ok());
  std::stringstream buffer;
  ASSERT_TRUE(predictor.Save(buffer).ok());
  std::string bytes = buffer.str();

  // The stored feature dimension sits right before the coverage level;
  // rewrite it to 3, a smaller multiple of the grid size.
  const auto encode = [](uint64_t dimension, double coverage) {
    common::BinaryWriter writer;
    writer.WriteUint64(dimension);
    writer.WriteDouble(coverage);
    return writer.bytes();
  };
  const std::string stored = encode(6, predictor.coverage_level());
  const size_t at = bytes.find(stored);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(stored, at + 1), std::string::npos);
  bytes.replace(at, stored.size(), encode(3, predictor.coverage_level()));

  std::stringstream corrupt(bytes);
  EXPECT_EQ(core::PerformancePredictor::Load(corrupt).status().code(),
            common::StatusCode::kInvalidArgument);
  // The untouched bytes still load.
  std::stringstream intact(buffer.str());
  EXPECT_TRUE(core::PerformancePredictor::Load(intact).ok());
}

// ---------------------------------------------------------------------------
// Performance validator
// ---------------------------------------------------------------------------

TEST(ValidatorSerializationTest, DecisionsSurviveRoundTrip) {
  common::Rng rng(4);
  data::Dataset dataset = datasets::MakeIncome(2500, rng);
  auto [source, serving] = data::TrainTestSplit(dataset, 0.7, rng);
  auto [train, test] = data::TrainTestSplit(source, 0.7, rng);
  ml::BlackBoxModel model(std::make_unique<ml::SgdLogisticRegression>());
  ASSERT_TRUE(model.Train(train, rng).ok());

  core::PerformanceValidator::Options options;
  options.threshold = 0.05;
  options.corruptions_per_generator = 40;
  core::PerformanceValidator validator(options);
  const errors::MissingValues missing;
  std::vector<const errors::ErrorGen*> generators = {&missing};
  ASSERT_TRUE(validator.Train(model, test, generators, rng).ok());

  std::stringstream buffer;
  ASSERT_TRUE(validator.Save(buffer).ok());
  const auto restored = core::PerformanceValidator::Load(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_DOUBLE_EQ(restored->threshold(), validator.threshold());
  EXPECT_DOUBLE_EQ(restored->test_score(), validator.test_score());

  // Decisions agree on clean and corrupted batches.
  for (int round = 0; round < 5; ++round) {
    common::Rng corrupt_rng(100 + round);
    const auto corrupted =
        missing.Corrupt(serving.features, corrupt_rng).ValueOrDie();
    const auto proba = model.PredictProba(corrupted).ValueOrDie();
    EXPECT_EQ(validator.ValidateFromProba(proba).ValueOrDie(),
              restored->ValidateFromProba(proba).ValueOrDie());
  }
}

TEST(ValidatorSerializationTest, SaveBeforeTrainFails) {
  core::PerformanceValidator validator;
  std::stringstream buffer;
  EXPECT_FALSE(validator.Save(buffer).ok());
}

TEST(ValidatorSerializationTest, GarbageInputRejected) {
  std::stringstream buffer("BBVPVgarbage");
  EXPECT_FALSE(core::PerformanceValidator::Load(buffer).ok());
}

}  // namespace
}  // namespace bbv
