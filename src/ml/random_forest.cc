#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/parallel.h"
#include "common/telemetry.h"
#include "ml/feature_binning.h"
#include "ml/feature_order.h"

namespace bbv::ml {

common::Status RandomForestRegressor::Fit(const linalg::Matrix& features,
                                          const std::vector<double>& targets,
                                          common::Rng& rng) {
  const common::telemetry::TraceSpan span("forest.fit");
  if (features.rows() != targets.size()) {
    return common::Status::InvalidArgument(
        "features and targets disagree on the number of rows");
  }
  if (features.rows() == 0) {
    return common::Status::InvalidArgument("cannot fit on an empty matrix");
  }
  if (options_.num_trees <= 0) {
    return common::Status::InvalidArgument("num_trees must be positive");
  }
  const size_t n = features.rows();
  const double bootstrap_rows =
      std::floor(options_.bootstrap_fraction * static_cast<double>(n));
  BBV_RETURN_NOT_OK(CheckFitOptions(options_.tree, options_.bootstrap_fraction,
                                    bootstrap_rows));
  const size_t bootstrap_size =
      std::max<size_t>(1, static_cast<size_t>(bootstrap_rows));
  const size_t num_trees = static_cast<size_t>(options_.num_trees);
  common::telemetry::IncrementCounter("forest.fit.calls");
  common::telemetry::IncrementCounter("forest.trees_fitted", num_trees);
  // Each tree draws its bootstrap sample and split randomness from its own
  // pre-forked stream, so the serialized ensemble is bit-identical at every
  // thread count.
  std::vector<common::Rng> tree_rngs = rng.ForkStreams(num_trees);
  // One shared presort per Fit (deterministic, read-only across the tree
  // workers): the pre-binning for the histogram split search, else the
  // (value, target) order every tree's exact search starts from. Either
  // build rejects a non-finite feature value.
  FeatureBinning binning;
  FeatureOrder order;
  const FeatureBinning* binning_ptr = nullptr;
  const FeatureOrder* order_ptr = nullptr;
  if (options_.tree.binned_split_search) {
    // The binning never reads the targets, and a bootstrap sample may miss
    // any one row, so check them all here.
    if (!std::all_of(targets.begin(), targets.end(),
                     [](double target) { return std::isfinite(target); })) {
      return common::Status::InvalidArgument("non-finite training target");
    }
    BBV_ASSIGN_OR_RETURN(binning, FeatureBinning::Build(features));
    binning_ptr = &binning;
  } else {
    BBV_ASSIGN_OR_RETURN(order, FeatureOrder::Build(features, targets));
    order_ptr = &order;
  }
  trees_.clear();
  BBV_ASSIGN_OR_RETURN(
      trees_,
      common::ParallelMap<RegressionTree>(
          num_trees, [&](size_t t) -> common::Result<RegressionTree> {
            common::Rng& tree_rng = tree_rngs[t];
            std::vector<size_t> rows(bootstrap_size);
            for (size_t i = 0; i < bootstrap_size; ++i) {
              rows[i] = tree_rng.UniformInt(n);
            }
            RegressionTree tree(options_.tree);
            BBV_RETURN_NOT_OK(tree.Fit(features, targets, rows, tree_rng,
                                       binning_ptr, order_ptr));
            return tree;
          }));
  kernel_ = ForestKernel::Compile(trees_);
  return common::Status::OK();
}

void RandomForestRegressor::PredictInto(const linalg::Matrix& features,
                                        std::span<double> out) const {
  BBV_CHECK(fitted()) << "Predict before Fit";
  kernel_.PredictMeanInto(features, out);
}

std::vector<double> RandomForestRegressor::Predict(
    const linalg::Matrix& features) const {
  BBV_CHECK(fitted()) << "Predict before Fit";
  std::vector<double> result(features.rows());
  PredictInto(features, result);
  return result;
}

}  // namespace bbv::ml

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace bbv::ml {

namespace {
constexpr char kForestMagic[] = "BBVRF";
constexpr uint32_t kForestVersion = 1;
}  // namespace

common::Status RandomForestRegressor::Save(common::BinaryWriter& writer) const {
  if (!fitted()) {
    return common::Status::FailedPrecondition("Save before Fit");
  }
  writer.WriteMagic(kForestMagic, kForestVersion);
  writer.WriteUint64(trees_.size());
  for (const RegressionTree& tree : trees_) {
    tree.Save(writer);
  }
  return common::Status::OK();
}

common::Result<RandomForestRegressor> RandomForestRegressor::Load(
    common::BinaryReader& reader) {
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kForestMagic, kForestVersion));
  BBV_ASSIGN_OR_RETURN(uint64_t count, reader.ReadUint64());
  if (count == 0 || count > 1'000'000) {
    return common::Status::InvalidArgument("implausible tree count");
  }
  RandomForestRegressor forest;
  forest.trees_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    BBV_ASSIGN_OR_RETURN(RegressionTree tree, RegressionTree::Load(reader));
    forest.trees_.push_back(std::move(tree));
  }
  forest.kernel_ = ForestKernel::Compile(forest.trees_);
  return forest;
}

common::Status RandomForestRegressor::Save(std::ostream& out) const {
  return common::SaveToStream(
      out, [&](common::BinaryWriter& writer) { return Save(writer); });
}

common::Result<RandomForestRegressor> RandomForestRegressor::Load(
    std::istream& in) {
  return common::LoadFromStream(
      in, [](common::BinaryReader& reader) { return Load(reader); });
}

}  // namespace bbv::ml
