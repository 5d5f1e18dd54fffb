#include "ml/forest_kernel.h"

#include <algorithm>
#include <array>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"

namespace bbv::ml {

namespace {

/// Rows per traversal tile: small enough that a tile of rows plus the hot
/// top of every tree stays cache-resident, large enough to amortize the
/// per-tree loop overhead.
constexpr size_t kRowTile = 64;

/// Tiles per thread below which the parallel section shrinks; 8 tiles
/// matches the ~512 rows/thread threshold the legacy per-row path used.
constexpr size_t kMinTilesPerThread = 8;

/// Flattened layouts up to this size are L1-resident (compact).
constexpr size_t kCompactBytes = 32 * 1024;

/// Rows per lockstep lane group.
constexpr size_t kLanes = 8;

/// Narrowest lane group the lockstep walk takes. A lane group costs the
/// same at any width, about what three rows cost node by node: on a
/// 100-tree forest fit on 405 x 58 meta-examples (bench/micro_ops
/// BM_ForestKernelRows) the node-by-node walk wins at 1 and 2 rows, the
/// two tie at 3 and the lockstep walk wins from 4.
constexpr size_t kMinLockstepRows = 3;

}  // namespace

ForestKernel ForestKernel::Compile(std::span<const RegressionTree> trees) {
  const common::telemetry::TraceSpan span("forest_kernel.compile");
  common::telemetry::IncrementCounter("forest_kernel.compile.calls");
  common::telemetry::IncrementCounter("forest_kernel.compile.trees",
                                      trees.size());
  ForestKernel kernel;
  size_t internal_total = 0;
  size_t leaf_total = 0;
  for (const RegressionTree& tree : trees) {
    BBV_CHECK(tree.NumNodes() > 0) << "ForestKernel::Compile on unfitted tree";
    for (const RegressionTree::Node& node : tree.nodes()) {
      if (node.feature >= 0) {
        ++internal_total;
      } else {
        ++leaf_total;
      }
    }
  }
  // Global ids and their complements must fit in int32.
  const auto id_limit =
      static_cast<size_t>(std::numeric_limits<int32_t>::max());
  BBV_CHECK(internal_total < id_limit && leaf_total < id_limit)
      << "ensemble too large for 32-bit node ids";
  kernel.feature_.reserve(internal_total);
  kernel.threshold_.reserve(internal_total);
  kernel.left_.reserve(internal_total);
  kernel.right_.reserve(internal_total);
  kernel.leaf_value_.reserve(leaf_total);
  kernel.roots_.reserve(trees.size());
  kernel.depth_.reserve(trees.size());

  std::vector<int32_t> remap;
  std::vector<int32_t> level;
  for (const RegressionTree& tree : trees) {
    const std::vector<RegressionTree::Node>& nodes = tree.nodes();
    remap.assign(nodes.size(), 0);
    level.assign(nodes.size(), 0);
    auto next_internal = static_cast<int32_t>(kernel.feature_.size());
    auto next_leaf = static_cast<int32_t>(kernel.leaf_value_.size());
    int32_t depth = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      const RegressionTree::Node& node = nodes[i];
      if (node.feature >= 0) {
        // Children follow their parent, so a node's level is final before
        // the loop reaches it, and the lockstep step count is the deepest
        // leaf's level.
        BBV_CHECK(static_cast<size_t>(node.left) > i &&
                  static_cast<size_t>(node.right) > i)
            << "tree child precedes its parent";
        level[static_cast<size_t>(node.left)] = level[i] + 1;
        level[static_cast<size_t>(node.right)] = level[i] + 1;
        remap[i] = next_internal;
        ++next_internal;
      } else {
        depth = std::max(depth, level[i]);
        remap[i] = ~next_leaf;
        ++next_leaf;
      }
    }
    for (const RegressionTree::Node& node : nodes) {
      if (node.feature >= 0) {
        kernel.feature_.push_back(node.feature);
        kernel.threshold_.push_back(node.threshold);
        kernel.left_.push_back(remap[static_cast<size_t>(node.left)]);
        kernel.right_.push_back(remap[static_cast<size_t>(node.right)]);
        kernel.max_feature_ = std::max(kernel.max_feature_, node.feature);
      } else {
        kernel.leaf_value_.push_back(node.value);
      }
    }
    kernel.roots_.push_back(remap[0]);
    kernel.depth_.push_back(depth);
  }
  return kernel;
}

size_t ForestKernel::footprint_bytes() const {
  // feature/left/right (int32) + threshold (double) per internal node,
  // value (double) per leaf.
  return feature_.size() * (3 * sizeof(int32_t) + sizeof(double)) +
         leaf_value_.size() * sizeof(double);
}

void ForestKernel::RunLockstep(const linalg::Matrix& features, size_t first,
                               size_t width, double scale, size_t stride,
                               std::span<double> out) const {
  // Lanes past `width` repeat the last row, so every step runs all kLanes
  // lanes; their leaves are never added.
  std::array<const double*, kLanes> rows;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    rows[lane] = features.RowData(first + std::min(lane, width - 1));
  }
  double* group_out = out.data() + first * stride;
  size_t column = 0;
  for (size_t t = 0; t < roots_.size(); ++t) {
    std::array<int32_t, kLanes> node;
    node.fill(roots_[t]);
    for (int32_t step = 0; step < depth_[t]; ++step) {
      for (size_t lane = 0; lane < kLanes; ++lane) {
        // A lane on a leaf steps from node 0 (any internal node would do)
        // and keeps its leaf id, selected by mask to stay branch-free.
        const int32_t current = node[lane];
        const int32_t next =
            Child(static_cast<size_t>(std::max(current, 0)), rows[lane]);
        const int32_t leaf_mask = current >> 31;  // all ones on a leaf
        node[lane] = (current & leaf_mask) | (next & ~leaf_mask);
      }
    }
    for (size_t lane = 0; lane < width; ++lane) {
      group_out[lane * stride + column] +=
          scale * leaf_value_[static_cast<size_t>(~node[lane])];
    }
    if (++column == stride) column = 0;
  }
}

void ForestKernel::RunTile(const linalg::Matrix& features, size_t begin,
                           size_t end, double scale, size_t stride,
                           std::span<double> out) const {
  size_t next = begin;
  if (footprint_bytes() > kCompactBytes) {
    while (end - next >= kMinLockstepRows) {
      const size_t width = std::min(kLanes, end - next);
      RunLockstep(features, next, width, scale, stride, out);
      next += width;
    }
  }
  // Rows outer: a compact ensemble's whole tile, or the narrow tail of a
  // large one.
  for (size_t r = next; r < end; ++r) {
    const double* row = features.RowData(r);
    double* row_out = out.data() + r * stride;
    size_t column = 0;
    for (size_t t = 0; t < roots_.size(); ++t) {
      row_out[column] += scale * TraverseRow(t, row);
      if (++column == stride) column = 0;
    }
  }
}

void ForestKernel::Run(const linalg::Matrix& features, double scale,
                       size_t stride, bool mean, std::span<double> out) const {
  BBV_CHECK(!empty()) << "ForestKernel inference before Compile";
  BBV_CHECK(stride > 0) << "stride must be positive";
  BBV_CHECK_EQ(out.size(), features.rows() * stride);
  BBV_CHECK(max_feature_ < 0 ||
            static_cast<size_t>(max_feature_) < features.cols())
      << "ensemble reads feature " << max_feature_ << " but the batch has "
      << features.cols() << " columns";
  const size_t rows = features.rows();
  if (rows == 0) return;
  const common::telemetry::TraceSpan span("forest_kernel.predict");
  common::telemetry::IncrementCounter("forest_kernel.predict.calls");
  common::telemetry::IncrementCounter("forest_kernel.predict.rows", rows);
  const size_t num_trees_total = roots_.size();
  const size_t num_tiles = (rows + kRowTile - 1) / kRowTile;
  // Each tile owns out[begin * stride, end * stride) exclusively and
  // accumulates per row in ensemble order, so the floating-point addition
  // sequence per output slot — and hence every bit of the result — is
  // independent of the tile-to-thread schedule.
  const common::Status status = common::ParallelFor(
      num_tiles,
      [&](size_t tile) {
        const size_t begin = tile * kRowTile;
        const size_t end = std::min(begin + kRowTile, rows);
        RunTile(features, begin, end, scale, stride, out);
        if (mean) {
          // Same division the legacy node walk applied per row
          // (sum / num_trees), done while the tile is still cache-hot.
          for (size_t r = begin; r < end; ++r) {
            out[r] /= static_cast<double>(num_trees_total);
          }
        }
        return common::Status::OK();
      },
      {.min_items_per_thread = kMinTilesPerThread});
  BBV_CHECK(status.ok()) << status.ToString();
}

void ForestKernel::AccumulateInto(const linalg::Matrix& features, double scale,
                                  size_t stride,
                                  std::span<double> out) const {
  Run(features, scale, stride, /*mean=*/false, out);
}

void ForestKernel::PredictMeanInto(const linalg::Matrix& features,
                                   std::span<double> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  Run(features, /*scale=*/1.0, /*stride=*/1, /*mean=*/true, out);
}

void ForestKernel::PredictRowValuesInto(const double* row,
                                        std::span<double> out) const {
  BBV_CHECK(!empty()) << "ForestKernel inference before Compile";
  BBV_CHECK_EQ(out.size(), roots_.size())
      << "per-tree output span must hold one slot per tree";
  for (size_t t = 0; t < roots_.size(); ++t) {
    out[t] = TraverseRow(t, row);
  }
}

}  // namespace bbv::ml
