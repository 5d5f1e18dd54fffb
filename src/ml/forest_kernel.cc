#include "ml/forest_kernel.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

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

/// Hint the next tree's node block into cache while the current one runs;
/// a no-op where the intrinsic is unavailable.
inline void PrefetchRead(const void* address) {
#if defined(__GNUC__)
  __builtin_prefetch(address);
#else
  (void)address;
#endif
}

/// Largest float whose double value does not exceed `threshold`, so for
/// every float x:  x <= result  <=>  double(x) <= threshold. Both
/// directions of the equivalence are BBV_CHECK-verified here, per node, at
/// kernel-compile time — this is the invariant the quantized fast path's
/// error contract rests on.
float FloorToFloat(double threshold) {
  BBV_CHECK(std::isfinite(threshold) &&
            std::abs(threshold) <=
                static_cast<double>(std::numeric_limits<float>::max()))
      << "quantized kernel compile requires float-range split thresholds";
  float rounded = static_cast<float>(threshold);
  if (static_cast<double>(rounded) > threshold) {
    rounded =
        std::nextafter(rounded, -std::numeric_limits<float>::infinity());
  }
  BBV_CHECK(static_cast<double>(rounded) <= threshold)
      << "threshold quantization invariant violated (floor direction)";
  BBV_CHECK(static_cast<double>(std::nextafter(
                rounded, std::numeric_limits<float>::infinity())) > threshold)
      << "threshold quantization invariant violated (tightness direction)";
  return rounded;
}

}  // namespace

ForestKernel ForestKernel::Compile(std::span<const RegressionTree> trees,
                                   Options options) {
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
  // Global ids (and their complements) must fit in int32; the quantized
  // stepping arrays additionally index internal + leaf nodes together.
  const auto id_limit =
      static_cast<size_t>(std::numeric_limits<int32_t>::max());
  BBV_CHECK(internal_total < id_limit && leaf_total < id_limit &&
            internal_total + leaf_total < id_limit)
      << "ensemble too large for 32-bit node ids";
  kernel.feature_.reserve(internal_total);
  kernel.threshold_.reserve(internal_total);
  kernel.left_.reserve(internal_total);
  kernel.right_.reserve(internal_total);
  kernel.leaf_value_.reserve(leaf_total);
  kernel.roots_.reserve(trees.size());

  std::vector<int32_t> remap;
  for (const RegressionTree& tree : trees) {
    const std::vector<RegressionTree::Node>& nodes = tree.nodes();
    remap.assign(nodes.size(), 0);
    auto next_internal = static_cast<int32_t>(kernel.feature_.size());
    auto next_leaf = static_cast<int32_t>(kernel.leaf_value_.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].feature >= 0) {
        remap[i] = next_internal;
        ++next_internal;
      } else {
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
  }
  // feature/left/right (int32) + threshold (double) per internal node,
  // value (double) per leaf.
  const size_t footprint_bytes =
      kernel.feature_.size() * (3 * sizeof(int32_t) + sizeof(double)) +
      kernel.leaf_value_.size() * sizeof(double);
  kernel.compact_ = footprint_bytes <= 32 * 1024;
  // A compact ensemble already walks from L1, where the exact kernel beats
  // the float32 tiles; it runs exact even when quantization was requested.
  kernel.quantized_ = options.quantized && !kernel.compact_;
  if (kernel.quantized_) {
    kernel.CompileQuantized(trees);
  }
  return kernel;
}

void ForestKernel::CompileQuantized(std::span<const RegressionTree> trees) {
  qnode_begin_.reserve(trees.size() + 1);
  qnode_begin_.push_back(0);
  qdepth_.reserve(trees.size());
  tree_leaf_range_.reserve(trees.size());
  tree_leaf_absmax_.reserve(trees.size());

  for (const RegressionTree& tree : trees) {
    const std::vector<RegressionTree::Node>& nodes = tree.nodes();
    double leaf_min = std::numeric_limits<double>::infinity();
    double leaf_max = -std::numeric_limits<double>::infinity();
    double leaf_absmax = 0.0;
    // Stepping block: all nodes of the tree appended in index order, so
    // the padded id of node j is base + j; leaves become self-loops, so
    // depth() lockstep steps land every lane on its exit leaf.
    const auto base = static_cast<int32_t>(qfeature_.size());
    for (const RegressionTree::Node& node : nodes) {
      if (node.feature >= 0) {
        qfeature_.push_back(node.feature);
        qthreshold_.push_back(FloorToFloat(node.threshold));
        qleft_.push_back(base + node.left);
        qright_.push_back(base + node.right);
        qvalue_.push_back(0.0);
      } else {
        const auto self_id = static_cast<int32_t>(qfeature_.size());
        qfeature_.push_back(0);
        qthreshold_.push_back(std::numeric_limits<float>::infinity());
        qleft_.push_back(self_id);
        qright_.push_back(self_id);
        qvalue_.push_back(node.value);
        leaf_min = std::min(leaf_min, node.value);
        leaf_max = std::max(leaf_max, node.value);
        leaf_absmax = std::max(leaf_absmax, std::abs(node.value));
      }
    }
    tree_leaf_range_.push_back(leaf_max - leaf_min);
    tree_leaf_absmax_.push_back(leaf_absmax);
    int32_t depth = 0;
    std::vector<std::pair<int32_t, int32_t>> stack;
    stack.emplace_back(0, 0);
    while (!stack.empty()) {
      const auto [index, d] = stack.back();
      stack.pop_back();
      const RegressionTree::Node& node = nodes[static_cast<size_t>(index)];
      if (node.feature < 0) {
        depth = std::max(depth, d);
      } else {
        stack.emplace_back(node.left, d + 1);
        stack.emplace_back(node.right, d + 1);
      }
    }
    qdepth_.push_back(depth);
    qnode_begin_.push_back(qfeature_.size());
  }
}

float ForestKernel::QuantizeValue(double value) {
  // Saturate instead of casting out-of-float-range doubles (the behavior
  // of such a cast is undefined); NaN passes through and still fails every
  // comparison, exactly like the exact walk sends NaN rows right.
  constexpr double kMaxFloat =
      static_cast<double>(std::numeric_limits<float>::max());
  if (value > kMaxFloat) return std::numeric_limits<float>::infinity();
  if (value < -kMaxFloat) return -std::numeric_limits<float>::infinity();
  return static_cast<float>(value);
}

linalg::Matrix ForestKernel::QuantizeFeatures(const linalg::Matrix& features) {
  linalg::Matrix rounded(features.rows(), features.cols());
  for (size_t i = 0; i < features.rows(); ++i) {
    const double* row = features.RowData(i);
    double* out = rounded.RowData(i);
    for (size_t j = 0; j < features.cols(); ++j) {
      out[j] = static_cast<double>(QuantizeValue(row[j]));
    }
  }
  return rounded;
}

double ForestKernel::QuantizationMeanErrorBound() const {
  BBV_CHECK(!empty()) << "error bound before Compile";
  if (!quantized_) return 0.0;
  double range_sum = 0.0;
  double absmax_sum = 0.0;
  for (size_t t = 0; t < roots_.size(); ++t) {
    range_sum += tree_leaf_range_[t];
    absmax_sum += tree_leaf_absmax_[t];
  }
  const auto trees = static_cast<double>(roots_.size());
  // Leaf-range bound for the input rounding plus first-order rounding
  // slack for the two double summations being compared.
  const double slack =
      4.0 * trees * std::numeric_limits<double>::epsilon() * absmax_sum;
  return (range_sum + slack) / trees;
}

double ForestKernel::QuantizationAccumulateErrorBound(double scale,
                                                      size_t stride) const {
  BBV_CHECK(!empty()) << "error bound before Compile";
  BBV_CHECK(stride > 0) << "stride must be positive";
  if (!quantized_) return 0.0;
  std::vector<double> range(stride, 0.0);
  std::vector<double> absmax(stride, 0.0);
  std::vector<double> count(stride, 0.0);
  for (size_t t = 0; t < roots_.size(); ++t) {
    const size_t k = t % stride;
    range[k] += tree_leaf_range_[t];
    absmax[k] += tree_leaf_absmax_[t];
    count[k] += 1.0;
  }
  double bound = 0.0;
  for (size_t k = 0; k < stride; ++k) {
    const double slack =
        4.0 * count[k] * std::numeric_limits<double>::epsilon() * absmax[k];
    bound = std::max(bound, std::abs(scale) * (range[k] + slack));
  }
  return bound;
}

void ForestKernel::RunExactTile(const linalg::Matrix& features, size_t begin,
                                size_t end, double scale, size_t stride,
                                std::span<double> out) const {
  const size_t num_trees_total = roots_.size();
  if (compact_) {
    // The flattened ensemble is L1-resident, so there is nothing to
    // amortize by reusing a tree across rows; walk rows outer and
    // keep each row's accumulator slots hot instead.
    for (size_t r = begin; r < end; ++r) {
      const double* row = features.RowData(r);
      double* row_out = out.data() + r * stride;
      size_t column = 0;
      for (size_t t = 0; t < num_trees_total; ++t) {
        row_out[column] += scale * TraverseRow(t, row);
        if (++column == stride) column = 0;
      }
    }
  } else {
    for (size_t t = 0; t < num_trees_total; ++t) {
      const size_t column = t % stride;
      for (size_t r = begin; r < end; ++r) {
        out[r * stride + column] +=
            scale * TraverseRow(t, features.RowData(r));
      }
    }
  }
}

void ForestKernel::RunQuantizedTile(const linalg::Matrix& features,
                                    size_t begin, size_t end, double scale,
                                    size_t stride, std::span<double> out,
                                    float* tile) const {
  const size_t cols = features.cols();
  const size_t num_trees_total = roots_.size();
  for (size_t group = begin; group < end; group += kLanes) {
    const size_t width = std::min(kLanes, end - group);
    // Transpose + quantize the lane group; tail lanes replicate the last
    // row so all kLanes traverse valid data (their results are dropped at
    // accumulation time). Keeps every traversal loop fixed-width.
    for (size_t lane = 0; lane < kLanes; ++lane) {
      const double* row = features.RowData(group + std::min(lane, width - 1));
      for (size_t f = 0; f < cols; ++f) {
        tile[f * kLanes + lane] = QuantizeValue(row[f]);
      }
    }
    for (size_t t = 0; t < num_trees_total; ++t) {
      if (t + 1 < num_trees_total) {
        PrefetchRead(qthreshold_.data() + qnode_begin_[t + 1]);
      }
      const size_t column = t % stride;
      // Lockstep stepping: leaves self-loop, so depth steps of the
      // branch-free select land every lane on its exit leaf.
      std::array<int32_t, kLanes> node;
      node.fill(static_cast<int32_t>(qnode_begin_[t]));
      const int32_t depth = qdepth_[t];
      for (int32_t d = 0; d < depth; ++d) {
        for (size_t lane = 0; lane < kLanes; ++lane) {
          const auto n = static_cast<size_t>(node[lane]);
          const float x =
              tile[static_cast<size_t>(qfeature_[n]) * kLanes + lane];
          node[lane] = x <= qthreshold_[n] ? qleft_[n] : qright_[n];
        }
      }
      for (size_t lane = 0; lane < width; ++lane) {
        out[(group + lane) * stride + column] +=
            scale * qvalue_[static_cast<size_t>(node[lane])];
      }
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
  const size_t tile_floats = std::max<size_t>(1, features.cols()) * kLanes;
  // Each tile owns out[begin * stride, end * stride) exclusively and
  // accumulates per row in ensemble order, so the floating-point addition
  // sequence per output slot — and hence every bit of the result — is
  // independent of the tile-to-thread schedule. The quantized path keeps
  // the same slot ownership and accumulation order, so it obeys the same
  // determinism contract.
  const common::Status status = common::ParallelFor(
      num_tiles,
      [&](size_t tile) {
        const size_t begin = tile * kRowTile;
        const size_t end = std::min(begin + kRowTile, rows);
        if (quantized_) {
          std::vector<float> scratch(tile_floats);
          RunQuantizedTile(features, begin, end, scale, stride, out,
                           scratch.data());
        } else {
          RunExactTile(features, begin, end, scale, stride, out);
        }
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
