#ifndef BBV_ML_FOREST_KERNEL_H_
#define BBV_ML_FOREST_KERNEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "ml/decision_tree.h"

namespace bbv::ml {

/// Flattened, cache-friendly inference representation compiled from a fitted
/// RegressionTree ensemble. This is the batch hot path behind every
/// tree-ensemble prediction: the performance predictor's meta-training
/// collection corrupts the held-out set hundreds of times and scores every
/// copy through the forest, so ensemble inference dominates both training
/// and serving-time EstimateScore calls.
///
/// Layout: the internal nodes of all trees live in contiguous
/// structure-of-arrays columns (`feature`, `threshold`, `left`, `right`)
/// indexed by one global node id, and leaf payloads live in a separate
/// `value` array. Children are encoded by sign — a non-negative child is the
/// global id of another internal node, a negative child `c` is the leaf
/// `value[~c]` — so traversal is a branch-light compare/select loop with no
/// leaf test against a sentinel feature.
///
/// Traversal is blocked row x tree: a tile of rows stays resident in cache
/// while every tree walks it in ensemble order, and tiles fan out over
/// common::ParallelFor. Each tile writes only its own output slots and
/// accumulates per row in fixed tree order, so results are bit-identical to
/// the legacy one-row-at-a-time node walk at every BBV_THREADS setting
/// (determinism contract, see README "Concurrency model").
///
/// ## Quantized fast path (opt-in, Options::quantized)
///
/// The default compare-and-descend walk is data-dependent and double-wide,
/// so on large ensembles it is bound by branch misses and memory latency.
/// The opt-in fast path trades a *measured, bounded* quantization step for
/// data-level parallelism:
///
///  - thresholds are stored as float32, rounded DOWN to the largest float
///    whose double value does not exceed the exact threshold, so for every
///    float feature value x:  x <= qthreshold  <=>  double(x) <= threshold.
///    Both directions of that equivalence are BBV_CHECK-verified for every
///    node at Compile time (the "verified at compile-of-kernel time" part
///    of the contract);
///  - each 8-row lane group is transposed into a float32 tile
///    (tile[feature * 8 + lane]) and all 8 lanes descend in lockstep with a
///    branch-free select — leaves are materialized as self-looping nodes so
///    a tree of depth D is exactly D unconditional steps;
///  - the next tree's node block is prefetched while the current tree runs.
///
/// Compact ensembles (the flattened exact layout fits in 32 KB of L1, e.g.
/// the depth-3 boosted trees) gain nothing from it — the exact walk is
/// already cache-resident and measured faster — so Compile routes them to
/// the exact kernel: no float32 representation is built and quantized()
/// reports false.
///
/// Error contract: a kernel whose quantized() is true is BIT-IDENTICAL to
/// the exact kernel evaluated on QuantizeFeatures(features) (features
/// rounded to float32), so its only deviation from the exact result comes
/// from that input rounding and is bounded by the per-tree leaf ranges:
/// |fast - exact| <= QuantizationMeanErrorBound() (resp.
/// QuantizationAccumulateErrorBound) for every row and output slot. Both
/// bounds are 0 for a kernel that runs exact. The bit-exact path stays the
/// default; PredictRowValuesInto is always exact.
class ForestKernel {
 public:
  struct Options {
    /// Opt into the float32 width-8 tile traversal described above for
    /// ensembles that are not compact. Off by default: the default kernel
    /// stays bit-identical to the legacy scalar node walk.
    bool quantized = false;
  };

  /// Empty kernel; every inference entry point BBV_CHECKs against it.
  ForestKernel() = default;

  /// Compiles the flattened representation from fitted trees (every tree
  /// must have at least one node). The kernel copies what it needs; the
  /// source trees can be discarded or mutated afterwards. With
  /// options.quantized and a non-compact ensemble the float32
  /// representation is built alongside the exact one and the
  /// threshold-rounding invariant is verified per node.
  static ForestKernel Compile(std::span<const RegressionTree> trees,
                              Options options);
  static ForestKernel Compile(std::span<const RegressionTree> trees) {
    return Compile(trees, Options{});
  }

  bool empty() const { return roots_.empty(); }
  size_t num_trees() const { return roots_.size(); }
  size_t num_internal_nodes() const { return feature_.size(); }
  size_t num_leaves() const { return leaf_value_.size(); }
  /// Largest feature index any split reads, or -1 for all-leaf ensembles.
  /// Batch entry points check it against the input's column count, so a
  /// mis-shaped matrix fails fast instead of reading out of bounds.
  int32_t max_feature() const { return max_feature_; }

  /// Whether the batch entry points run the float32 fast path: requested
  /// through Options::quantized and not routed to the exact kernel.
  bool quantized() const { return quantized_; }

  /// The input rounding the fast path is exact against: every entry cast to
  /// float32 and back (values beyond float range saturate to +/-inf). The
  /// quantized kernel on `features` is bit-identical to the bit-exact
  /// kernel on QuantizeFeatures(features).
  static linalg::Matrix QuantizeFeatures(const linalg::Matrix& features);
  /// Scalar form of the same rounding.
  static float QuantizeValue(double value);

  /// Upper bound on |quantized - exact| for PredictMeanInto outputs: mean
  /// per-tree leaf range plus double-summation rounding slack; 0 unless
  /// quantized().
  double QuantizationMeanErrorBound() const;
  /// Upper bound on |quantized - exact| for any AccumulateInto output slot
  /// at the given scale and stride (max over the stride residue classes);
  /// 0 unless quantized().
  double QuantizationAccumulateErrorBound(double scale, size_t stride) const;

  /// Strided accumulation: for every row r and every tree t (in ensemble
  /// order), out[r * stride + t % stride] += scale * tree_t(row r). With
  /// stride == num_classes and scale == learning_rate this is exactly the
  /// gradient-boosted score update; out must be pre-filled with the base
  /// scores. `out.size()` must equal features.rows() * stride.
  void AccumulateInto(const linalg::Matrix& features, double scale,
                      size_t stride, std::span<double> out) const;

  /// Mean across trees for every row (random-forest semantics); writes one
  /// prediction per row. `out.size()` must equal features.rows().
  void PredictMeanInto(const linalg::Matrix& features,
                       std::span<double> out) const;

  /// Per-tree leaf responses for one feature row, in ensemble order:
  /// out[t] = tree_t(row). Always the bit-exact walk. This exposes the
  /// quantile-regression-forest view of the ensemble — the spread of these
  /// values is the difficulty signal core::ConformalCalibrator's
  /// kQuantileForest mode scales intervals by. `out.size()` must equal
  /// num_trees(); `row` must have at least max_feature() + 1 entries.
  void PredictRowValuesInto(const double* row, std::span<double> out) const;

 private:
  /// Lanes per quantized row group: one float tile column per lane, so the
  /// compare-and-descend step runs 8 independent rows in lockstep.
  static constexpr size_t kLanes = 8;

  /// Shared tiled traversal; when `mean` is set, stride is 1 and every
  /// output slot is divided by num_trees() after accumulation.
  void Run(const linalg::Matrix& features, double scale, size_t stride,
           bool mean, std::span<double> out) const;

  /// Exact walk over rows [begin, end) of one tile.
  void RunExactTile(const linalg::Matrix& features, size_t begin, size_t end,
                    double scale, size_t stride, std::span<double> out) const;

  /// Quantized width-8 walk over rows [begin, end) of one tile; `tile` is
  /// the caller's scratch transpose buffer (>= max(cols, 1) * kLanes).
  void RunQuantizedTile(const linalg::Matrix& features, size_t begin,
                        size_t end, double scale, size_t stride,
                        std::span<double> out, float* tile) const;

  /// Builds the quantized stepping representation; called by Compile when
  /// the float32 path runs.
  void CompileQuantized(std::span<const RegressionTree> trees);

  double TraverseRow(size_t tree, const double* row) const {
    int32_t node = roots_[tree];
    while (node >= 0) {
      const auto i = static_cast<size_t>(node);
      node = row[feature_[i]] <= threshold_[i] ? left_[i] : right_[i];
    }
    return leaf_value_[static_cast<size_t>(~node)];
  }

  // Structure-of-arrays internal nodes, global ids across all trees.
  std::vector<int32_t> feature_;
  std::vector<double> threshold_;
  std::vector<int32_t> left_;
  std::vector<int32_t> right_;
  // Leaf payloads, indexed by ~child for negative children.
  std::vector<double> leaf_value_;
  // Per-tree root, sign-encoded like a child (a single-leaf tree has a
  // negative root).
  std::vector<int32_t> roots_;
  int32_t max_feature_ = -1;
  // Whether the whole flattened ensemble fits in L1: compact ensembles
  // (e.g. depth-3 boosted trees) are traversed rows-outer so each row's
  // accumulator stays hot, large ones trees-outer so a row tile amortizes
  // pulling each tree through cache. Either order sums per output slot in
  // ascending tree order, so the choice never changes a single bit.
  bool compact_ = false;
  // Whether the batch paths run the float32 representation below
  // (Options::quantized and not compact_).
  bool quantized_ = false;

  // --- Quantized stepping representation (empty unless quantized_) ---
  // Padded per-tree node blocks: internal nodes carry the floor-rounded
  // float32 threshold, leaves are self-loops (feature 0, threshold +inf,
  // both children pointing at themselves) holding the leaf payload, so a
  // fixed number of steps lands every lane on its exit leaf.
  std::vector<int32_t> qfeature_;
  std::vector<float> qthreshold_;
  std::vector<int32_t> qleft_;
  std::vector<int32_t> qright_;
  std::vector<double> qvalue_;
  // Per-tree block offsets into the arrays above (num_trees + 1 entries)
  // and per-tree step counts.
  std::vector<size_t> qnode_begin_;
  std::vector<int32_t> qdepth_;

  // --- Error-bound bookkeeping (per tree, empty unless quantized_) ---
  // leaf range (max - min) and max |leaf| per tree: the ingredients of the
  // documented quantization bounds.
  std::vector<double> tree_leaf_range_;
  std::vector<double> tree_leaf_absmax_;
};

}  // namespace bbv::ml

#endif  // BBV_ML_FOREST_KERNEL_H_
