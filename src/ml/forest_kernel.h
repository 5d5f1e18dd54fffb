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
/// Traversal is tiled: tiles of 64 rows fan out over common::ParallelFor,
/// and each tile writes only its own output slots, adding every slot's tree
/// responses in ascending tree order. Results are therefore bit-identical
/// to the legacy one-row-at-a-time node walk at every BBV_THREADS setting
/// (determinism contract, see README "Concurrency model"). Within a tile
/// the walk depends on the ensemble's size:
///
///  - a compact ensemble (flattened layout <= 32 KB, e.g. the depth-3
///    boosted trees) is L1-resident, so rows go outer and each row walks
///    every tree node by node while its output slots stay hot;
///  - a larger ensemble walks groups of 8 rows in lockstep: every lane
///    takes exactly depth(tree) steps, and a lane that has reached a leaf
///    (a negative id) stays there. The 8 independent walks hide each
///    other's memory latency, and the fixed step count leaves no loop
///    exit to mispredict (the predication-plus-vectorization scheme of
///    Asadi, Lin & de Vries, "Runtime Optimizations for Tree-Based Machine
///    Learning Models", IEEE TKDE 2014). A group costs about what three
///    rows cost node by node, so groups of 1 or 2 rows (a one-row call, a
///    tile's tail) take the node-by-node walk instead.
///
/// Both walks take the same branch-free step (Child): they compare the
/// same doubles against the same thresholds and send NaN right, so they
/// land on the same leaf for every row.
class ForestKernel {
 public:
  /// Empty kernel; every inference entry point BBV_CHECKs against it.
  ForestKernel() = default;

  /// Compiles the flattened representation from fitted trees (every tree
  /// must have at least one node, and every child index must exceed its
  /// parent's, as Fit and Load guarantee). The kernel copies what it needs;
  /// the source trees can be discarded or mutated afterwards.
  static ForestKernel Compile(std::span<const RegressionTree> trees);

  bool empty() const { return roots_.empty(); }
  size_t num_trees() const { return roots_.size(); }
  size_t num_internal_nodes() const { return feature_.size(); }
  size_t num_leaves() const { return leaf_value_.size(); }
  /// Largest feature index any split reads, or -1 for all-leaf ensembles.
  /// Batch entry points check it against the input's column count, so a
  /// mis-shaped matrix fails fast instead of reading out of bounds.
  int32_t max_feature() const { return max_feature_; }
  /// Bytes of the flattened layout; at most 32 KB makes the ensemble
  /// compact (rows-outer walk), more takes the lockstep walk.
  size_t footprint_bytes() const;

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
  /// out[t] = tree_t(row), walked node by node. This exposes the
  /// quantile-regression-forest view of the ensemble — the spread of these
  /// values is the difficulty signal core::ConformalCalibrator's
  /// kQuantileForest mode scales intervals by. `out.size()` must equal
  /// num_trees(); `row` must have at least max_feature() + 1 entries.
  void PredictRowValuesInto(const double* row, std::span<double> out) const;

 private:
  /// Shared tiled traversal; when `mean` is set, stride is 1 and every
  /// output slot is divided by num_trees() after accumulation.
  void Run(const linalg::Matrix& features, double scale, size_t stride,
           bool mean, std::span<double> out) const;

  /// Walks rows [begin, end) of one tile, adding into their output slots.
  void RunTile(const linalg::Matrix& features, size_t begin, size_t end,
               double scale, size_t stride, std::span<double> out) const;

  /// Lockstep walk of `width` (<= 8) rows starting at row `first`.
  void RunLockstep(const linalg::Matrix& features, size_t first,
                   size_t width, double scale, size_t stride,
                   std::span<double> out) const;

  /// The child of internal node `i` that `row` descends to (right for
  /// NaN). Masks rather than ?: keep the step free of branches: GCC
  /// compiles the ?: select into a data-dependent jump, which mispredicts.
  int32_t Child(size_t i, const double* row) const {
    const int32_t left_mask =
        -static_cast<int32_t>(row[feature_[i]] <= threshold_[i]);
    return (left_[i] & left_mask) | (right_[i] & ~left_mask);
  }

  double TraverseRow(size_t tree, const double* row) const {
    int32_t node = roots_[tree];
    while (node >= 0) node = Child(static_cast<size_t>(node), row);
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
  // Per-tree step count of the lockstep walk: internal nodes on the
  // tree's longest root-to-leaf path (0 for a single-leaf tree).
  std::vector<int32_t> depth_;
  int32_t max_feature_ = -1;
};

}  // namespace bbv::ml

#endif  // BBV_ML_FOREST_KERNEL_H_
