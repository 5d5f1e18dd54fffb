#ifndef BBV_ML_FEATURE_ORDER_H_
#define BBV_ML_FEATURE_ORDER_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace bbv::ml {

/// Presorted feature columns for the exact CART split search (SLIQ-style
/// presorting, Mehta et al., EDBT 1996): for every feature, the ids of a row
/// multiset ordered ascending by (feature value, target). A tree turns it
/// into per-node sorted segments once per Fit and keeps them sorted by
/// stable partitioning at each split, so no node ever sorts.
///
/// The order depends on the targets as well as the features (ties in value
/// are broken by target, so a node's segment is in the order sorting its
/// (value, target) pairs gives), so it can be shared only by fits against
/// the same targets: every tree of one random forest, not the rounds of a
/// boosted ensemble. Read-only once built; safe to share across tree
/// workers.
class FeatureOrder {
 public:
  /// Empty order (no features); Build replaces it wholesale.
  FeatureOrder() = default;

  /// Orders every row of `features` once per feature. InvalidArgument on a
  /// NaN or +-inf feature value or target (they break the ordering), on a
  /// row-count mismatch, or on more rows than uint32 ids can name.
  static common::Result<FeatureOrder> Build(const linalg::Matrix& features,
                                            const std::vector<double>& targets);

  /// Orders the row multiset `rows` (ids may repeat) once per feature; only
  /// the values and targets at those rows are read and checked.
  static common::Result<FeatureOrder> Build(const linalg::Matrix& features,
                                            const std::vector<double>& targets,
                                            std::span<const size_t> rows);

  size_t num_features() const { return num_features_; }
  /// Ids per feature (the size of the ordered row multiset).
  size_t size() const { return size_; }

  /// The order of the row multiset `rows`, feature-major like the storage
  /// of a Build over `rows`: each id appears as often as it occurs in
  /// `rows`, in place of its single entry here. O(d * (n + m)), no sort.
  /// Requires an order over every matrix row once (the all-rows Build) and
  /// ids in range.
  std::vector<uint32_t> Expand(std::span<const size_t> rows) const;

  /// Moves out the feature-major id storage (feature f at
  /// [f * size(), (f + 1) * size())) for a caller that partitions it.
  std::vector<uint32_t> TakeIds() && { return std::move(ids_); }

 private:
  /// The ids of `feature`, ascending by (value, target).
  std::span<const uint32_t> Rows(size_t feature) const {
    return {ids_.data() + feature * size_, size_};
  }

  size_t size_ = 0;
  size_t num_features_ = 0;
  std::vector<uint32_t> ids_;
};

}  // namespace bbv::ml

#endif  // BBV_ML_FEATURE_ORDER_H_
