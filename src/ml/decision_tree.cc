#include "ml/decision_tree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "ml/feature_binning.h"
#include "ml/feature_order.h"

namespace bbv::ml {

namespace {

/// Candidate features for a split: a random subset of size
/// ceil(feature_fraction * d), or all features when the fraction is 1.
std::vector<size_t> CandidateFeatures(size_t num_features, double fraction,
                                      common::Rng& rng) {
  if (fraction >= 1.0) {
    std::vector<size_t> all(num_features);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(fraction * static_cast<double>(num_features))));
  return rng.SampleWithoutReplacement(num_features, k);
}

struct SplitCandidate {
  bool found = false;
  size_t feature = 0;
  double threshold = 0.0;
  double gain = 0.0;
};

/// Gain pass of the exact regression scan: the variance reduction of each
/// cut (a cut after segment position i leaves i + 1 rows left) of a node
/// of `count` rows, from the prefix sums at every position. Row counts are
/// exact in a double, so converting the uint32 cut (not a size_t) gives
/// the integers' bits and, with the restrict-qualified buffers, lets the
/// divisions vectorize.
void CutGains(const double* __restrict prefix_sum,
              const double* __restrict prefix_sum_squares,
              const uint32_t* __restrict cuts, size_t num_cuts, size_t count,
              double sum, double sum_squares, double node_sse,
              double* __restrict gains) {
  const double n = static_cast<double>(count);
  for (size_t j = 0; j < num_cuts; ++j) {
    const uint32_t i = cuts[j];
    const double nl = static_cast<double>(i) + 1.0;
    const double nr = n - nl;
    const double left_sum = prefix_sum[i];
    const double left_sum_squares = prefix_sum_squares[i];
    const double right_sum = sum - left_sum;
    const double right_sum_squares = sum_squares - left_sum_squares;
    const double left_sse = left_sum_squares - left_sum * left_sum / nl;
    const double right_sse = right_sum_squares - right_sum * right_sum / nr;
    gains[j] = node_sse - left_sse - right_sse;
  }
}

}  // namespace

/// Exact-search working set of one Fit, local to it and never kept in the
/// tree: for every feature, the fit's row multiset in (value, target)
/// order, feature f at [f * size, (f + 1) * size). Grow keeps the ids of
/// node rows[begin, end) at [begin, end) of every feature, so a node scans
/// its sorted segments and never sorts. A segment holds the node's
/// (value, target) pairs in exactly the order sorting them would give
/// (equal pairs are interchangeable), so the prefix sums, tie skips and
/// thresholds of the scan are bit-identical to a per-node sort's.
class SortedSegments {
 public:
  SortedSegments(std::vector<uint32_t> ids, size_t size,
                 size_t num_matrix_rows)
      : size_(size),
        ids_(std::move(ids)),
        goes_left_(num_matrix_rows),
        scratch_(size),
        prefix_sum_(size),
        prefix_sum_squares_(size),
        cuts_(size),
        gains_(size) {}

  /// The ids of `feature` from node position `begin` on.
  const uint32_t* Segment(size_t feature, size_t begin) const {
    return ids_.data() + feature * size_ + begin;
  }

  /// Exact regression split search of `feature` over the node at segment
  /// positions [begin, begin + count), whose targets sum to `sum` and
  /// `sum_squares` (squared error `node_sse`). A cut after position i lies
  /// between two distinct values and leaves at least
  /// max(min_samples_leaf, 1) rows on either side. Raises `best` to the
  /// segment's highest-gain cut if it beats best.gain, the earliest one on
  /// a tie, as a per-position scan comparing as it goes would.
  ///
  /// Whether a position is a value boundary is a coin flip the branch
  /// predictor loses, so the first two of the three passes have no
  /// data-dependent branch: a sweep that accumulates the prefix sums in
  /// segment order (the bits a per-position scan has) and lists the
  /// eligible cuts, a gain pass over that list, then the first strict
  /// maximum.
  void BestRegressionSplit(const linalg::Matrix& features,
                           const std::vector<double>& targets, size_t feature,
                           size_t begin, size_t count, double sum,
                           double sum_squares, double node_sse,
                           size_t min_samples_leaf, SplitCandidate& best) {
    const uint32_t* ids = Segment(feature, begin);
    double value = features.At(ids[0], feature);
    if (!(value < features.At(ids[count - 1], feature))) return;  // constant
    // A cut after position i leaves i + 1 rows left and count - i - 1
    // right; Grow only scans nodes of at least 2 * min_samples_leaf rows.
    const size_t lo = std::max<size_t>(min_samples_leaf, 1) - 1;
    const size_t hi = count - min_samples_leaf;
    double left_sum = 0.0;
    double left_sum_squares = 0.0;
    size_t num_cuts = 0;
    for (size_t i = 0; i + 1 < count; ++i) {
      const double target = targets[ids[i]];
      left_sum += target;
      left_sum_squares += target * target;
      prefix_sum_[i] = left_sum;
      prefix_sum_squares_[i] = left_sum_squares;
      const double current = value;
      value = features.At(ids[i + 1], feature);
      cuts_[num_cuts] = static_cast<uint32_t>(i);
      num_cuts += static_cast<size_t>((current != value) & (i >= lo) &
                                      (i < hi));
    }
    CutGains(prefix_sum_.data(), prefix_sum_squares_.data(), cuts_.data(),
             num_cuts, count, sum, sum_squares, node_sse, gains_.data());
    size_t winner = num_cuts;
    double top = best.gain;
    for (size_t j = 0; j < num_cuts; ++j) {
      if (gains_[j] > top) {
        top = gains_[j];
        winner = j;
      }
    }
    if (winner == num_cuts) return;
    const size_t i = cuts_[winner];
    best.found = true;
    best.feature = feature;
    best.threshold = 0.5 * (features.At(ids[i], feature) +
                            features.At(ids[i + 1], feature));
    best.gain = top;
  }

  /// After rows[begin, end) was partitioned at `split`, stably partitions
  /// [begin, end) of every feature the same way, so both children's
  /// segments stay sorted. One goes-left byte per row, set once per split.
  void Partition(const std::vector<size_t>& rows, size_t begin, size_t split,
                 size_t end) {
    for (size_t i = begin; i < end; ++i) {
      goes_left_[rows[i]] = static_cast<uint8_t>(i < split);
    }
    for (size_t offset = 0; offset < ids_.size(); offset += size_) {
      uint32_t* ids = ids_.data() + offset;
      size_t left = begin;
      size_t right = 0;
      for (size_t i = begin; i < end; ++i) {
        // Branch-free: the side is a coin flip the predictor cannot learn.
        const uint32_t row = ids[i];
        const size_t goes_left = goes_left_[row];
        ids[left] = row;
        scratch_[right] = row;
        left += goes_left;
        right += 1 - goes_left;
      }
      std::copy_n(scratch_.data(), right, ids + left);
    }
  }

 private:
  size_t size_;
  std::vector<uint32_t> ids_;
  std::vector<uint8_t> goes_left_;
  std::vector<uint32_t> scratch_;
  /// Scan buffers of BestRegressionSplit.
  std::vector<double> prefix_sum_;
  std::vector<double> prefix_sum_squares_;
  std::vector<uint32_t> cuts_;
  std::vector<double> gains_;
};

namespace {

/// Histogram split search for one feature of the node rows[begin, end):
/// accumulates per-bin (count, target sum) in a single unsorted pass over
/// the node's rows and scans the <= 255 candidate cuts. Gain uses the SSE
/// decomposition  node_sse - l_sse - r_sse = S_l^2/n_l + S_r^2/n_r - S^2/n,
/// which needs no per-bin squared sums. The winning threshold is the raw
/// cut value, so the later value-space partition splits rows exactly where
/// the histogram counted them (codes are lower-bound indices:
/// code(v) <= b  <=>  v <= cut[b]).
void BestBinnedSplit(const FeatureBinning& binning,
                     const std::vector<double>& targets,
                     const std::vector<size_t>& rows, size_t begin, size_t end,
                     size_t feature, double sum, size_t min_samples_leaf,
                     SplitCandidate& best) {
  const size_t num_cuts = binning.NumCuts(feature);
  if (num_cuts == 0) return;  // globally constant column
  const uint8_t* codes = binning.Codes(feature);
  std::array<double, FeatureBinning::kMaxCuts + 1> bin_sum;
  std::array<size_t, FeatureBinning::kMaxCuts + 1> bin_count;
  std::fill_n(bin_sum.begin(), num_cuts + 1, 0.0);
  std::fill_n(bin_count.begin(), num_cuts + 1, size_t{0});
  for (size_t i = begin; i < end; ++i) {
    const size_t row = rows[i];
    const size_t code = codes[row];
    bin_count[code] += 1;
    bin_sum[code] += targets[row];
  }
  const size_t count = end - begin;
  const double n = static_cast<double>(count);
  double left_sum = 0.0;
  size_t left_count = 0;
  for (size_t b = 0; b < num_cuts; ++b) {
    left_count += bin_count[b];
    left_sum += bin_sum[b];
    if (left_count == count) break;  // remaining bins are empty on this node
    if (left_count == 0 || left_count < min_samples_leaf ||
        count - left_count < min_samples_leaf) {
      continue;
    }
    const double nl = static_cast<double>(left_count);
    const double nr = static_cast<double>(count - left_count);
    const double right_sum = sum - left_sum;
    const double gain = left_sum * left_sum / nl +
                        right_sum * right_sum / nr - sum * sum / n;
    if (gain > best.gain) {
      best.found = true;
      best.feature = feature;
      best.threshold = binning.CutValue(feature, b);
      best.gain = gain;
    }
  }
}

}  // namespace

common::Status CheckFitOptions(const TreeOptions& tree, double row_fraction,
                               double sample_rows) {
  const auto valid = [](double fraction) {
    return std::isfinite(fraction) && fraction >= 0.0;
  };
  if (!valid(tree.feature_fraction)) {
    return common::Status::InvalidArgument(
        "feature_fraction must be finite and non-negative");
  }
  if (!valid(row_fraction)) {
    return common::Status::InvalidArgument(
        "row sample fraction must be finite and non-negative");
  }
  // Below 2^32, so its floor is a valid uint32 count.
  constexpr double kIdLimit =
      static_cast<double>(std::numeric_limits<uint32_t>::max()) + 1.0;
  if (!(sample_rows < kIdLimit)) {
    return common::Status::InvalidArgument(
        "sample size exceeds the uint32 row ids of the split search");
  }
  return common::Status::OK();
}

// ---------------------------------------------------------------------------
// RegressionTree
// ---------------------------------------------------------------------------

common::Status RegressionTree::Fit(const linalg::Matrix& features,
                                   const std::vector<double>& targets,
                                   const std::vector<size_t>& rows,
                                   common::Rng& rng,
                                   const FeatureBinning* binning,
                                   const FeatureOrder* order) {
  if (features.rows() != targets.size()) {
    return common::Status::InvalidArgument(
        "features and targets disagree on the number of rows");
  }
  if (rows.empty()) {
    return common::Status::InvalidArgument("cannot fit a tree on zero rows");
  }
  BBV_RETURN_NOT_OK(
      CheckFitOptions(options_, 1.0, static_cast<double>(rows.size())));
  for (size_t row : rows) {
    if (row >= features.rows()) {
      return common::Status::InvalidArgument("row id out of range");
    }
    if (!std::isfinite(targets[row])) {
      return common::Status::InvalidArgument("non-finite training target");
    }
  }
  FeatureBinning local_binning;
  std::optional<SortedSegments> segments;
  if (options_.binned_split_search) {
    if (binning == nullptr) {
      BBV_ASSIGN_OR_RETURN(local_binning, FeatureBinning::Build(features));
      binning = &local_binning;
    }
    if (binning->num_rows() != features.rows() ||
        binning->num_features() != features.cols()) {
      return common::Status::InvalidArgument(
          "feature binning does not match the training matrix shape");
    }
  } else if (order != nullptr) {
    if (order->size() != features.rows() ||
        order->num_features() != features.cols()) {
      return common::Status::InvalidArgument(
          "feature order does not match the training matrix shape");
    }
    segments.emplace(order->Expand(rows), rows.size(), features.rows());
  } else {
    BBV_ASSIGN_OR_RETURN(FeatureOrder local_order,
                         FeatureOrder::Build(features, targets, rows));
    segments.emplace(std::move(local_order).TakeIds(), rows.size(),
                     features.rows());
  }
  binning_ = options_.binned_split_search ? binning : nullptr;
  segments_ = segments ? &*segments : nullptr;
  nodes_.clear();
  std::vector<size_t> mutable_rows = rows;
  Grow(features, targets, mutable_rows, 0, mutable_rows.size(), 0, rng);
  binning_ = nullptr;
  segments_ = nullptr;
  return common::Status::OK();
}

common::Status RegressionTree::Fit(const linalg::Matrix& features,
                                   const std::vector<double>& targets,
                                   common::Rng& rng,
                                   const FeatureBinning* binning) {
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0);
  return Fit(features, targets, rows, rng, binning);
}

int32_t RegressionTree::Grow(const linalg::Matrix& features,
                             const std::vector<double>& targets,
                             std::vector<size_t>& rows, size_t begin,
                             size_t end, int depth, common::Rng& rng) {
  const size_t count = end - begin;
  double sum = 0.0;
  double sum_squares = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double t = targets[rows[i]];
    sum += t;
    sum_squares += t * t;
  }
  const double n = static_cast<double>(count);
  const double mean = sum / n;
  const double node_sse = sum_squares - sum * sum / n;

  const int32_t node_id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].value = mean;

  if (depth >= options_.max_depth ||
      count < 2 * options_.min_samples_leaf || node_sse <= 0.0) {
    return node_id;
  }

  SplitCandidate best;
  for (size_t feature :
       CandidateFeatures(features.cols(), options_.feature_fraction, rng)) {
    if (binning_ != nullptr) {
      BestBinnedSplit(*binning_, targets, rows, begin, end, feature, sum,
                      options_.min_samples_leaf, best);
    } else {
      segments_->BestRegressionSplit(features, targets, feature, begin, count,
                                     sum, sum_squares, node_sse,
                                     options_.min_samples_leaf, best);
    }
  }

  if (!best.found || best.gain < options_.min_impurity_decrease) {
    return node_id;
  }

  // Partition rows[begin, end) around the chosen threshold.
  auto middle = std::partition(
      rows.begin() + static_cast<ptrdiff_t>(begin),
      rows.begin() + static_cast<ptrdiff_t>(end), [&](size_t row) {
        return features.At(row, best.feature) <= best.threshold;
      });
  const size_t split =
      static_cast<size_t>(middle - rows.begin());
  if (split == begin || split == end) {
    // The midpoint of two adjacent feature values can round onto the larger
    // value, sending every row to one side. Such a split is unusable — the
    // empty child's mean would be NaN — so keep this node as a leaf.
    return node_id;
  }
  // Children at max_depth are leaves and never scan their segments.
  if (segments_ != nullptr && depth + 1 < options_.max_depth) {
    segments_->Partition(rows, begin, split, end);
  }

  nodes_[node_id].feature = static_cast<int32_t>(best.feature);
  nodes_[node_id].threshold = best.threshold;
  const int32_t left =
      Grow(features, targets, rows, begin, split, depth + 1, rng);
  nodes_[node_id].left = left;
  const int32_t right =
      Grow(features, targets, rows, split, end, depth + 1, rng);
  nodes_[node_id].right = right;
  return node_id;
}

double RegressionTree::PredictRow(const double* row) const {
  BBV_CHECK(!nodes_.empty()) << "Predict before Fit";
  int32_t node = 0;
  while (nodes_[static_cast<size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<size_t>(node)];
    node = row[n.feature] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<size_t>(node)].value;
}

std::vector<double> RegressionTree::Predict(
    const linalg::Matrix& features) const {
  std::vector<double> result(features.rows());
  PredictInto(features, result);
  return result;
}

void RegressionTree::PredictInto(const linalg::Matrix& features,
                                 std::span<double> out) const {
  BBV_CHECK(!nodes_.empty()) << "Predict before Fit";
  BBV_CHECK_EQ(out.size(), features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    // This loop IS the reference scalar walk the batch API falls back to.
    // bbv-lint: allow(batch-api) production batch paths ride ForestKernel
    out[i] = PredictRow(features.RowData(i));
  }
}

// ---------------------------------------------------------------------------
// DecisionTreeClassifier
// ---------------------------------------------------------------------------

common::Status DecisionTreeClassifier::Fit(const linalg::Matrix& features,
                                           const std::vector<int>& labels,
                                           int num_classes, common::Rng& rng) {
  if (features.rows() != labels.size()) {
    return common::Status::InvalidArgument(
        "features and labels disagree on the number of rows");
  }
  if (features.rows() == 0) {
    return common::Status::InvalidArgument("cannot fit on an empty matrix");
  }
  if (num_classes < 2) {
    return common::Status::InvalidArgument("need at least two classes");
  }
  BBV_RETURN_NOT_OK(CheckFitOptions(options_, 1.0,
                                    static_cast<double>(features.rows())));
  // Class counts are exact integers, so the order inside a (value, label)
  // tie cannot change them: the regression presort serves as is.
  const std::vector<double> label_keys(labels.begin(), labels.end());
  BBV_ASSIGN_OR_RETURN(FeatureOrder order,
                       FeatureOrder::Build(features, label_keys));
  SortedSegments segments(std::move(order).TakeIds(), features.rows(),
                          features.rows());
  num_classes_ = num_classes;
  nodes_.clear();
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0);
  segments_ = &segments;
  Grow(features, labels, rows, 0, rows.size(), 0, rng);
  segments_ = nullptr;
  return common::Status::OK();
}

int32_t DecisionTreeClassifier::Grow(const linalg::Matrix& features,
                                     const std::vector<int>& labels,
                                     std::vector<size_t>& rows, size_t begin,
                                     size_t end, int depth, common::Rng& rng) {
  const size_t count = end - begin;
  const auto m = static_cast<size_t>(num_classes_);
  std::vector<double> class_counts(m, 0.0);
  for (size_t i = begin; i < end; ++i) {
    ++class_counts[static_cast<size_t>(labels[rows[i]])];
  }
  const double n = static_cast<double>(count);
  const int32_t node_id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].class_probabilities.resize(m);
  for (size_t k = 0; k < m; ++k) {
    nodes_[node_id].class_probabilities[k] = class_counts[k] / n;
  }
  double gini_sum = 0.0;
  for (double c : class_counts) gini_sum += c * c;
  // Weighted Gini impurity: n * (1 - sum p^2) = n - sum(c^2)/n.
  const double node_impurity = n - gini_sum / n;

  if (depth >= options_.max_depth ||
      count < 2 * options_.min_samples_leaf || node_impurity <= 0.0) {
    return node_id;
  }

  SplitCandidate best;
  std::vector<double> left_counts(m);
  for (size_t feature :
       CandidateFeatures(features.cols(), options_.feature_fraction, rng)) {
    const uint32_t* ids = segments_->Segment(feature, begin);
    double value = features.At(ids[0], feature);
    if (!(value < features.At(ids[count - 1], feature))) continue;  // constant
    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    double left_gini_sum = 0.0;  // sum of squared left counts
    for (size_t i = 0; i + 1 < count; ++i) {
      double& c = left_counts[static_cast<size_t>(labels[ids[i]])];
      left_gini_sum += 2.0 * c + 1.0;  // (c+1)^2 - c^2
      c += 1.0;
      const double current = value;
      value = features.At(ids[i + 1], feature);
      if (current == value) continue;
      const size_t left_count = i + 1;
      const size_t right_count = count - left_count;
      if (left_count < options_.min_samples_leaf ||
          right_count < options_.min_samples_leaf) {
        continue;
      }
      const double nl = static_cast<double>(left_count);
      const double nr = static_cast<double>(right_count);
      double right_gini_sum = 0.0;
      for (size_t k = 0; k < m; ++k) {
        const double right = class_counts[k] - left_counts[k];
        right_gini_sum += right * right;
      }
      const double left_impurity = nl - left_gini_sum / nl;
      const double right_impurity = nr - right_gini_sum / nr;
      const double gain = node_impurity - left_impurity - right_impurity;
      if (gain > best.gain) {
        best.found = true;
        best.feature = feature;
        best.threshold = 0.5 * (current + value);
        best.gain = gain;
      }
    }
  }

  if (!best.found || best.gain < options_.min_impurity_decrease) {
    return node_id;
  }

  auto middle = std::partition(
      rows.begin() + static_cast<ptrdiff_t>(begin),
      rows.begin() + static_cast<ptrdiff_t>(end), [&](size_t row) {
        return features.At(row, best.feature) <= best.threshold;
      });
  const size_t split = static_cast<size_t>(middle - rows.begin());
  if (split == begin || split == end) {
    // A midpoint rounded onto the larger value (see RegressionTree::Grow):
    // the empty child's class frequencies would be NaN, so stay a leaf.
    return node_id;
  }
  if (depth + 1 < options_.max_depth) {
    segments_->Partition(rows, begin, split, end);
  }

  nodes_[node_id].feature = static_cast<int32_t>(best.feature);
  nodes_[node_id].threshold = best.threshold;
  const int32_t left =
      Grow(features, labels, rows, begin, split, depth + 1, rng);
  nodes_[node_id].left = left;
  const int32_t right =
      Grow(features, labels, rows, split, end, depth + 1, rng);
  nodes_[node_id].right = right;
  return node_id;
}

linalg::Matrix DecisionTreeClassifier::PredictProba(
    const linalg::Matrix& features) const {
  BBV_CHECK(!nodes_.empty()) << "PredictProba before Fit";
  const auto m = static_cast<size_t>(num_classes_);
  linalg::Matrix result(features.rows(), m);
  for (size_t i = 0; i < features.rows(); ++i) {
    const double* row = features.RowData(i);
    int32_t node = 0;
    while (nodes_[static_cast<size_t>(node)].feature >= 0) {
      const Node& n = nodes_[static_cast<size_t>(node)];
      node = row[n.feature] <= n.threshold ? n.left : n.right;
    }
    const auto& probabilities =
        nodes_[static_cast<size_t>(node)].class_probabilities;
    std::copy(probabilities.begin(), probabilities.end(), result.RowData(i));
  }
  return result;
}

}  // namespace bbv::ml

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace bbv::ml {

namespace {

/// Grow writes nodes in preorder, so every child index of the internal node
/// at `index` lies strictly after it and inside the array. Loading only
/// trees of that shape rules out out-of-range children and cycles (a
/// self-loop or back-edge would hang every root-to-leaf walk).
bool ValidChildren(int32_t left, int32_t right, size_t index, size_t count) {
  const auto in_order = [&](int32_t child) {
    return child >= 0 && static_cast<size_t>(child) > index &&
           static_cast<size_t>(child) < count;
  };
  return in_order(left) && in_order(right);
}

}  // namespace

void RegressionTree::Save(common::BinaryWriter& writer) const {
  std::vector<int32_t> features;
  std::vector<int32_t> lefts;
  std::vector<int32_t> rights;
  std::vector<double> thresholds;
  std::vector<double> values;
  features.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    features.push_back(node.feature);
    lefts.push_back(node.left);
    rights.push_back(node.right);
    thresholds.push_back(node.threshold);
    values.push_back(node.value);
  }
  writer.WriteInt32Vector(features);
  writer.WriteInt32Vector(lefts);
  writer.WriteInt32Vector(rights);
  writer.WriteDoubleVector(thresholds);
  writer.WriteDoubleVector(values);
}

common::Result<RegressionTree> RegressionTree::Load(
    common::BinaryReader& reader) {
  BBV_ASSIGN_OR_RETURN(std::vector<int32_t> features,
                       reader.ReadInt32Vector());
  BBV_ASSIGN_OR_RETURN(std::vector<int32_t> lefts, reader.ReadInt32Vector());
  BBV_ASSIGN_OR_RETURN(std::vector<int32_t> rights, reader.ReadInt32Vector());
  BBV_ASSIGN_OR_RETURN(std::vector<double> thresholds,
                       reader.ReadDoubleVector());
  BBV_ASSIGN_OR_RETURN(std::vector<double> values, reader.ReadDoubleVector());
  const size_t count = features.size();
  if (lefts.size() != count || rights.size() != count ||
      thresholds.size() != count || values.size() != count || count == 0) {
    return common::Status::InvalidArgument("inconsistent tree arrays");
  }
  RegressionTree tree;
  tree.nodes_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    Node& node = tree.nodes_[i];
    node.feature = features[i];
    node.left = lefts[i];
    node.right = rights[i];
    node.threshold = thresholds[i];
    node.value = values[i];
    if (node.feature >= 0 && !ValidChildren(node.left, node.right, i, count)) {
      return common::Status::InvalidArgument("corrupt tree child index");
    }
  }
  return tree;
}

}  // namespace bbv::ml

// ---------------------------------------------------------------------------
// DecisionTreeClassifier serialization
// ---------------------------------------------------------------------------

namespace bbv::ml {

namespace {
constexpr char kCartMagic[] = "BBVCT";
constexpr uint32_t kCartVersion = 1;
}  // namespace

common::Status DecisionTreeClassifier::Save(
    common::BinaryWriter& writer) const {
  if (nodes_.empty()) {
    return common::Status::FailedPrecondition("Save before Fit");
  }
  writer.WriteMagic(kCartMagic, kCartVersion);
  writer.WriteInt32(num_classes_);
  writer.WriteUint64(nodes_.size());
  for (const Node& node : nodes_) {
    writer.WriteInt32(node.feature);
    writer.WriteDouble(node.threshold);
    writer.WriteInt32(node.left);
    writer.WriteInt32(node.right);
    writer.WriteDoubleVector(node.class_probabilities);
  }
  return common::Status::OK();
}

common::Status DecisionTreeClassifier::Save(std::ostream& out) const {
  return common::SaveToStream(
      out, [&](common::BinaryWriter& writer) { return Save(writer); });
}

common::Result<DecisionTreeClassifier> DecisionTreeClassifier::Load(
    std::istream& in) {
  return common::LoadFromStream(
      in, [](common::BinaryReader& reader) { return Load(reader); });
}

common::Result<DecisionTreeClassifier> DecisionTreeClassifier::Load(
    common::BinaryReader& reader) {
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kCartMagic, kCartVersion));
  DecisionTreeClassifier tree;
  BBV_ASSIGN_OR_RETURN(tree.num_classes_, reader.ReadInt32());
  BBV_ASSIGN_OR_RETURN(uint64_t count, reader.ReadUint64());
  // A node takes at least 28 bytes (feature, threshold, two children and
  // a payload length), so a count the bytes left cannot hold is corrupt.
  if (tree.num_classes_ < 2 || count == 0 || count > reader.remaining() / 28) {
    return common::Status::InvalidArgument("corrupt tree header");
  }
  tree.nodes_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    Node& node = tree.nodes_[i];
    BBV_ASSIGN_OR_RETURN(node.feature, reader.ReadInt32());
    BBV_ASSIGN_OR_RETURN(node.threshold, reader.ReadDouble());
    BBV_ASSIGN_OR_RETURN(node.left, reader.ReadInt32());
    BBV_ASSIGN_OR_RETURN(node.right, reader.ReadInt32());
    BBV_ASSIGN_OR_RETURN(node.class_probabilities,
                         reader.ReadDoubleVector());
    if (node.class_probabilities.size() !=
        static_cast<size_t>(tree.num_classes_)) {
      return common::Status::InvalidArgument("corrupt leaf payload");
    }
    if (node.feature >= 0 && !ValidChildren(node.left, node.right, i, count)) {
      return common::Status::InvalidArgument("corrupt tree child index");
    }
  }
  return tree;
}

}  // namespace bbv::ml
