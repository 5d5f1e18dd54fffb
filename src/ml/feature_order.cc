#include "ml/feature_order.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/telemetry.h"

namespace bbv::ml {

common::Result<FeatureOrder> FeatureOrder::Build(
    const linalg::Matrix& features, const std::vector<double>& targets) {
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0);
  return Build(features, targets, rows);
}

common::Result<FeatureOrder> FeatureOrder::Build(
    const linalg::Matrix& features, const std::vector<double>& targets,
    std::span<const size_t> rows) {
  const common::telemetry::TraceSpan span("feature_order.build");
  if (features.rows() != targets.size()) {
    return common::Status::InvalidArgument(
        "features and targets disagree on the number of rows");
  }
  if (features.rows() > std::numeric_limits<uint32_t>::max()) {
    return common::Status::InvalidArgument(
        "too many rows for a presorted split search");
  }
  for (size_t row : rows) {
    if (row >= features.rows()) {
      return common::Status::InvalidArgument("row id out of range");
    }
    if (!std::isfinite(targets[row])) {
      return common::Status::InvalidArgument("non-finite training target");
    }
  }
  FeatureOrder order;
  order.size_ = rows.size();
  order.num_features_ = features.cols();
  order.ids_.resize(order.num_features_ * order.size_);
  struct Entry {
    double value;
    double target;
    uint32_t row;
  };
  std::vector<Entry> entries(rows.size());
  for (size_t f = 0; f < order.num_features_; ++f) {
    for (size_t i = 0; i < rows.size(); ++i) {
      const double value = features.At(rows[i], f);
      // NaN breaks the strict weak ordering the sort relies on.
      if (!std::isfinite(value)) {
        return common::Status::InvalidArgument("non-finite feature value");
      }
      entries[i] = {value, targets[rows[i]], static_cast<uint32_t>(rows[i])};
    }
    // Equal (value, target) entries are interchangeable to the search, so
    // the unstable sort yields the same scan as any other (value, target)
    // order.
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.value < b.value ||
                       (a.value == b.value && a.target < b.target);
              });
    uint32_t* ids = order.ids_.data() + f * order.size_;
    for (size_t i = 0; i < entries.size(); ++i) ids[i] = entries[i].row;
  }
  return order;
}

std::vector<uint32_t> FeatureOrder::Expand(
    std::span<const size_t> rows) const {
  std::vector<uint32_t> counts(size_, 0);
  for (size_t row : rows) ++counts[row];
  // A bootstrap count is a coin flip among 0..3 that a loop over it would
  // mispredict, so every entry stores kUnrolled copies unconditionally and
  // advances by its count; the slack absorbs the overrun past the last one.
  constexpr size_t kUnrolled = 4;
  const size_t total = num_features_ * rows.size();
  std::vector<uint32_t> expanded(total + kUnrolled);
  uint32_t* out = expanded.data();
  for (size_t f = 0; f < num_features_; ++f) {
    for (uint32_t row : Rows(f)) {
      const uint32_t count = counts[row];
      std::fill_n(out, kUnrolled, row);
      if (count > kUnrolled) std::fill_n(out, count, row);
      out += count;
    }
  }
  expanded.resize(total);
  return expanded;
}

}  // namespace bbv::ml
