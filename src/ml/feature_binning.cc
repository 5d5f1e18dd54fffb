#include "ml/feature_binning.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/telemetry.h"

namespace bbv::ml {

common::Result<FeatureBinning> FeatureBinning::Build(
    const linalg::Matrix& features) {
  const common::telemetry::TraceSpan span("feature_binning.build");
  common::telemetry::IncrementCounter("feature_binning.build.calls");
  FeatureBinning binning;
  const size_t rows = features.rows();
  const size_t cols = features.cols();
  binning.num_rows_ = rows;
  binning.cut_offsets_.assign(cols + 1, 0);
  if (rows == 0) return binning;
  binning.codes_.assign(cols * rows, 0);

  std::vector<double> sorted(rows);
  std::vector<double> cuts;
  for (size_t f = 0; f < cols; ++f) {
    for (size_t i = 0; i < rows; ++i) {
      const double value = features.At(i, f);
      // NaN breaks the strict weak ordering the sort and the lower_bound
      // below rely on.
      if (!std::isfinite(value)) {
        return common::Status::InvalidArgument("non-finite feature value");
      }
      sorted[i] = value;
    }
    std::sort(sorted.begin(), sorted.end());
    // Candidate cuts are actual column values strictly below the maximum
    // (a cut equal to the maximum would send every row left). Few distinct
    // values -> one cut per distinct value; many -> evenly spaced quantile
    // ranks, deduplicated so heavy ties collapse into a single cut.
    cuts.clear();
    const double column_max = sorted[rows - 1];
    for (size_t k = 1; k <= kMaxCuts; ++k) {
      const size_t rank = k * rows / (kMaxCuts + 1);
      const double value = sorted[std::min(rank, rows - 1)];
      if (value < column_max && (cuts.empty() || cuts.back() < value)) {
        cuts.push_back(value);
      }
    }
    // The rank grid can skip sparse distinct values when rows < kMaxCuts;
    // in that regime enumerate the distinct values below the max directly
    // so small nodes bin exactly like they sort.
    if (rows <= kMaxCuts) {
      cuts.clear();
      for (size_t i = 0; i + 1 < rows; ++i) {
        if (sorted[i] < sorted[i + 1]) cuts.push_back(sorted[i]);
      }
    }
    BBV_CHECK(cuts.size() <= kMaxCuts);
    uint8_t* codes = binning.codes_.data() + f * rows;
    for (size_t i = 0; i < rows; ++i) {
      const auto it =
          std::lower_bound(cuts.begin(), cuts.end(), features.At(i, f));
      codes[i] = static_cast<uint8_t>(it - cuts.begin());
    }
    binning.cut_values_.insert(binning.cut_values_.end(), cuts.begin(),
                               cuts.end());
    binning.cut_offsets_[f + 1] = binning.cut_values_.size();
  }
  return binning;
}

}  // namespace bbv::ml
