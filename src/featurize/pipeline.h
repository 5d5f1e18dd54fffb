#ifndef BBV_FEATURIZE_PIPELINE_H_
#define BBV_FEATURIZE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/serialize.h"
#include "data/dataframe.h"
#include "featurize/transformer.h"

namespace bbv::featurize {

/// Configuration for the default column-type -> transformer mapping.
struct PipelineOptions {
  /// Buckets for word n-gram hashing of text columns.
  size_t text_hash_buckets = 512;
  /// Maximum word n-gram length for text columns.
  int text_max_ngram = 2;
};

/// Column-wise feature pipeline mirroring the paper's featurization:
/// standardize numeric attributes, one-hot encode categorical attributes,
/// hash word n-grams of text attributes, flatten images, and concatenate the
/// blocks. Fitted on training data only (scikit-learn Pipeline semantics).
class FeaturePipeline {
 public:
  explicit FeaturePipeline(PipelineOptions options = {})
      : options_(options) {}

  FeaturePipeline(FeaturePipeline&&) = default;
  FeaturePipeline& operator=(FeaturePipeline&&) = default;

  /// Fits one transformer per column of `frame`.
  common::Status Fit(const data::DataFrame& frame);

  /// Maps a frame with the training schema to an n x TotalDim() matrix.
  /// Must be called after Fit; column names/types/order must match.
  common::Result<linalg::Matrix> Transform(const data::DataFrame& frame) const;

  /// Total output width (valid after Fit).
  size_t TotalDim() const;

  bool fitted() const { return fitted_; }

  /// Persists the fitted pipeline (per-column transformer state).
  common::Status Save(common::BinaryWriter& writer) const;
  common::Status Save(std::ostream& out) const;
  static common::Result<FeaturePipeline> Load(
      common::BinaryReader& reader);
  static common::Result<FeaturePipeline> Load(std::istream& in);

 private:
  PipelineOptions options_;
  bool fitted_ = false;
  std::vector<std::string> column_names_;
  std::vector<data::ColumnType> column_types_;
  std::vector<std::unique_ptr<Transformer>> transformers_;
};

}  // namespace bbv::featurize

#endif  // BBV_FEATURIZE_PIPELINE_H_
