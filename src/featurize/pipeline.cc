#include "featurize/pipeline.h"

#include <algorithm>

#include "common/telemetry.h"
#include "featurize/hashing_vectorizer.h"
#include "featurize/image_flattener.h"
#include "featurize/one_hot_encoder.h"
#include "featurize/standard_scaler.h"

namespace bbv::featurize {

common::Status FeaturePipeline::Fit(const data::DataFrame& frame) {
  const common::telemetry::TraceSpan span("featurize.fit");
  common::telemetry::IncrementCounter("featurize.fit.calls");
  if (frame.NumCols() == 0) {
    return common::Status::InvalidArgument("cannot fit on an empty frame");
  }
  column_names_.clear();
  column_types_.clear();
  transformers_.clear();
  for (size_t col = 0; col < frame.NumCols(); ++col) {
    const data::Column& column = frame.column(col);
    std::unique_ptr<Transformer> transformer;
    switch (column.type()) {
      case data::ColumnType::kNumeric:
        transformer = std::make_unique<StandardScaler>();
        break;
      case data::ColumnType::kCategorical:
        transformer = std::make_unique<OneHotEncoder>();
        break;
      case data::ColumnType::kText:
        transformer = std::make_unique<HashingVectorizer>(
            options_.text_hash_buckets, options_.text_max_ngram);
        break;
      case data::ColumnType::kImage:
        transformer = std::make_unique<ImageFlattener>();
        break;
    }
    BBV_RETURN_NOT_OK(transformer->Fit(column));
    column_names_.push_back(column.name());
    column_types_.push_back(column.type());
    transformers_.push_back(std::move(transformer));
  }
  fitted_ = true;
  return common::Status::OK();
}

common::Result<linalg::Matrix> FeaturePipeline::Transform(
    const data::DataFrame& frame) const {
  const common::telemetry::TraceSpan span("featurize.transform");
  if (!fitted_) {
    return common::Status::FailedPrecondition("Transform before Fit");
  }
  common::telemetry::IncrementCounter("featurize.transform.rows",
                                      frame.NumRows());
  if (frame.NumCols() != transformers_.size()) {
    return common::Status::InvalidArgument(
        "frame schema does not match the fitted schema");
  }
  linalg::Matrix result(frame.NumRows(), TotalDim());
  size_t offset = 0;
  for (size_t col = 0; col < transformers_.size(); ++col) {
    const data::Column& column = frame.column(col);
    if (column.name() != column_names_[col] ||
        column.type() != column_types_[col]) {
      return common::Status::InvalidArgument(
          "column '" + column.name() + "' does not match fitted column '" +
          column_names_[col] + "'");
    }
    const linalg::Matrix block = transformers_[col]->Transform(column);
    for (size_t row = 0; row < frame.NumRows(); ++row) {
      std::copy(block.RowData(row), block.RowData(row) + block.cols(),
                result.RowData(row) + offset);
    }
    offset += transformers_[col]->OutputDim();
  }
  return result;
}

size_t FeaturePipeline::TotalDim() const {
  size_t total = 0;
  for (const auto& transformer : transformers_) {
    total += transformer->OutputDim();
  }
  return total;
}

}  // namespace bbv::featurize

namespace bbv::featurize {

namespace {
constexpr char kPipelineMagic[] = "BBVFP";
constexpr uint32_t kPipelineVersion = 1;
}  // namespace

common::Status FeaturePipeline::Save(common::BinaryWriter& writer) const {
  if (!fitted_) {
    return common::Status::FailedPrecondition("Save before Fit");
  }
  writer.WriteMagic(kPipelineMagic, kPipelineVersion);
  writer.WriteUint64(transformers_.size());
  for (size_t col = 0; col < transformers_.size(); ++col) {
    writer.WriteString(column_names_[col]);
    writer.WriteInt32(static_cast<int32_t>(column_types_[col]));
    switch (column_types_[col]) {
      case data::ColumnType::kNumeric:
        static_cast<const StandardScaler&>(*transformers_[col])
            .SaveTo(writer);
        break;
      case data::ColumnType::kCategorical:
        static_cast<const OneHotEncoder&>(*transformers_[col]).SaveTo(writer);
        break;
      case data::ColumnType::kText:
        static_cast<const HashingVectorizer&>(*transformers_[col])
            .SaveTo(writer);
        break;
      case data::ColumnType::kImage:
        static_cast<const ImageFlattener&>(*transformers_[col])
            .SaveTo(writer);
        break;
    }
  }
  return common::Status::OK();
}

common::Status FeaturePipeline::Save(std::ostream& out) const {
  return common::SaveToStream(
      out, [&](common::BinaryWriter& writer) { return Save(writer); });
}

common::Result<FeaturePipeline> FeaturePipeline::Load(std::istream& in) {
  return common::LoadFromStream(
      in, [](common::BinaryReader& reader) { return Load(reader); });
}

common::Result<FeaturePipeline> FeaturePipeline::Load(
    common::BinaryReader& reader) {
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kPipelineMagic, kPipelineVersion));
  BBV_ASSIGN_OR_RETURN(uint64_t count, reader.ReadUint64());
  if (count == 0 || count > 100'000) {
    return common::Status::InvalidArgument("corrupt pipeline width");
  }
  FeaturePipeline pipeline;
  for (uint64_t col = 0; col < count; ++col) {
    BBV_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    BBV_ASSIGN_OR_RETURN(int32_t raw_type, reader.ReadInt32());
    if (raw_type < 0 ||
        raw_type > static_cast<int32_t>(data::ColumnType::kImage)) {
      return common::Status::InvalidArgument("corrupt column type");
    }
    const auto type = static_cast<data::ColumnType>(raw_type);
    std::unique_ptr<Transformer> transformer;
    switch (type) {
      case data::ColumnType::kNumeric: {
        BBV_ASSIGN_OR_RETURN(StandardScaler scaler,
                             StandardScaler::LoadFrom(reader));
        transformer = std::make_unique<StandardScaler>(std::move(scaler));
        break;
      }
      case data::ColumnType::kCategorical: {
        BBV_ASSIGN_OR_RETURN(OneHotEncoder encoder,
                             OneHotEncoder::LoadFrom(reader));
        transformer = std::make_unique<OneHotEncoder>(std::move(encoder));
        break;
      }
      case data::ColumnType::kText: {
        BBV_ASSIGN_OR_RETURN(HashingVectorizer vectorizer,
                             HashingVectorizer::LoadFrom(reader));
        transformer =
            std::make_unique<HashingVectorizer>(std::move(vectorizer));
        break;
      }
      case data::ColumnType::kImage: {
        BBV_ASSIGN_OR_RETURN(ImageFlattener flattener,
                             ImageFlattener::LoadFrom(reader));
        transformer = std::make_unique<ImageFlattener>(std::move(flattener));
        break;
      }
    }
    pipeline.column_names_.push_back(std::move(name));
    pipeline.column_types_.push_back(type);
    pipeline.transformers_.push_back(std::move(transformer));
  }
  pipeline.fitted_ = true;
  return pipeline;
}

}  // namespace bbv::featurize
