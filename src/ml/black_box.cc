#include "ml/black_box.h"

#include "common/serialize.h"
#include "ml/metrics.h"
#include "ml/model_io.h"

namespace bbv::ml {

common::Status BlackBoxModel::Train(const data::Dataset& train,
                                    common::Rng& rng) {
  if (train.NumRows() == 0) {
    return common::Status::InvalidArgument("cannot train on an empty dataset");
  }
  BBV_RETURN_NOT_OK(pipeline_.Fit(train.features));
  BBV_ASSIGN_OR_RETURN(linalg::Matrix features,
                       pipeline_.Transform(train.features));
  BBV_RETURN_NOT_OK(
      classifier_->Fit(features, train.labels, train.num_classes, rng));
  trained_ = true;
  return common::Status::OK();
}

common::Result<linalg::Matrix> BlackBoxModel::PredictProba(
    const data::DataFrame& frame) const {
  if (!trained_) {
    return common::Status::FailedPrecondition("PredictProba before Train");
  }
  BBV_ASSIGN_OR_RETURN(linalg::Matrix features, pipeline_.Transform(frame));
  return classifier_->PredictProba(features);
}

common::Result<double> BlackBoxModel::ScoreAccuracy(
    const data::Dataset& dataset) const {
  BBV_ASSIGN_OR_RETURN(linalg::Matrix probabilities,
                       PredictProba(dataset.features));
  return AccuracyFromProba(probabilities, dataset.labels);
}

common::Result<double> BlackBoxModel::ScoreAuc(
    const data::Dataset& dataset) const {
  BBV_ASSIGN_OR_RETURN(linalg::Matrix probabilities,
                       PredictProba(dataset.features));
  return RocAucFromProba(probabilities, dataset.labels);
}

namespace {
constexpr char kBlackBoxMagic[] = "BBVBB";
constexpr uint32_t kBlackBoxVersion = 1;
}  // namespace

common::Status BlackBoxModel::Save(common::BinaryWriter& writer) const {
  if (!trained_) {
    return common::Status::FailedPrecondition("Save before Train");
  }
  writer.WriteMagic(kBlackBoxMagic, kBlackBoxVersion);
  BBV_RETURN_NOT_OK(pipeline_.Save(writer));
  return SaveClassifier(*classifier_, writer);
}

common::Status BlackBoxModel::Save(std::ostream& out) const {
  return common::SaveToStream(
      out, [&](common::BinaryWriter& writer) { return Save(writer); });
}

common::Result<std::unique_ptr<BlackBoxModel>> BlackBoxModel::Load(
    common::BinaryReader& reader) {
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kBlackBoxMagic, kBlackBoxVersion));
  BBV_ASSIGN_OR_RETURN(featurize::FeaturePipeline pipeline,
                       featurize::FeaturePipeline::Load(reader));
  BBV_ASSIGN_OR_RETURN(std::unique_ptr<Classifier> classifier,
                       LoadClassifier(reader));
  auto model = std::make_unique<BlackBoxModel>(std::move(classifier));
  model->pipeline_ = std::move(pipeline);
  model->trained_ = true;
  return model;
}

common::Result<std::unique_ptr<BlackBoxModel>> BlackBoxModel::Load(
    std::istream& in) {
  return common::LoadFromStream(
      in, [](common::BinaryReader& reader) { return Load(reader); });
}

}  // namespace bbv::ml
