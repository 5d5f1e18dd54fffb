#include "ml/model_io.h"

#include <istream>
#include <ostream>

#include "common/serialize.h"
#include "ml/conv_net.h"
#include "ml/decision_tree.h"
#include "ml/feed_forward_network.h"
#include "ml/gradient_boosted_trees.h"
#include "ml/sgd_logistic_regression.h"

namespace bbv::ml {

namespace {
constexpr char kEnvelopeMagic[] = "BBVMD";
constexpr uint32_t kEnvelopeVersion = 1;
}  // namespace

common::Status SaveClassifier(const Classifier& classifier,
                              common::BinaryWriter& writer) {
  writer.WriteMagic(kEnvelopeMagic, kEnvelopeVersion);
  const std::string tag = classifier.Name();
  writer.WriteString(tag);
  if (tag == "lr") {
    return static_cast<const SgdLogisticRegression&>(classifier).Save(writer);
  }
  if (tag == "dnn") {
    return static_cast<const FeedForwardNetwork&>(classifier).Save(writer);
  }
  if (tag == "xgb") {
    return static_cast<const GradientBoostedTrees&>(classifier).Save(writer);
  }
  if (tag == "cart") {
    return static_cast<const DecisionTreeClassifier&>(classifier).Save(writer);
  }
  if (tag == "conv") {
    return static_cast<const ConvNet&>(classifier).Save(writer);
  }
  return common::Status::NotImplemented("no serializer for classifier '" +
                                        tag + "'");
}

common::Status SaveClassifier(const Classifier& classifier,
                              std::ostream& out) {
  return common::SaveToStream(out, [&](common::BinaryWriter& writer) {
    return SaveClassifier(classifier, writer);
  });
}

common::Result<std::unique_ptr<Classifier>> LoadClassifier(
    common::BinaryReader& reader) {
  BBV_RETURN_NOT_OK(reader.ExpectMagic(kEnvelopeMagic, kEnvelopeVersion));
  BBV_ASSIGN_OR_RETURN(std::string tag, reader.ReadString());
  if (tag == "lr") {
    BBV_ASSIGN_OR_RETURN(SgdLogisticRegression model,
                         SgdLogisticRegression::Load(reader));
    return std::unique_ptr<Classifier>(
        std::make_unique<SgdLogisticRegression>(std::move(model)));
  }
  if (tag == "dnn") {
    BBV_ASSIGN_OR_RETURN(FeedForwardNetwork model,
                         FeedForwardNetwork::Load(reader));
    return std::unique_ptr<Classifier>(
        std::make_unique<FeedForwardNetwork>(std::move(model)));
  }
  if (tag == "xgb") {
    BBV_ASSIGN_OR_RETURN(GradientBoostedTrees model,
                         GradientBoostedTrees::Load(reader));
    return std::unique_ptr<Classifier>(
        std::make_unique<GradientBoostedTrees>(std::move(model)));
  }
  if (tag == "cart") {
    BBV_ASSIGN_OR_RETURN(DecisionTreeClassifier model,
                         DecisionTreeClassifier::Load(reader));
    return std::unique_ptr<Classifier>(
        std::make_unique<DecisionTreeClassifier>(std::move(model)));
  }
  if (tag == "conv") {
    BBV_ASSIGN_OR_RETURN(ConvNet model, ConvNet::Load(reader));
    return std::unique_ptr<Classifier>(
        std::make_unique<ConvNet>(std::move(model)));
  }
  return common::Status::InvalidArgument("unknown classifier tag '" + tag +
                                         "'");
}

common::Result<std::unique_ptr<Classifier>> LoadClassifier(std::istream& in) {
  return common::LoadFromStream(in, [](common::BinaryReader& reader) {
    return LoadClassifier(reader);
  });
}

}  // namespace bbv::ml
