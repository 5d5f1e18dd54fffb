#ifndef BBV_ML_MODEL_IO_H_
#define BBV_ML_MODEL_IO_H_

#include <iosfwd>
#include <memory>

#include "common/result.h"
#include "common/serialize.h"
#include "common/status.h"
#include "ml/classifier.h"

namespace bbv::ml {

/// Tagged, polymorphic classifier persistence: writes the classifier's
/// type tag ("lr", "dnn", "xgb", "cart", "conv") followed by its payload,
/// so a stream can be reloaded without knowing the concrete type.
/// Supported for every classifier in the zoo.
common::Status SaveClassifier(const Classifier& classifier,
                              common::BinaryWriter& writer);
common::Status SaveClassifier(const Classifier& classifier,
                              std::ostream& out);

/// Reloads a classifier written by SaveClassifier.
common::Result<std::unique_ptr<Classifier>> LoadClassifier(
    common::BinaryReader& reader);
common::Result<std::unique_ptr<Classifier>> LoadClassifier(std::istream& in);

}  // namespace bbv::ml

#endif  // BBV_ML_MODEL_IO_H_
