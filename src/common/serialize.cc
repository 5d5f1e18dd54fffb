#include "common/serialize.h"

#include <cstring>
#include <istream>
#include <ostream>

namespace bbv::common {

namespace {

template <typename T>
void AppendRaw(std::string& buffer, T value) {
  // The library targets little-endian hosts; a static assert documents the
  // assumption instead of byte-swapping.
  static_assert(sizeof(T) <= 8);
  buffer.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void AppendVector(std::string& buffer, const std::vector<T>& values) {
  AppendRaw<uint64_t>(buffer, values.size());
  buffer.append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(T));
}

}  // namespace

void BinaryWriter::WriteMagic(const std::string& magic, uint32_t version) {
  buffer_.append(magic);
  WriteUint32(version);
}

void BinaryWriter::WriteUint32(uint32_t value) { AppendRaw(buffer_, value); }
void BinaryWriter::WriteUint64(uint64_t value) { AppendRaw(buffer_, value); }
void BinaryWriter::WriteInt32(int32_t value) { AppendRaw(buffer_, value); }
void BinaryWriter::WriteDouble(double value) { AppendRaw(buffer_, value); }

void BinaryWriter::WriteString(const std::string& value) {
  WriteUint64(value.size());
  buffer_.append(value);
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& values) {
  AppendVector(buffer_, values);
}

void BinaryWriter::WriteInt32Vector(const std::vector<int32_t>& values) {
  AppendVector(buffer_, values);
}

void BinaryWriter::WriteUint64s(std::span<const uint64_t> values) {
  buffer_.append(reinterpret_cast<const char*>(values.data()),
                 values.size_bytes());
}

void BinaryWriter::WriteVarUint64(uint64_t value) {
  while (value >= 0x80) {
    buffer_.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  buffer_.push_back(static_cast<char>(value));
}

char* BinaryWriter::Extend(size_t size) {
  buffer_.resize(buffer_.size() + size);
  return buffer_.data() + buffer_.size() - size;
}

void BinaryWriter::PatchUint64(size_t offset, uint64_t value) {
  BBV_CHECK(offset + sizeof(value) <= buffer_.size())
      << "PatchUint64 past the end of the archive";
  std::memcpy(buffer_.data() + offset, &value, sizeof(value));
}

Status BinaryWriter::WriteTo(std::ostream& out) const {
  return WriteArchive(out, buffer_);
}

Status WriteArchive(std::ostream& out, std::span<const char> bytes) {
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IoError("serialization stream failed");
  return Status::OK();
}

Status BinaryReader::Take(void* out, size_t size) {
  if (size > remaining()) return Status::IoError("truncated stream");
  if (size > 0) std::memcpy(out, bytes_.data() + position_, size);
  position_ += size;
  return Status::OK();
}

Status BinaryReader::ExpectMagic(const std::string& magic,
                                 uint32_t expected_version) {
  if (magic.size() > remaining() ||
      std::memcmp(bytes_.data() + position_, magic.data(), magic.size()) !=
          0) {
    return Status::InvalidArgument("bad magic: expected '" + magic + "'");
  }
  position_ += magic.size();
  BBV_ASSIGN_OR_RETURN(uint32_t version, ReadUint32());
  if (version != expected_version) {
    return Status::InvalidArgument(
        "unsupported version " + std::to_string(version) + " for '" + magic +
        "', expected " + std::to_string(expected_version));
  }
  return Status::OK();
}

Result<uint32_t> BinaryReader::ReadUint32() {
  uint32_t value = 0;
  BBV_RETURN_NOT_OK(Take(&value, sizeof(value)));
  return value;
}

Result<uint64_t> BinaryReader::ReadUint64() {
  uint64_t value = 0;
  BBV_RETURN_NOT_OK(Take(&value, sizeof(value)));
  return value;
}

Result<int32_t> BinaryReader::ReadInt32() {
  int32_t value = 0;
  BBV_RETURN_NOT_OK(Take(&value, sizeof(value)));
  return value;
}

Result<double> BinaryReader::ReadDouble() {
  double value = 0.0;
  BBV_RETURN_NOT_OK(Take(&value, sizeof(value)));
  return value;
}

Result<size_t> BinaryReader::ReadLength(size_t element_size) {
  BBV_ASSIGN_OR_RETURN(uint64_t size, ReadUint64());
  if (size > remaining() / element_size) {
    return Status::InvalidArgument("implausible length prefix " +
                                   std::to_string(size) + " with " +
                                   std::to_string(remaining()) +
                                   " bytes left");
  }
  return static_cast<size_t>(size);
}

Result<std::string> BinaryReader::ReadString() {
  BBV_ASSIGN_OR_RETURN(size_t size, ReadLength(1));
  std::string value(size, '\0');
  BBV_RETURN_NOT_OK(Take(value.data(), size));
  return value;
}

Result<std::vector<double>> BinaryReader::ReadDoubleVector() {
  BBV_ASSIGN_OR_RETURN(size_t size, ReadLength(sizeof(double)));
  std::vector<double> values(size);
  BBV_RETURN_NOT_OK(Take(values.data(), size * sizeof(double)));
  return values;
}

Result<std::vector<int32_t>> BinaryReader::ReadInt32Vector() {
  BBV_ASSIGN_OR_RETURN(size_t size, ReadLength(sizeof(int32_t)));
  std::vector<int32_t> values(size);
  BBV_RETURN_NOT_OK(Take(values.data(), size * sizeof(int32_t)));
  return values;
}

Status BinaryReader::ReadUint64s(std::span<uint64_t> values) {
  return Take(values.data(), values.size_bytes());
}

Result<std::span<const char>> BinaryReader::ReadBytes(size_t size) {
  if (size > remaining()) return Status::IoError("truncated stream");
  const std::span<const char> bytes = bytes_.subspan(position_, size);
  position_ += size;
  return bytes;
}

Result<uint64_t> BinaryReader::ReadVarUint64() {
  uint64_t value = 0;
  for (size_t i = 0; i < remaining() && i < 10; ++i) {
    const auto byte = static_cast<uint8_t>(bytes_[position_ + i]);
    // The tenth byte holds only the top bit of a 64-bit value, and a zero
    // last byte after the first is a padded (non-minimal) encoding.
    if ((i == 9 && byte > 1) || (i > 0 && byte == 0)) break;
    value |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      position_ += i + 1;
      return value;
    }
  }
  return Status::InvalidArgument("truncated or overlong varint");
}

StreamInput::StreamInput(std::istream& in) : in_(in) {
  if (!in_) return;
  start_ = static_cast<int64_t>(in_.tellg());
  std::streambuf* source = in_.rdbuf();
  char chunk[1 << 14];
  while (true) {
    const std::streamsize got = source->sgetn(chunk, sizeof(chunk));
    if (got <= 0) break;
    bytes_.append(chunk, static_cast<size_t>(got));
  }
}

Status StreamInput::Consume(size_t consumed) {
  BBV_CHECK(consumed <= bytes_.size());
  if (consumed == bytes_.size()) return Status::OK();
  if (start_ < 0) {
    in_.setstate(std::ios::failbit);
    return Status::IoError(
        "an object on a stream that cannot seek must end the stream");
  }
  in_.seekg(static_cast<std::streamoff>(start_) +
            static_cast<std::streamoff>(consumed));
  if (!in_) return Status::IoError("could not reposition the stream");
  return Status::OK();
}

}  // namespace bbv::common
