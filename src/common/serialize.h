#ifndef BBV_COMMON_SERIALIZE_H_
#define BBV_COMMON_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace bbv::common {

/// Minimal little-endian binary archive for persisting trained artifacts
/// (models, performance predictors) and serving state. The format is: a
/// caller-supplied magic tag, a version, then length-prefixed primitives. No
/// backward compatibility guarantees beyond the version check — this is a
/// deployment format, not an interchange format.
///
/// The writer appends to one contiguous byte buffer; nested objects save
/// into the same writer, and the finished archive reaches a stream in one
/// WriteTo call. This file is the only place that moves archive bytes to or
/// from a stream (lint rule "raw-io").
class BinaryWriter {
 public:
  BinaryWriter() = default;

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  void WriteMagic(const std::string& magic, uint32_t version);
  void WriteUint32(uint32_t value);
  void WriteUint64(uint64_t value);
  void WriteInt32(int32_t value);
  void WriteDouble(double value);
  void WriteString(const std::string& value);
  void WriteDoubleVector(const std::vector<double>& values);
  void WriteInt32Vector(const std::vector<int32_t>& values);
  /// Appends the values back to back, without a length prefix.
  void WriteUint64s(std::span<const uint64_t> values);
  /// LEB128: 7 bits a byte, low bits first; one byte below 128.
  void WriteVarUint64(uint64_t value);
  /// Appends `size` bytes for the caller to fill through the returned
  /// pointer, which stays valid until the next write.
  char* Extend(size_t size);

  /// Overwrites the value a WriteUint64 put at byte `offset`, so a count can
  /// precede the entries it counts and still be written in one pass.
  void PatchUint64(size_t offset, uint64_t value);

  /// The archive so far.
  const std::string& bytes() const { return buffer_; }
  size_t size() const { return buffer_.size(); }
  /// Empties the archive and keeps its capacity for reuse.
  void Clear() { buffer_.clear(); }

  /// Writes the archive to `out` in one call; IoError when the stream fails.
  [[nodiscard]] Status WriteTo(std::ostream& out) const;

 private:
  std::string buffer_;
};

/// Reader counterpart over a bounded span of bytes. Every read checks the
/// bytes left first, so a corrupt length prefix is rejected before anything
/// is allocated, and a failed read consumes nothing.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const char> bytes) : bytes_(bytes) {}

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  /// Checks that the bytes start with `magic` and that the stored version
  /// equals `expected_version`.
  [[nodiscard]] Status ExpectMagic(const std::string& magic,
                                   uint32_t expected_version);
  [[nodiscard]] Result<uint32_t> ReadUint32();
  [[nodiscard]] Result<uint64_t> ReadUint64();
  [[nodiscard]] Result<int32_t> ReadInt32();
  [[nodiscard]] Result<double> ReadDouble();
  [[nodiscard]] Result<std::string> ReadString();
  [[nodiscard]] Result<std::vector<double>> ReadDoubleVector();
  [[nodiscard]] Result<std::vector<int32_t>> ReadInt32Vector();
  /// Fills `values` with the next values.size() values (the WriteUint64s
  /// counterpart).
  [[nodiscard]] Status ReadUint64s(std::span<uint64_t> values);
  /// Accepts only the minimal encoding WriteVarUint64 writes.
  [[nodiscard]] Result<uint64_t> ReadVarUint64();
  /// A view of the next `size` bytes (the Extend counterpart), valid as
  /// long as the bytes the reader parses.
  [[nodiscard]] Result<std::span<const char>> ReadBytes(size_t size);

  /// Bytes consumed so far.
  size_t position() const { return position_; }
  /// Bytes left to read.
  size_t remaining() const { return bytes_.size() - position_; }

 private:
  /// Copies the next `size` bytes to `out`, or consumes nothing and returns
  /// IoError when fewer are left.
  Status Take(void* out, size_t size);
  /// Reads a length prefix of elements of `element_size` bytes and checks
  /// that that many elements are left.
  Result<size_t> ReadLength(size_t element_size);

  std::span<const char> bytes_;
  size_t position_ = 0;
};

/// Writes bytes a BinaryWriter produced earlier (e.g. a kept copy of its
/// bytes()) to `out` in one call; IoError when the stream fails.
[[nodiscard]] Status WriteArchive(std::ostream& out,
                                  std::span<const char> bytes);

/// The unread rest of an input stream as one bounded buffer: the stream Load
/// overloads parse it through a BinaryReader (see LoadFromStream).
class StreamInput {
 public:
  /// Takes every byte left in `in`.
  explicit StreamInput(std::istream& in);

  StreamInput(const StreamInput&) = delete;
  StreamInput& operator=(const StreamInput&) = delete;

  std::span<const char> bytes() const { return bytes_; }

  /// Leaves the stream right after the first `consumed` bytes. A stream
  /// that cannot seek fails (and gets failbit) if bytes would be left over.
  [[nodiscard]] Status Consume(size_t consumed);

 private:
  std::istream& in_;
  /// Stream position of bytes_[0]; -1 for a stream that cannot seek.
  int64_t start_ = -1;
  std::string bytes_;
};

/// Stream overload of a Load: parses one object with `load` (a function of
/// BinaryReader& returning Status or Result<T>) and leaves `in` right after
/// the object's bytes, so objects saved back to back load back in order.
template <typename LoadFn>
auto LoadFromStream(std::istream& in, LoadFn&& load)
    -> decltype(load(std::declval<BinaryReader&>())) {
  StreamInput input(in);
  BinaryReader reader(input.bytes());
  auto loaded = std::forward<LoadFn>(load)(reader);
  if (loaded.ok()) BBV_RETURN_NOT_OK(input.Consume(reader.position()));
  return loaded;
}

/// Stream overload of a Save: `save` (a function of BinaryWriter&
/// returning Status) fills one archive, which reaches `out` in one write.
template <typename SaveFn>
Status SaveToStream(std::ostream& out, SaveFn&& save) {
  BinaryWriter writer;
  BBV_RETURN_NOT_OK(std::forward<SaveFn>(save)(writer));
  return writer.WriteTo(out);
}

}  // namespace bbv::common

#endif  // BBV_COMMON_SERIALIZE_H_
