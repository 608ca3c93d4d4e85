// ByteBuffer reader/writer pair used by the network message codecs.
// Messages in the simulated clusters are fully serialized so that
// per-message byte counts (HLC = 8 bytes vs. vector clock = 8n bytes)
// are measured, not asserted.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace retro {

class ByteWriter {
 public:
  void writeU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void writeU16(uint16_t v);
  void writeU32(uint32_t v);
  void writeU64(uint64_t v);
  void writeI64(int64_t v) { writeU64(static_cast<uint64_t>(v)); }

  /// LEB128 variable-length unsigned integer.
  void writeVarU64(uint64_t v);

  /// Length-prefixed byte string.
  void writeBytes(std::string_view s);

  /// Raw bytes, no length prefix.
  void writeRaw(std::string_view s) { buf_.append(s); }

  size_t size() const { return buf_.size(); }
  std::string take() { return std::move(buf_); }
  const std::string& view() const { return buf_; }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t readU8();
  uint16_t readU16();
  uint32_t readU32();
  uint64_t readU64();
  int64_t readI64() { return static_cast<int64_t>(readU64()); }
  uint64_t readVarU64();
  std::string readBytes();
  /// A varint item count, checked before the caller allocates for it:
  /// every item takes at least `minBytesPerItem` bytes, so a count the
  /// remaining input cannot hold throws std::out_of_range.
  uint64_t readCount(size_t minBytesPerItem);
  /// A one-byte field no greater than `last` (an enum's last value or a
  /// numeric bound); a larger byte throws std::out_of_range.
  template <typename T>
  T readBounded(T last) {
    const uint8_t b = readU8();
    if (b > static_cast<uint8_t>(last)) {
      throw std::out_of_range("ByteReader: byte out of range");
    }
    return static_cast<T>(b);
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool atEnd() const { return pos_ == data_.size(); }

 private:
  void require(size_t n) const {
    // Compare against remaining() rather than pos_ + n, which would wrap
    // for an adversarial length prefix near SIZE_MAX and let a truncated
    // read through.
    if (n > data_.size() - pos_) {
      throw std::out_of_range("ByteReader: truncated input");
    }
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace retro
