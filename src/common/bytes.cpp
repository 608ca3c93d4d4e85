#include "common/bytes.hpp"

namespace retro {

void ByteWriter::writeU16(uint16_t v) {
  writeU8(static_cast<uint8_t>(v >> 8));
  writeU8(static_cast<uint8_t>(v));
}

void ByteWriter::writeU32(uint32_t v) {
  writeU16(static_cast<uint16_t>(v >> 16));
  writeU16(static_cast<uint16_t>(v));
}

void ByteWriter::writeU64(uint64_t v) {
  writeU32(static_cast<uint32_t>(v >> 32));
  writeU32(static_cast<uint32_t>(v));
}

void ByteWriter::writeVarU64(uint64_t v) {
  while (v >= 0x80) {
    writeU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  writeU8(static_cast<uint8_t>(v));
}

void ByteWriter::writeBytes(std::string_view s) {
  writeVarU64(s.size());
  buf_.append(s);
}

uint8_t ByteReader::readU8() {
  require(1);
  return static_cast<uint8_t>(data_[pos_++]);
}

uint16_t ByteReader::readU16() {
  const auto hi = readU8();
  const auto lo = readU8();
  return static_cast<uint16_t>((hi << 8) | lo);
}

uint32_t ByteReader::readU32() {
  const auto hi = readU16();
  const auto lo = readU16();
  return (static_cast<uint32_t>(hi) << 16) | lo;
}

uint64_t ByteReader::readU64() {
  const auto hi = readU32();
  const auto lo = readU32();
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

uint64_t ByteReader::readVarU64() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const uint8_t b = readU8();
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift >= 64) throw std::out_of_range("ByteReader: varint too long");
  }
}

uint64_t ByteReader::readCount(size_t minBytesPerItem) {
  const uint64_t n = readVarU64();
  if (n > remaining() / minBytesPerItem) {
    throw std::out_of_range("ByteReader: count exceeds input");
  }
  return n;
}

std::string ByteReader::readBytes() {
  const uint64_t n = readVarU64();
  require(n);
  std::string out(data_.substr(pos_, n));
  pos_ += n;
  return out;
}

}  // namespace retro
