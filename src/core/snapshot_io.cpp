#include "core/snapshot_io.hpp"

#include <cstdio>
#include <memory>

#include "common/bytes.hpp"
#include "common/checksum.hpp"

namespace retro::core {

namespace {

constexpr uint32_t kMagic = 0x52545343;  // "RTSC"
// v1 framed the payload with an FNV-1a sum; v2 uses the shared CRC32C
// (common/checksum) like every other durable format.  v1 archives are
// still accepted — the version field selects the checksum to verify.
constexpr uint16_t kVersionFnv = 1;
constexpr uint16_t kVersion = 2;

/// FNV-1a over a byte range — the v1 payload integrity check.
uint64_t checksumFnv(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void writeOptValue(ByteWriter& w, const OptValue& v) {
  w.writeU8(v ? 1 : 0);
  if (v) w.writeBytes(*v);
}

OptValue readOptValue(ByteReader& r) {
  if (r.readU8() == 0) return std::nullopt;
  return r.readBytes();
}

}  // namespace

std::string serializeSnapshot(const LocalSnapshot& snapshot) {
  // Payload section first, so the header can carry its checksum.
  ByteWriter payload;
  payload.writeVarU64(snapshot.id);
  payload.writeU8(static_cast<uint8_t>(snapshot.kind));
  snapshot.target.writeTo(payload);
  payload.writeU32(snapshot.node);
  payload.writeU8(snapshot.baseId ? 1 : 0);
  if (snapshot.baseId) payload.writeVarU64(*snapshot.baseId);
  payload.writeVarU64(snapshot.persistedBytes);

  payload.writeVarU64(snapshot.state.size());
  for (const auto& [key, value] : snapshot.state) {
    payload.writeBytes(key);
    payload.writeBytes(value);
  }
  payload.writeVarU64(snapshot.delta.size());
  for (const auto& [key, value] : snapshot.delta.entries()) {
    payload.writeBytes(key);
    writeOptValue(payload, value);
  }

  ByteWriter out;
  out.writeU32(kMagic);
  out.writeU16(kVersion);
  out.writeU64(crc32c(payload.view()));
  out.writeVarU64(payload.size());
  out.writeRaw(payload.view());
  return out.take();
}

Result<LocalSnapshot> deserializeSnapshot(std::string_view data) {
  try {
    ByteReader r(data);
    if (r.readU32() != kMagic) {
      return Status(StatusCode::kInvalidArgument, "bad snapshot magic");
    }
    const uint16_t version = r.readU16();
    if (version != kVersion && version != kVersionFnv) {
      return Status(StatusCode::kInvalidArgument,
                    "unsupported snapshot version " + std::to_string(version));
    }
    const uint64_t expectedSum = r.readU64();
    const uint64_t payloadLen = r.readVarU64();
    if (payloadLen != r.remaining()) {
      return Status(StatusCode::kInvalidArgument,
                    "snapshot payload length mismatch");
    }
    const std::string_view payloadView = data.substr(data.size() - payloadLen);
    const uint64_t actualSum = version == kVersionFnv
                                   ? checksumFnv(payloadView)
                                   : crc32c(payloadView);
    if (actualSum != expectedSum) {
      return Status(StatusCode::kInvalidArgument,
                    "snapshot checksum mismatch (corrupt file?)");
    }

    ByteReader p(payloadView);
    LocalSnapshot snap;
    snap.id = p.readVarU64();
    snap.kind = static_cast<SnapshotKind>(p.readU8());
    snap.target = hlc::Timestamp::readFrom(p);
    snap.node = p.readU32();
    if (p.readU8() != 0) snap.baseId = p.readVarU64();
    snap.persistedBytes = p.readVarU64();

    // Every entry needs at least two bytes (its two length prefixes).
    const uint64_t stateCount = p.readCount(2);
    snap.state.reserve(stateCount);
    for (uint64_t i = 0; i < stateCount; ++i) {
      Key key = p.readBytes();
      snap.state.emplace(std::move(key), p.readBytes());
    }
    const uint64_t deltaCount = p.readCount(2);
    for (uint64_t i = 0; i < deltaCount; ++i) {
      Key key = p.readBytes();
      snap.delta.set(key, readOptValue(p));
    }
    if (!p.atEnd()) {
      return Status(StatusCode::kInvalidArgument,
                    "trailing bytes after snapshot payload");
    }
    return snap;
  } catch (const std::out_of_range& e) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("truncated snapshot: ") + e.what());
  }
}

Status saveSnapshotToFile(const LocalSnapshot& snapshot,
                          const std::string& path) {
  const std::string blob = serializeSnapshot(snapshot);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) {
    return Status(StatusCode::kUnavailable, "cannot open " + path);
  }
  if (std::fwrite(blob.data(), 1, blob.size(), f.get()) != blob.size()) {
    return Status(StatusCode::kUnavailable, "short write to " + path);
  }
  return Status::ok();
}

Result<LocalSnapshot> loadSnapshotFromFile(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) {
    return Status(StatusCode::kNotFound, "cannot open " + path);
  }
  std::string blob;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    blob.append(buf, n);
  }
  return deserializeSnapshot(blob);
}

}  // namespace retro::core
