#include "grid/messages.hpp"

namespace retro::grid {

void MapPutBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(requestId);
  w.writeBytes(key);
  w.writeBytes(value);
}

MapPutBody MapPutBody::readFrom(ByteReader& r) {
  MapPutBody b;
  b.requestId = r.readVarU64();
  b.key = r.readBytes();
  b.value = r.readBytes();
  return b;
}

void MapGetBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(requestId);
  w.writeBytes(key);
}

MapGetBody MapGetBody::readFrom(ByteReader& r) {
  MapGetBody b;
  b.requestId = r.readVarU64();
  b.key = r.readBytes();
  return b;
}

void MapResponseBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(requestId);
  w.writeU8(ok ? 1 : 0);
  w.writeU8(value ? 1 : 0);
  if (value) w.writeBytes(*value);
}

MapResponseBody MapResponseBody::readFrom(ByteReader& r) {
  MapResponseBody b;
  b.requestId = r.readVarU64();
  b.ok = r.readU8() != 0;
  if (r.readU8() != 0) b.value = r.readBytes();
  return b;
}

void BackupReplicateBody::writeTo(ByteWriter& w) const {
  w.writeU32(partition);
  w.writeBytes(key);
  w.writeBytes(value);
}

BackupReplicateBody BackupReplicateBody::readFrom(ByteReader& r) {
  BackupReplicateBody b;
  b.partition = r.readU32();
  b.key = r.readBytes();
  b.value = r.readBytes();
  return b;
}

void HeartbeatBody::writeTo(ByteWriter& w) const { w.writeVarU64(sequence); }

HeartbeatBody HeartbeatBody::readFrom(ByteReader& r) {
  HeartbeatBody b;
  b.sequence = r.readVarU64();
  return b;
}

void GridSnapshotStartBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(request.id);
  request.target.writeTo(w);
  w.writeU8(static_cast<uint8_t>(request.kind));
  w.writeU8(request.baseId ? 1 : 0);
  if (request.baseId) w.writeVarU64(*request.baseId);
  w.writeBytes(request.storeName);
}

GridSnapshotStartBody GridSnapshotStartBody::readFrom(ByteReader& r) {
  GridSnapshotStartBody b;
  b.request.id = r.readVarU64();
  b.request.target = hlc::Timestamp::readFrom(r);
  b.request.kind = r.readBounded(core::SnapshotKind::kRolling);
  if (r.readU8() != 0) b.request.baseId = r.readVarU64();
  b.request.storeName = r.readBytes();
  return b;
}

void GridSnapshotAckBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(ack.id);
  w.writeU32(ack.node);
  w.writeU8(static_cast<uint8_t>(ack.status));
  w.writeVarU64(ack.persistedBytes);
}

GridSnapshotAckBody GridSnapshotAckBody::readFrom(ByteReader& r) {
  GridSnapshotAckBody b;
  b.ack.id = r.readVarU64();
  b.ack.node = r.readU32();
  b.ack.status = r.readBounded(core::LocalSnapshotStatus::kRebalancing);
  b.ack.persistedBytes = r.readVarU64();
  return b;
}

}  // namespace retro::grid
