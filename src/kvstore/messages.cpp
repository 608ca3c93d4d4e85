#include "kvstore/messages.hpp"

namespace retro::kv {

void PutRequestBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(requestId);
  w.writeBytes(key);
  w.writeBytes(value);
  version.writeTo(w);
  w.writeVarU64(viewEpoch);
}

PutRequestBody PutRequestBody::readFrom(ByteReader& r) {
  PutRequestBody b;
  b.requestId = r.readVarU64();
  b.key = r.readBytes();
  b.value = r.readBytes();
  b.version = VersionVector::readFrom(r);
  b.viewEpoch = r.readVarU64();
  return b;
}

void PutResponseBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(requestId);
  w.writeU8(ok ? 1 : 0);
  w.writeU8(conflictDetected ? 1 : 0);
  w.writeVarU64(viewEpoch);
  w.writeU8(view ? 1 : 0);
  if (view) view->writeTo(w);
}

PutResponseBody PutResponseBody::readFrom(ByteReader& r) {
  PutResponseBody b;
  b.requestId = r.readVarU64();
  b.ok = r.readU8() != 0;
  b.conflictDetected = r.readU8() != 0;
  b.viewEpoch = r.readVarU64();
  if (r.readU8() != 0) b.view = MembershipView::readFrom(r);
  return b;
}

void GetRequestBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(requestId);
  w.writeBytes(key);
  w.writeVarU64(viewEpoch);
}

GetRequestBody GetRequestBody::readFrom(ByteReader& r) {
  GetRequestBody b;
  b.requestId = r.readVarU64();
  b.key = r.readBytes();
  b.viewEpoch = r.readVarU64();
  return b;
}

void GetResponseBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(requestId);
  w.writeU8(value ? 1 : 0);
  if (value) w.writeBytes(*value);
  version.writeTo(w);
  w.writeVarU64(viewEpoch);
  w.writeU8(view ? 1 : 0);
  if (view) view->writeTo(w);
}

GetResponseBody GetResponseBody::readFrom(ByteReader& r) {
  GetResponseBody b;
  b.requestId = r.readVarU64();
  if (r.readU8() != 0) b.value = r.readBytes();
  b.version = VersionVector::readFrom(r);
  b.viewEpoch = r.readVarU64();
  if (r.readU8() != 0) b.view = MembershipView::readFrom(r);
  return b;
}

void SnapshotRequestBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(request.id);
  request.target.writeTo(w);
  w.writeU8(static_cast<uint8_t>(request.kind));
  w.writeU8(request.baseId ? 1 : 0);
  if (request.baseId) w.writeVarU64(*request.baseId);
  w.writeBytes(request.storeName);
  w.writeVarU64(request.viewEpoch);
}

SnapshotRequestBody SnapshotRequestBody::readFrom(ByteReader& r) {
  SnapshotRequestBody b;
  b.request.id = r.readVarU64();
  b.request.target = hlc::Timestamp::readFrom(r);
  b.request.kind = static_cast<core::SnapshotKind>(r.readU8());
  if (r.readU8() != 0) b.request.baseId = r.readVarU64();
  b.request.storeName = r.readBytes();
  b.request.viewEpoch = r.readVarU64();
  return b;
}

void SnapshotAckBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(ack.id);
  w.writeU32(ack.node);
  w.writeU8(static_cast<uint8_t>(ack.status));
  w.writeVarU64(ack.persistedBytes);
}

SnapshotAckBody SnapshotAckBody::readFrom(ByteReader& r) {
  SnapshotAckBody b;
  b.ack.id = r.readVarU64();
  b.ack.node = r.readU32();
  b.ack.status = static_cast<core::LocalSnapshotStatus>(r.readU8());
  b.ack.persistedBytes = r.readVarU64();
  return b;
}

void ProgressRequestBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(snapshotId);
}

ProgressRequestBody ProgressRequestBody::readFrom(ByteReader& r) {
  ProgressRequestBody b;
  b.snapshotId = r.readVarU64();
  return b;
}

void ProgressReplyBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(snapshotId);
  w.writeU8(static_cast<uint8_t>(status));
  w.writeU8(stage);
}

ProgressReplyBody ProgressReplyBody::readFrom(ByteReader& r) {
  ProgressReplyBody b;
  b.snapshotId = r.readVarU64();
  b.status = static_cast<core::LocalSnapshotStatus>(r.readU8());
  b.stage = r.readU8();
  return b;
}

void RepairRequestBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(requestId);
  w.writeVarU64(keys.size());
  for (const Key& k : keys) w.writeBytes(k);
}

RepairRequestBody RepairRequestBody::readFrom(ByteReader& r) {
  RepairRequestBody b;
  b.requestId = r.readVarU64();
  const uint64_t count = r.readCount(1);  // key length
  b.keys.reserve(count);
  for (uint64_t i = 0; i < count; ++i) b.keys.push_back(r.readBytes());
  return b;
}

void RepairResponseBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(requestId);
  w.writeVarU64(items.size());
  for (const Item& it : items) {
    w.writeBytes(it.key);
    w.writeU8(it.known ? 1 : 0);
    if (it.known) w.writeBytes(it.value);
    it.version.writeTo(w);
  }
}

RepairResponseBody RepairResponseBody::readFrom(ByteReader& r) {
  RepairResponseBody b;
  b.requestId = r.readVarU64();
  // key length, known flag, version count
  const uint64_t count = r.readCount(3);
  b.items.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Item it;
    it.key = r.readBytes();
    it.known = r.readU8() != 0;
    if (it.known) it.value = r.readBytes();
    it.version = VersionVector::readFrom(r);
    b.items.push_back(std::move(it));
  }
  return b;
}

void GossipBody::writeTo(ByteWriter& w) const { view.writeTo(w); }

GossipBody GossipBody::readFrom(ByteReader& r) {
  GossipBody b;
  b.view = MembershipView::readFrom(r);
  return b;
}

void JoinRequestBody::writeTo(ByteWriter& w) const { w.writeVarU64(node); }

JoinRequestBody JoinRequestBody::readFrom(ByteReader& r) {
  JoinRequestBody b;
  b.node = static_cast<NodeId>(r.readVarU64());
  return b;
}

void JoinResponseBody::writeTo(ByteWriter& w) const { view.writeTo(w); }

JoinResponseBody JoinResponseBody::readFrom(ByteReader& r) {
  JoinResponseBody b;
  b.view = MembershipView::readFrom(r);
  return b;
}

namespace {

void writeLogEntry(ByteWriter& w, const log::Entry& e) {
  w.writeBytes(e.key);
  w.writeU8(e.oldValue ? 1 : 0);
  if (e.oldValue) w.writeBytes(*e.oldValue);
  w.writeU8(e.newValue ? 1 : 0);
  if (e.newValue) w.writeBytes(*e.newValue);
  e.ts.writeTo(w);
}

log::Entry readLogEntry(ByteReader& r) {
  log::Entry e;
  e.key = r.readBytes();
  if (r.readU8() != 0) e.oldValue = r.readBytes();
  if (r.readU8() != 0) e.newValue = r.readBytes();
  e.ts = hlc::Timestamp::readFrom(r);
  return e;
}

}  // namespace

void TransferChunkBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(transferId);
  w.writeVarU64(source);
  w.writeVarU64(chunkSeq);
  w.writeU8(done ? 1 : 0);
  sourceFloor.writeTo(w);
  w.writeVarU64(items.size());
  for (const TransferItemWire& it : items) {
    w.writeBytes(it.key);
    w.writeBytes(it.value);
    it.version.writeTo(w);
    w.writeVarU64(it.history.size());
    for (const log::Entry& e : it.history) writeLogEntry(w, e);
  }
}

TransferChunkBody TransferChunkBody::readFrom(ByteReader& r) {
  TransferChunkBody b;
  b.transferId = r.readVarU64();
  b.source = static_cast<NodeId>(r.readVarU64());
  b.chunkSeq = r.readVarU64();
  b.done = r.readU8() != 0;
  b.sourceFloor = hlc::Timestamp::readFrom(r);
  // key and value lengths, version and history counts
  const uint64_t count = r.readCount(4);
  b.items.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TransferItemWire it;
    it.key = r.readBytes();
    it.value = r.readBytes();
    it.version = VersionVector::readFrom(r);
    // key length, two value flags, timestamp
    const uint64_t entries = r.readCount(3 + hlc::Timestamp::kWireSize);
    it.history.reserve(entries);
    for (uint64_t j = 0; j < entries; ++j) {
      it.history.push_back(readLogEntry(r));
    }
    b.items.push_back(std::move(it));
  }
  return b;
}

void TransferAckBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(transferId);
  w.writeVarU64(chunkSeq);
  w.writeU8(accepted ? 1 : 0);
}

TransferAckBody TransferAckBody::readFrom(ByteReader& r) {
  TransferAckBody b;
  b.transferId = r.readVarU64();
  b.chunkSeq = r.readVarU64();
  b.accepted = r.readU8() != 0;
  return b;
}

void QueryRequestBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(queryId);
  w.writeBytes(queryText);
}

QueryRequestBody QueryRequestBody::readFrom(ByteReader& r) {
  QueryRequestBody b;
  b.queryId = r.readVarU64();
  b.queryText = r.readBytes();
  return b;
}

void QueryReplyBody::writeTo(ByteWriter& w) const {
  w.writeVarU64(queryId);
  w.writeU8(static_cast<uint8_t>(statusCode));
  w.writeBytes(reason);
  w.writeVarU64(steps.size());
  for (const core::TemporalStep& s : steps) {
    s.at.writeTo(w);
    s.partial.writeTo(w);
  }
  w.writeVarU64(baseStateKeys);
  w.writeVarU64(replayedKeys);
}

QueryReplyBody QueryReplyBody::readFrom(ByteReader& r) {
  QueryReplyBody b;
  b.queryId = r.readVarU64();
  b.statusCode = static_cast<StatusCode>(r.readU8());
  b.reason = r.readBytes();
  // timestamp, two varints and three u64 of the partial aggregate
  const uint64_t count = r.readCount(hlc::Timestamp::kWireSize + 2 + 3 * 8);
  b.steps.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    core::TemporalStep s;
    s.at = hlc::Timestamp::readFrom(r);
    s.partial = core::PartialAggregate::readFrom(r);
    b.steps.push_back(s);
  }
  b.baseStateKeys = r.readVarU64();
  b.replayedKeys = r.readVarU64();
  return b;
}

}  // namespace retro::kv
