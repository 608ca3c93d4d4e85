#include "grid/grid_client.hpp"

namespace retro::grid {

GridClient::GridClient(NodeId id, runtime::ExecutionContext& ctx,
                       hlc::PhysicalClock& clock, const PartitionTable& table,
                       bool hlcEnabled)
    : id_(id),
      ctx_(&ctx),
      clock_(clock),
      table_(&table),
      hlcEnabled_(hlcEnabled) {
  ctx_->registerNode(id_, [this](sim::Message&& m) { onMessage(std::move(m)); });
}

void GridClient::put(const Key& key, Value value, PutCallback done) {
  const uint64_t reqId = nextRequestId_++;
  PendingOp op;
  op.isPut = true;
  op.startedAt = ctx_->now();
  op.putDone = std::move(done);
  pending_.emplace(reqId, std::move(op));

  ByteWriter w;
  hlc::Timestamp ts;
  if (hlcEnabled_) ts = hlc::wrapHlc(clock_, w);
  MapPutBody body{reqId, key, std::move(value)};
  body.writeTo(w);
  const uint64_t msgId = ctx_->send(
      sim::Message{id_, table_->ownerOfKey(key), kMapPut, w.take()});
  if (trace_ && hlcEnabled_) trace_->onSend(id_, msgId, ts);
}

void GridClient::get(const Key& key, GetCallback done) {
  const uint64_t reqId = nextRequestId_++;
  PendingOp op;
  op.isPut = false;
  op.startedAt = ctx_->now();
  op.getDone = std::move(done);
  pending_.emplace(reqId, std::move(op));

  ByteWriter w;
  hlc::Timestamp ts;
  if (hlcEnabled_) ts = hlc::wrapHlc(clock_, w);
  MapGetBody body{reqId, key};
  body.writeTo(w);
  const uint64_t msgId = ctx_->send(
      sim::Message{id_, table_->ownerOfKey(key), kMapGet, w.take()});
  if (trace_ && hlcEnabled_) trace_->onSend(id_, msgId, ts);
}

void GridClient::onMessage(sim::Message&& msg) {
  std::optional<hlc::Received<MapResponseBody>> received;
  if (msg.type == kMapResponse) {
    received = hlc::decodeMessage<MapResponseBody>(msg.payload, hlcEnabled_);
  }
  if (!received) {
    ++malformedMessages_;
    return;
  }
  if (hlcEnabled_) {
    const hlc::Timestamp ts = clock_.tick(received->ts);
    if (trace_) trace_->onRecv(id_, msg.msgId, ts);
  }
  MapResponseBody& body = received->body;
  auto it = pending_.find(body.requestId);
  if (it == pending_.end()) return;
  PendingOp op = std::move(it->second);
  pending_.erase(it);
  ++opsCompleted_;
  const TimeMicros latency = ctx_->now() - op.startedAt;
  if (op.isPut) {
    if (op.putDone) op.putDone(body.ok, latency);
  } else {
    if (op.getDone) op.getDone(body.ok, latency, std::move(body.value));
  }
}

}  // namespace retro::grid
