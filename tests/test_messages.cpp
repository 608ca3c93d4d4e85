#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <stdexcept>

#include "grid/grid_cluster.hpp"
#include "grid/messages.hpp"
#include "hlc/vector_clock.hpp"
#include "kvstore/cluster.hpp"
#include "kvstore/messages.hpp"
#include "kvstore/realtime_cluster.hpp"
#include "runtime/deadline.hpp"

namespace retro {
namespace {

TEST(KvMessages, PutRequestRoundTrip) {
  kv::PutRequestBody b;
  b.requestId = 77;
  b.key = "user:1";
  b.value = std::string(200, 'v');
  b.version.increment(3);
  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  const auto back = kv::PutRequestBody::readFrom(r);
  EXPECT_EQ(back.requestId, 77u);
  EXPECT_EQ(back.key, "user:1");
  EXPECT_EQ(back.value, b.value);
  EXPECT_EQ(back.version, b.version);
  EXPECT_TRUE(r.atEnd());
}

TEST(KvMessages, PutResponseRoundTrip) {
  const kv::PutResponseBody b{
      .requestId = 9, .ok = false, .conflictDetected = true, .view = {}};
  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  const auto back = kv::PutResponseBody::readFrom(r);
  EXPECT_EQ(back.requestId, 9u);
  EXPECT_FALSE(back.ok);
  EXPECT_TRUE(back.conflictDetected);
}

TEST(KvMessages, GetRoundTrip) {
  kv::GetRequestBody req{5, "k"};
  ByteWriter w;
  req.writeTo(w);
  ByteReader r(w.view());
  EXPECT_EQ(kv::GetRequestBody::readFrom(r).key, "k");

  kv::GetResponseBody resp;
  resp.requestId = 5;
  resp.value = Value("data");
  ByteWriter w2;
  resp.writeTo(w2);
  ByteReader r2(w2.view());
  const auto back = kv::GetResponseBody::readFrom(r2);
  EXPECT_EQ(back.value, Value("data"));

  kv::GetResponseBody miss;
  miss.requestId = 6;
  ByteWriter w3;
  miss.writeTo(w3);
  ByteReader r3(w3.view());
  EXPECT_EQ(kv::GetResponseBody::readFrom(r3).value, std::nullopt);
}

TEST(KvMessages, SnapshotRequestRoundTrip) {
  core::SnapshotRequest req;
  req.id = 42;
  req.target = {123456, 7};
  req.kind = core::SnapshotKind::kRolling;
  req.baseId = 41;
  req.storeName = "store";
  kv::SnapshotRequestBody b{req};
  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  const auto back = kv::SnapshotRequestBody::readFrom(r);
  EXPECT_EQ(back.request.id, 42u);
  EXPECT_EQ(back.request.target, (hlc::Timestamp{123456, 7}));
  EXPECT_EQ(back.request.kind, core::SnapshotKind::kRolling);
  EXPECT_EQ(back.request.baseId, std::optional<core::SnapshotId>(41));
  EXPECT_EQ(back.request.storeName, "store");
}

TEST(KvMessages, SnapshotRequestNoBase) {
  core::SnapshotRequest req;
  req.id = 1;
  kv::SnapshotRequestBody b{req};
  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  EXPECT_FALSE(kv::SnapshotRequestBody::readFrom(r).request.baseId.has_value());
}

TEST(KvMessages, SnapshotAckRoundTrip) {
  kv::SnapshotAckBody b;
  b.ack = {11, 3, core::LocalSnapshotStatus::kOutOfReach, 999};
  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  const auto back = kv::SnapshotAckBody::readFrom(r);
  EXPECT_EQ(back.ack.id, 11u);
  EXPECT_EQ(back.ack.node, 3u);
  EXPECT_EQ(back.ack.status, core::LocalSnapshotStatus::kOutOfReach);
  EXPECT_EQ(back.ack.persistedBytes, 999u);
}

TEST(KvMessages, ProgressRoundTrip) {
  kv::ProgressReplyBody b{7, core::LocalSnapshotStatus::kPending, 2};
  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  const auto back = kv::ProgressReplyBody::readFrom(r);
  EXPECT_EQ(back.stage, 2);
  EXPECT_EQ(back.status, core::LocalSnapshotStatus::kPending);
}

TEST(KvMessages, PutCarriesViewEpochAndStaleViewReply) {
  kv::PutRequestBody req;
  req.requestId = 12;
  req.key = "k";
  req.value = "v";
  req.viewEpoch = 41;
  ByteWriter w;
  req.writeTo(w);
  ByteReader r(w.view());
  EXPECT_EQ(kv::PutRequestBody::readFrom(r).viewEpoch, 41u);

  // A stale-epoch reply ships the full view so the client can re-derive
  // its ring without a separate fetch.
  kv::PutResponseBody resp;
  resp.requestId = 12;
  resp.viewEpoch = 42;
  kv::MembershipView view({0, 1, 2});
  view.setStatus(2, kv::MemberStatus::kLeaving);
  resp.view = view;
  ByteWriter w2;
  resp.writeTo(w2);
  ByteReader r2(w2.view());
  const auto back = kv::PutResponseBody::readFrom(r2);
  EXPECT_EQ(back.viewEpoch, 42u);
  ASSERT_TRUE(back.view.has_value());
  EXPECT_EQ(back.view->epoch(), view.epoch());
  EXPECT_EQ(back.view->statusOf(2), kv::MemberStatus::kLeaving);
  EXPECT_TRUE(r2.atEnd());
}

TEST(KvMessages, GetCarriesViewEpochAndOmitsFreshView) {
  kv::GetRequestBody req{8, "k", /*viewEpoch=*/7};
  ByteWriter w;
  req.writeTo(w);
  ByteReader r(w.view());
  EXPECT_EQ(kv::GetRequestBody::readFrom(r).viewEpoch, 7u);

  // Fresh-epoch replies omit the view entirely (the common case must
  // not pay the digest's wire cost).
  kv::GetResponseBody resp;
  resp.requestId = 8;
  resp.value = Value("data");
  resp.viewEpoch = 7;
  ByteWriter w2;
  resp.writeTo(w2);
  ByteReader r2(w2.view());
  const auto back = kv::GetResponseBody::readFrom(r2);
  EXPECT_EQ(back.viewEpoch, 7u);
  EXPECT_FALSE(back.view.has_value());
  EXPECT_TRUE(r2.atEnd());
}

TEST(KvMessages, GossipRoundTripPreservesRecords) {
  kv::MembershipView view({0, 1, 2, 3});
  view.setStatus(1, kv::MemberStatus::kSuspect);
  view.setStatus(3, kv::MemberStatus::kJoining);
  view.beatHeartbeat(0);
  view.beatHeartbeat(0);
  kv::GossipBody b{view};
  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  const auto back = kv::GossipBody::readFrom(r);
  EXPECT_EQ(back.view.epoch(), view.epoch());
  ASSERT_EQ(back.view.records().size(), 4u);
  for (const auto& [node, rec] : view.records()) {
    const auto* got = back.view.find(node);
    ASSERT_NE(got, nullptr) << "node " << node;
    EXPECT_EQ(got->status, rec.status);
    EXPECT_EQ(got->statusEpoch, rec.statusEpoch);
    EXPECT_EQ(got->heartbeat, rec.heartbeat);
  }
  EXPECT_TRUE(r.atEnd());
}

TEST(KvMessages, JoinRequestResponseRoundTrip) {
  kv::JoinRequestBody req{9};
  ByteWriter w;
  req.writeTo(w);
  ByteReader r(w.view());
  EXPECT_EQ(kv::JoinRequestBody::readFrom(r).node, 9u);

  kv::MembershipView view({0, 1});
  view.setStatus(9, kv::MemberStatus::kJoining);
  kv::JoinResponseBody resp{view};
  ByteWriter w2;
  resp.writeTo(w2);
  ByteReader r2(w2.view());
  const auto back = kv::JoinResponseBody::readFrom(r2);
  EXPECT_EQ(back.view.statusOf(9), kv::MemberStatus::kJoining);
  EXPECT_TRUE(r2.atEnd());
}

TEST(KvMessages, TransferChunkRoundTripWithHistory) {
  kv::TransferChunkBody b;
  b.transferId = 501;
  b.source = 2;
  b.chunkSeq = 3;
  b.done = false;
  b.sourceFloor = {777, 4};
  kv::TransferItemWire item;
  item.key = "user:42";
  item.value = "current";
  item.version.increment(2);
  item.history.push_back(
      {"user:42", std::nullopt, Value("first"), {100, 0}});
  item.history.push_back(
      {"user:42", Value("first"), Value("current"), {200, 1}});
  b.items.push_back(item);

  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  const auto back = kv::TransferChunkBody::readFrom(r);
  EXPECT_EQ(back.transferId, 501u);
  EXPECT_EQ(back.source, 2u);
  EXPECT_EQ(back.chunkSeq, 3u);
  EXPECT_FALSE(back.done);
  EXPECT_EQ(back.sourceFloor, (hlc::Timestamp{777, 4}));
  ASSERT_EQ(back.items.size(), 1u);
  const auto& got = back.items[0];
  EXPECT_EQ(got.key, "user:42");
  EXPECT_EQ(got.value, "current");
  EXPECT_EQ(got.version, item.version);
  ASSERT_EQ(got.history.size(), 2u);
  EXPECT_EQ(got.history[0].oldValue, std::nullopt);
  EXPECT_EQ(got.history[0].newValue, Value("first"));
  EXPECT_EQ(got.history[0].ts, (hlc::Timestamp{100, 0}));
  EXPECT_EQ(got.history[1].oldValue, Value("first"));
  EXPECT_EQ(got.history[1].ts, (hlc::Timestamp{200, 1}));
  EXPECT_TRUE(r.atEnd());
}

TEST(KvMessages, TransferChunkFinalMarkerRoundTrip) {
  kv::TransferChunkBody b;
  b.transferId = 502;
  b.chunkSeq = 9;
  b.done = true;  // terminal chunk may carry zero items
  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  const auto back = kv::TransferChunkBody::readFrom(r);
  EXPECT_TRUE(back.done);
  EXPECT_TRUE(back.items.empty());
}

TEST(KvMessages, TransferAckRoundTrip) {
  kv::TransferAckBody b{501, 3, false};
  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  const auto back = kv::TransferAckBody::readFrom(r);
  EXPECT_EQ(back.transferId, 501u);
  EXPECT_EQ(back.chunkSeq, 3u);
  EXPECT_FALSE(back.accepted);
  EXPECT_TRUE(r.atEnd());
}

TEST(GridMessages, MapPutRoundTrip) {
  grid::MapPutBody b{3, "key", "value"};
  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  const auto back = grid::MapPutBody::readFrom(r);
  EXPECT_EQ(back.requestId, 3u);
  EXPECT_EQ(back.key, "key");
  EXPECT_EQ(back.value, "value");
}

TEST(GridMessages, MapResponseWithAndWithoutValue) {
  grid::MapResponseBody b{1, true, Value("v")};
  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  EXPECT_EQ(grid::MapResponseBody::readFrom(r).value, Value("v"));

  grid::MapResponseBody miss{2, false, std::nullopt};
  ByteWriter w2;
  miss.writeTo(w2);
  ByteReader r2(w2.view());
  const auto back = grid::MapResponseBody::readFrom(r2);
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.value, std::nullopt);
}

TEST(GridMessages, BackupReplicateRoundTrip) {
  grid::BackupReplicateBody b{137, "k", "v"};
  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  const auto back = grid::BackupReplicateBody::readFrom(r);
  EXPECT_EQ(back.partition, 137u);
}

TEST(GridMessages, SnapshotStartRoundTrip) {
  core::SnapshotRequest req;
  req.id = 5;
  req.target = {999, 1};
  grid::GridSnapshotStartBody b{req};
  ByteWriter w;
  b.writeTo(w);
  ByteReader r(w.view());
  EXPECT_EQ(grid::GridSnapshotStartBody::readFrom(r).request.target,
            (hlc::Timestamp{999, 1}));
}

// --- decode-or-reject on every receive path ---

constexpr uint64_t kHugeCount = uint64_t{1} << 40;

/// One valid encoding of a body type, its decoder, encodings that stop
/// at a count field claiming 2^40 items, and encodings with one enum
/// field's byte past its last value.
struct WireSample {
  uint32_t type = 0;
  std::string body;
  std::function<void(ByteReader&)> decode;
  std::vector<std::string> hugeCounts;
  std::vector<std::string> badEnums;
};

/// `fields` as varints, then a count of 2^40.  A u8 flag, an empty
/// string and each byte of a zero timestamp also encode as one small
/// varint, so any prefix of fields can be written this way.
std::string hugeCountAfter(std::vector<uint64_t> fields) {
  ByteWriter w;
  for (uint64_t f : fields) w.writeVarU64(f);
  w.writeVarU64(kHugeCount);
  return w.take();
}

template <typename Body>
std::string encode(const Body& body) {
  ByteWriter w;
  body.writeTo(w);
  return w.take();
}

template <typename Body>
WireSample sample(uint32_t type, const Body& body,
                  std::vector<std::string> hugeCounts = {},
                  std::vector<Body> badEnums = {}) {
  std::vector<std::string> bad;
  for (const Body& b : badEnums) bad.push_back(encode(b));
  return {type, encode(body), [](ByteReader& r) { Body::readFrom(r); },
          std::move(hugeCounts), std::move(bad)};
}

template <typename Enum>
Enum pastLast(Enum last) {
  return static_cast<Enum>(static_cast<uint8_t>(last) + 1);
}

/// Every kv body type, in MsgType order, with its collections non-empty
/// and its optional fields present.
std::vector<WireSample> kvSamples() {
  kv::VersionVector vv;
  vv.increment(3);
  kv::MembershipView view({0, 1, 2});
  kv::MembershipView badView = view;
  badView.setStatus(1, pastLast(kv::MemberStatus::kDead));
  core::SnapshotRequest req{42, {1234, 5}, core::SnapshotKind::kRolling, 41,
                            "store", 2};
  core::SnapshotRequest badReq = req;
  badReq.kind = pastLast(core::SnapshotKind::kRolling);
  const auto badStatus = pastLast(core::LocalSnapshotStatus::kRebalancing);
  kv::TransferItemWire item{"k", "v", vv, {{"k", std::nullopt, "v", {9, 1}}}};
  // Transfer id, source, chunk seq, done flag, 8-byte source floor; then
  // one item with an empty key and value and no version entries.
  const std::vector<uint64_t> chunkHead = {1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  std::vector<uint64_t> historyHead = chunkHead;
  historyHead.insert(historyHead.end(), {1, 0, 0, 0});
  return {
      sample(kv::kPutRequest, kv::PutRequestBody{7, "user:1", "value", vv, 3},
             {hugeCountAfter({7, 0, 0})}),
      sample(kv::kPutResponse, kv::PutResponseBody{7, true, false, 2, view},
             {hugeCountAfter({7, 1, 0, 2, 1})}),
      sample(kv::kGetRequest, kv::GetRequestBody{5, "user:1", 2}),
      sample(kv::kGetResponse, kv::GetResponseBody{5, "data", vv, 2, view},
             {hugeCountAfter({5, 0})}),
      sample(kv::kSnapshotRequest, kv::SnapshotRequestBody{req}, {},
             {kv::SnapshotRequestBody{badReq}}),
      sample(kv::kSnapshotAck,
             kv::SnapshotAckBody{
                 {42, 1, core::LocalSnapshotStatus::kComplete, 999}},
             {}, {kv::SnapshotAckBody{{42, 1, badStatus, 999}}}),
      sample(kv::kProgressRequest, kv::ProgressRequestBody{42}),
      sample(kv::kProgressReply,
             kv::ProgressReplyBody{42, core::LocalSnapshotStatus::kPending, 1},
             {},
             {kv::ProgressReplyBody{42, badStatus, 1},
              kv::ProgressReplyBody{42, core::LocalSnapshotStatus::kPending,
                                    4}}),
      sample(kv::kRepairRequest, kv::RepairRequestBody{11, {"a", "b"}},
             {hugeCountAfter({11})}),
      sample(kv::kRepairResponse,
             kv::RepairResponseBody{
                 11, {{"a", true, "va", vv}, {"b", false, "", {}}}},
             {hugeCountAfter({11})}),
      sample(kv::kQueryRequest, kv::QueryRequestBody{3, "COUNT(*) AT 5"}),
      sample(kv::kQueryReply,
             kv::QueryReplyBody{3, StatusCode::kOk, "", {{{9, 1}, {}}}, 10, 2},
             {hugeCountAfter({3, 0, 0})},
             {kv::QueryReplyBody{3, pastLast(StatusCode::kInvalidArgument),
                                 "", {}, 10, 2}}),
      sample(kv::kGossip, kv::GossipBody{view}, {hugeCountAfter({})},
             {kv::GossipBody{badView}}),
      sample(kv::kJoinRequest, kv::JoinRequestBody{9}),
      sample(kv::kJoinResponse, kv::JoinResponseBody{view},
             {hugeCountAfter({})}),
      sample(kv::kTransferChunk,
             kv::TransferChunkBody{501, 2, 3, false, {777, 4}, {item}},
             {hugeCountAfter(chunkHead), hugeCountAfter(historyHead)}),
      sample(kv::kTransferAck, kv::TransferAckBody{501, 3, true}),
  };
}

/// Every grid body type, in GridMsgType order.
std::vector<WireSample> gridSamples() {
  core::SnapshotRequest req{5, {999, 1}, core::SnapshotKind::kFull, 4, "m", 0};
  core::SnapshotRequest badReq = req;
  badReq.kind = pastLast(core::SnapshotKind::kRolling);
  return {
      sample(grid::kMapPut, grid::MapPutBody{3, "key", "value"}),
      sample(grid::kMapGet, grid::MapGetBody{3, "key"}),
      sample(grid::kMapResponse, grid::MapResponseBody{3, true, "v"}),
      sample(grid::kBackupReplicate, grid::BackupReplicateBody{137, "k", "v"}),
      sample(grid::kHeartbeat, grid::HeartbeatBody{12}),
      sample(grid::kSnapshotStart, grid::GridSnapshotStartBody{req}, {},
             {grid::GridSnapshotStartBody{badReq}}),
      sample(grid::kSnapshotAck,
             grid::GridSnapshotAckBody{
                 {5, 2, core::LocalSnapshotStatus::kComplete, 64}},
             {},
             {grid::GridSnapshotAckBody{
                 {5, 2, pastLast(core::LocalSnapshotStatus::kRebalancing),
                  64}}}),
  };
}

TEST(WireDecode, EveryProperPrefixThrowsOutOfRange) {
  auto samples = kvSamples();
  for (auto& s : gridSamples()) samples.push_back(std::move(s));
  ASSERT_EQ(samples.size(), 17u + 7u);
  for (const auto& s : samples) {
    ByteReader whole(s.body);
    s.decode(whole);
    EXPECT_TRUE(whole.atEnd()) << "type " << s.type;
    for (size_t len = 0; len < s.body.size(); ++len) {
      ByteReader r(std::string_view(s.body).substr(0, len));
      EXPECT_THROW(s.decode(r), std::out_of_range)
          << "type " << s.type << " cut at " << len;
    }
  }
}

TEST(WireDecode, HugeCountThrowsOutOfRangeBeforeAllocating) {
  size_t checked = 0;
  for (const auto& s : kvSamples()) {
    for (const std::string& huge : s.hugeCounts) {
      ByteReader r(huge);
      EXPECT_THROW(s.decode(r), std::out_of_range) << "type " << s.type;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 10u);
  const std::string hugeClock = hugeCountAfter({});
  ByteReader clock(hugeClock);
  EXPECT_THROW(hlc::VectorClock::readFrom(clock), std::out_of_range);
}

TEST(WireDecode, OutOfRangeEnumByteThrowsOutOfRange) {
  auto samples = kvSamples();
  for (auto& s : gridSamples()) samples.push_back(std::move(s));
  size_t checked = 0;
  for (const auto& s : samples) {
    for (const std::string& bad : s.badEnums) {
      ByteReader r(bad);
      EXPECT_THROW(s.decode(r), std::out_of_range) << "type " << s.type;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 8u);
}

/// The largest header a 64-bit packed timestamp holds: a clock that
/// ticked on it would promote into l = 2^48, which no send can pack.
constexpr hlc::Timestamp kMaxHeader{(int64_t{1} << 48) - 1,
                                    hlc::Timestamp::kMaxLogical};

/// `body` behind an HLC header far ahead of every clock: a message that
/// wrongly reached a receive tick would move the receiver's HLC.
std::string withHeader(const std::string& body,
                       hlc::Timestamp header = {int64_t{1} << 40, 0}) {
  ByteWriter w;
  header.writeTo(w);
  w.writeRaw(body);
  return w.take();
}

/// Sends each sample from `from` to `to` cut at every shorter length,
/// once with a trailing byte, once behind kMaxHeader and once per
/// out-of-range enum; returns how many messages that was.
uint64_t sendMangled(runtime::ExecutionContext& ctx, NodeId from, NodeId to,
                     const std::vector<WireSample>& samples) {
  uint64_t sent = 0;
  const auto sendOne = [&](uint32_t type, std::string payload) {
    ctx.send(runtime::Message{from, to, type, std::move(payload)});
    ++sent;
  };
  for (const auto& s : samples) {
    const std::string wire = withHeader(s.body);
    for (size_t len = 0; len < wire.size(); ++len) {
      sendOne(s.type, wire.substr(0, len));
    }
    sendOne(s.type, wire + '\0');
    sendOne(s.type, withHeader(s.body, kMaxHeader));
    for (const std::string& bad : s.badEnums) {
      sendOne(s.type, withHeader(bad));
    }
  }
  return sent;
}

TEST(MalformedMessages, KvNodesDropAndCountWithoutStateChange) {
  kv::ClusterConfig cfg;
  cfg.servers = 2;
  cfg.clients = 1;
  kv::VoldemortCluster cluster(cfg);
  cluster.preload(16, 8);
  cluster.client(0).put("k", "v", [](bool, TimeMicros) {});
  cluster.env().run();
  kv::VoldemortServer& server = cluster.server(0);
  const auto store = server.bdb().data();
  const uint64_t appends = server.retroscope().appendCount();
  const hlc::Timestamp serverHlc = server.retroscope().now();
  const hlc::Timestamp clientHlc = cluster.client(0).clock().current();
  const hlc::Timestamp adminHlc = cluster.admin().clock().current();

  const auto samples = kvSamples();
  auto& ctx = cluster.context();
  const uint64_t toServer = sendMangled(ctx, 1, 0, samples);
  const uint64_t toClient = sendMangled(ctx, 1, cluster.clientId(0), samples);
  const uint64_t toAdmin = sendMangled(ctx, 1, cluster.adminId(), samples);
  cluster.env().run();

  EXPECT_EQ(server.malformedMessages(), toServer);
  EXPECT_EQ(cluster.client(0).malformedMessages(), toClient);
  EXPECT_EQ(cluster.admin().malformedMessages(), toAdmin);
  EXPECT_EQ(server.bdb().data(), store);
  EXPECT_EQ(server.retroscope().appendCount(), appends);
  EXPECT_EQ(server.retroscope().now(), serverHlc);
  EXPECT_EQ(cluster.client(0).clock().current(), clientHlc);
  EXPECT_EQ(cluster.admin().clock().current(), adminHlc);
}

TEST(MalformedMessages, GridNodesDropAndCountWithoutStateChange) {
  grid::GridConfig cfg;
  cfg.clients = 1;
  cfg.heartbeats = false;
  grid::GridCluster cluster(cfg);
  cluster.preload(64, 8);
  cluster.client(0).put(grid::GridCluster::keyOf(1), "v",
                        [](bool, TimeMicros) {});
  cluster.env().run();
  grid::GridMember& member = cluster.member(0);
  grid::GridClient& client = cluster.client(0);
  const auto memberState = [&] {
    std::map<uint32_t, std::unordered_map<Key, Value>> state;
    for (uint32_t p = 0; p < grid::GridCluster::kPartitions; ++p) {
      if (const auto* data = member.partitionData(p)) state[p] = *data;
    }
    return state;
  };
  const auto store = memberState();
  const uint64_t appends = member.retroscope().appendCount();
  const hlc::Timestamp memberHlc = member.retroscope().now();
  const hlc::Timestamp clientHlc = client.clock().current();

  const auto samples = gridSamples();
  auto& ctx = cluster.context();
  const uint64_t toMember = sendMangled(ctx, 1, member.id(), samples);
  const uint64_t toClient = sendMangled(ctx, 1, client.id(), samples);
  cluster.env().run();

  EXPECT_EQ(member.malformedMessages(), toMember);
  EXPECT_EQ(client.malformedMessages(), toClient);
  EXPECT_EQ(memberState(), store);
  EXPECT_EQ(member.retroscope().appendCount(), appends);
  EXPECT_EQ(member.retroscope().now(), memberHlc);
  EXPECT_EQ(client.clock().current(), clientHlc);
}

/// A get for "k" from `from` to `to` behind `header`.
runtime::Message getBehind(NodeId from, NodeId to, hlc::Timestamp header) {
  return {from, to, kv::kGetRequest,
          withHeader(encode(kv::GetRequestBody{1, "k", 0}), header)};
}

TEST(MalformedMessages, OverflowingHlcHeaderIsDroppedAndCounted) {
  kv::ClusterConfig cfg;
  cfg.servers = 1;
  cfg.clients = 1;
  cfg.client.replicas = 1;
  cfg.client.requiredWrites = 1;
  cfg.client.requiredReads = 1;
  kv::VoldemortCluster cluster(cfg);
  cluster.client(0).put("k", "v", [](bool, TimeMicros) {});
  cluster.env().run();
  cluster.context().send(getBehind(cluster.clientId(0), 0, kMaxHeader));
  // A get sent after it is still served.
  OptValue got;
  cluster.client(0).get("k", [&](bool, TimeMicros, OptValue v) { got = v; });
  cluster.env().run();
  kv::VoldemortServer& server = cluster.server(0);
  EXPECT_EQ(got, OptValue("v"));
  EXPECT_EQ(server.malformedMessages(), 1u);
  EXPECT_LT(server.retroscope().now().l, hlc::kMaxReceivedMillis);
}

TEST(MalformedMessages, RealtimeServerSurvivesOverflowingHlcHeader) {
  kv::RealtimeClusterConfig cfg;
  cfg.servers = 1;
  cfg.clients = 1;
  cfg.client.replicas = 1;
  cfg.client.requiredWrites = 1;
  cfg.client.requiredReads = 1;
  kv::RealtimeKvCluster cluster(cfg);
  cluster.start();
  cluster.context().send(
      getBehind(cluster.clientId(0), cluster.serverId(0), kMaxHeader));
  std::atomic<int> getResult{0};
  cluster.context().post(cluster.clientId(0), [&] {
    cluster.client(0).get("k", [&](bool ok, TimeMicros, OptValue) {
      getResult.store(ok ? 1 : 2);
    });
  });
  ASSERT_TRUE(runtime::waitForCondition([&] { return getResult.load() != 0; }));
  cluster.stop();
  EXPECT_EQ(getResult.load(), 1);
  EXPECT_EQ(cluster.server(0).malformedMessages(), 1u);
  EXPECT_LT(cluster.server(0).retroscope().now().l, hlc::kMaxReceivedMillis);
}

// A snapshot request whose kind byte names no SnapshotKind, against a
// stored base, is dropped at decode: it must neither run nor complete.
TEST(MalformedMessages, SnapshotRequestWithUnknownKindIsDropped) {
  kv::ClusterConfig cfg;
  cfg.servers = 1;
  cfg.clients = 1;
  kv::VoldemortCluster cluster(cfg);
  cluster.preload(16, 8);
  const core::SnapshotId baseId =
      cluster.admin().snapshotNow([](const core::SnapshotSession&) {});
  cluster.env().run();
  kv::VoldemortServer& server = cluster.server(0);
  ASSERT_EQ(server.snapshotsCompleted(), 1u);

  const core::SnapshotId probeId = baseId + 100;
  core::SnapshotRequest req{probeId, server.retroscope().now(),
                            pastLast(core::SnapshotKind::kRolling), baseId,
                            "store", 0};
  cluster.context().send(runtime::Message{
      cluster.adminId(), 0, kv::kSnapshotRequest,
      withHeader(encode(kv::SnapshotRequestBody{req}),
                 cluster.admin().clock().current())});
  cluster.env().run();
  EXPECT_EQ(server.malformedMessages(), 1u);
  EXPECT_EQ(server.snapshotsCompleted(), 1u);
  EXPECT_FALSE(server.snapshots().contains(probeId));
}

TEST(MalformedMessages, RealtimeServerSurvivesThreeBytePut) {
  kv::RealtimeClusterConfig cfg;
  cfg.servers = 1;
  cfg.clients = 1;
  cfg.client.replicas = 1;
  cfg.client.requiredWrites = 1;
  kv::RealtimeKvCluster cluster(cfg);
  cluster.start();
  // Three bytes cannot even hold the HLC header.
  cluster.context().send(runtime::Message{
      cluster.clientId(0), cluster.serverId(0), kv::kPutRequest, "abc"});
  // A put queued behind it still completes: the server kept serving.
  std::atomic<int> putResult{0};
  cluster.context().post(cluster.clientId(0), [&] {
    cluster.client(0).put("k", "v", [&](bool ok, TimeMicros) {
      putResult.store(ok ? 1 : 2);
    });
  });
  ASSERT_TRUE(runtime::waitForCondition([&] { return putResult.load() != 0; }));
  cluster.stop();
  EXPECT_EQ(putResult.load(), 1);
  EXPECT_EQ(cluster.server(0).malformedMessages(), 1u);
}

}  // namespace
}  // namespace retro
