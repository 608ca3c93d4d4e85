// Wire protocol of the Voldemort-like store.  Every message body begins
// with the sender's 8-byte HLC timestamp (written via Retroscope
// wrapHLC, split off by hlc::decodeMessage), exactly the paper's
// instrumentation: "adding HLC to the network protocol ... the client
// contacts the nodes and passes the timestamps along with each message".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "core/snapshot.hpp"
#include "core/temporal_query.hpp"
#include "hlc/timestamp.hpp"
#include "kvstore/membership.hpp"
#include "kvstore/version_vector.hpp"
#include "log/log_entry.hpp"

namespace retro::kv {

enum MsgType : uint32_t {
  kPutRequest = 1,
  kPutResponse,
  kGetRequest,
  kGetResponse,
  kSnapshotRequest,
  kSnapshotAck,
  kProgressRequest,
  kProgressReply,
  kRepairRequest,
  kRepairResponse,
  kQueryRequest,
  kQueryReply,
  // --- elastic membership (gossip, join/leave, key-range transfer) ---
  kGossip,
  kJoinRequest,
  kJoinResponse,
  kTransferChunk,
  kTransferAck,
};

// All bodies are serialized *after* the leading HLC timestamp, which the
// messaging helpers below leave to wrapHLC/hlc::decodeMessage.

struct PutRequestBody {
  uint64_t requestId = 0;
  Key key;
  Value value;
  VersionVector version;
  /// Membership view epoch the client routed under (0 = static ring).
  uint64_t viewEpoch = 0;

  void writeTo(ByteWriter& w) const;
  static PutRequestBody readFrom(ByteReader& r);
};

struct PutResponseBody {
  uint64_t requestId = 0;
  bool ok = true;
  bool conflictDetected = false;
  /// Server's current view epoch; when the request's epoch was stale the
  /// full view rides along so the client can re-derive its ring.
  uint64_t viewEpoch = 0;
  std::optional<MembershipView> view;

  void writeTo(ByteWriter& w) const;
  static PutResponseBody readFrom(ByteReader& r);
};

struct GetRequestBody {
  uint64_t requestId = 0;
  Key key;
  uint64_t viewEpoch = 0;

  void writeTo(ByteWriter& w) const;
  static GetRequestBody readFrom(ByteReader& r);
};

struct GetResponseBody {
  uint64_t requestId = 0;
  OptValue value;
  VersionVector version;
  uint64_t viewEpoch = 0;
  std::optional<MembershipView> view;

  void writeTo(ByteWriter& w) const;
  static GetResponseBody readFrom(ByteReader& r);
};

struct SnapshotRequestBody {
  core::SnapshotRequest request;

  void writeTo(ByteWriter& w) const;
  static SnapshotRequestBody readFrom(ByteReader& r);
};

struct SnapshotAckBody {
  core::SnapshotAck ack;

  void writeTo(ByteWriter& w) const;
  static SnapshotAckBody readFrom(ByteReader& r);
};

struct ProgressRequestBody {
  core::SnapshotId snapshotId = 0;

  void writeTo(ByteWriter& w) const;
  static ProgressRequestBody readFrom(ByteReader& r);
};

struct ProgressReplyBody {
  core::SnapshotId snapshotId = 0;
  core::LocalSnapshotStatus status = core::LocalSnapshotStatus::kPending;
  /// Which execution stage the node is in (Fig. 8): 0 copy, 1
  /// compaction, 2 application, 3 done.
  uint8_t stage = 0;

  void writeTo(ByteWriter& w) const;
  static ProgressReplyBody readFrom(ByteReader& r);
};

/// Anti-entropy repair: a server that quarantined corrupt records asks a
/// ring replica for its copies of the affected keys.
struct RepairRequestBody {
  uint64_t requestId = 0;
  std::vector<Key> keys;

  void writeTo(ByteWriter& w) const;
  static RepairRequestBody readFrom(ByteReader& r);
};

struct RepairResponseBody {
  struct Item {
    Key key;
    /// True if the replica holds the key; false is a vote that the key
    /// does not exist on this replica (distinct from "no answer" — keys
    /// the replica itself has quarantined are omitted entirely).
    bool known = false;
    Value value;
    VersionVector version;
  };

  uint64_t requestId = 0;
  std::vector<Item> items;

  void writeTo(ByteWriter& w) const;
  static RepairResponseBody readFrom(ByteReader& r);
};

/// Temporal query fan-out (§III-A conjunctive-predicate discipline
/// applied to querying): the initiator ships the query TEXT; every node
/// evaluates it against its own window-log and replies with per-step
/// partial aggregates.  States never travel.
struct QueryRequestBody {
  uint64_t queryId = 0;
  std::string queryText;

  void writeTo(ByteWriter& w) const;
  static QueryRequestBody readFrom(ByteReader& r);
};

/// Periodic (and change-triggered) membership digest: the sender's full
/// view.  Receivers merge by dominance rules and re-gossip on change.
struct GossipBody {
  MembershipView view;

  void writeTo(ByteWriter& w) const;
  static GossipBody readFrom(ByteReader& r);
};

/// A spare node asks a seed member for admission.
struct JoinRequestBody {
  NodeId node = 0;

  void writeTo(ByteWriter& w) const;
  static JoinRequestBody readFrom(ByteReader& r);
};

/// The seed's reply: the view with the joiner admitted as kJoining.
struct JoinResponseBody {
  MembershipView view;

  void writeTo(ByteWriter& w) const;
  static JoinResponseBody readFrom(ByteReader& r);
};

/// One unit of a key-range transfer stream (join rebalance or leave
/// drain): current value + version per key, plus the sender's surviving
/// window-log history for that key so the receiver's `diffToPast` can
/// still reach below the transfer point.
struct TransferItemWire {
  Key key;
  Value value;
  VersionVector version;
  std::vector<log::Entry> history;
};

struct TransferChunkBody {
  uint64_t transferId = 0;
  NodeId source = 0;
  uint64_t chunkSeq = 0;
  /// Last chunk of the stream (may carry zero items).
  bool done = false;
  /// The sender's window-log floor: the receiver cannot reconstruct the
  /// transferred keys below it either.
  hlc::Timestamp sourceFloor;
  std::vector<TransferItemWire> items;

  void writeTo(ByteWriter& w) const;
  static TransferChunkBody readFrom(ByteReader& r);
};

/// Per-chunk cumulative ack; the sender's stop-and-wait retransmission
/// makes transfers idempotent and resumable across crashes.
struct TransferAckBody {
  uint64_t transferId = 0;
  uint64_t chunkSeq = 0;
  bool accepted = true;

  void writeTo(ByteWriter& w) const;
  static TransferAckBody readFrom(ByteReader& r);
};

struct QueryReplyBody {
  uint64_t queryId = 0;
  /// Node-side evaluation status; non-OK replies carry a structured
  /// reason (e.g. the retained-window floor) and no steps.
  StatusCode statusCode = StatusCode::kOk;
  std::string reason;
  std::vector<core::TemporalStep> steps;
  /// Replay accounting for the initiator's cost/metrics reporting.
  uint64_t baseStateKeys = 0;
  uint64_t replayedKeys = 0;

  void writeTo(ByteWriter& w) const;
  static QueryReplyBody readFrom(ByteReader& r);
};

}  // namespace retro::kv
