// Gossip-based membership for the elastic ring: every server keeps a
// MembershipView — a per-member record of {status, heartbeat counter,
// status epoch} — and exchanges digests with random peers each gossip
// period plus eagerly on every local change.  Views merge by simple
// dominance rules (higher status epoch wins; heartbeats take the max),
// so all members converge on the same view without a coordinator.
//
// Status lifecycle:
//     kJoining -> kActive -> kLeaving -> kLeft
// with the failure-detector overlay kSuspect -> kDead applied by peers
// that stop hearing a member's heartbeat advance.  Only explicit
// join/leave trigger a rebalance; kDead marks a member unreachable (it
// drops out of fallback candidates) but deliberately does NOT move key
// ranges — death is often a partition, and moving data on suspicion
// would fight the scrub/repair protocol.
//
// The view epoch is the max status epoch across members: it bumps on
// every admission/activation/leave, and is what clients/admin compare
// to detect a stale routing view.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace retro::kv {

/// Knobs of the gossip/rebalance machinery.  Disabled by default: a
/// cluster without elastic membership runs exactly as before (no gossip
/// daemons, static ring).
struct MembershipConfig {
  bool enabled = false;
  /// Hand per-key window-log history off with each transfer so the new
  /// owner can answer diffToPast below the transfer point.  Disabling
  /// this (ablation/testing) forces the kRebalancing refusal path.
  bool handoffHistory = true;
};

enum class MemberStatus : uint8_t {
  kJoining = 0,  ///< admitted, receiving key-range transfers
  kActive = 1,   ///< full routing participant
  kLeaving = 2,  ///< draining key ranges to the remaining members
  kLeft = 3,     ///< drained and gone (terminal)
  kSuspect = 4,  ///< heartbeat stale past the suspicion window
  kDead = 5,     ///< suspicion confirmed; unreachable until it gossips
};

const char* memberStatusName(MemberStatus status);

/// True for statuses that participate in key routing.  kSuspect/kDead
/// members stay in the ring (their data has not moved); kJoining ones
/// are not routed to until their transfers complete.
inline bool isRoutable(MemberStatus s) {
  return s == MemberStatus::kActive || s == MemberStatus::kLeaving ||
         s == MemberStatus::kSuspect || s == MemberStatus::kDead;
}

struct MemberRecord {
  MemberStatus status = MemberStatus::kActive;
  /// Monotone liveness counter, bumped by the member itself every gossip
  /// period; peers suspect a member whose heartbeat stops advancing.
  uint64_t heartbeat = 0;
  /// Lamport-style epoch of the last *status* change; the higher epoch
  /// wins a merge, so status changes propagate exactly once.
  uint64_t statusEpoch = 0;

  void writeTo(ByteWriter& w) const;
  static MemberRecord readFrom(ByteReader& r);
};

class MembershipView {
 public:
  MembershipView() = default;
  /// Genesis view: every listed node active at epoch 1.
  explicit MembershipView(const std::vector<NodeId>& members);

  /// View epoch = max status epoch over all members.
  uint64_t epoch() const { return epoch_; }

  const std::map<NodeId, MemberRecord>& records() const { return records_; }
  const MemberRecord* find(NodeId node) const;
  std::optional<MemberStatus> statusOf(NodeId node) const;

  /// Members that currently participate in key routing (sorted).
  std::vector<NodeId> routableMembers() const;
  /// Routable members minus kDead — the nodes worth contacting.
  std::vector<NodeId> reachableMembers() const;

  /// Record a *local* status decision: sets `status` at epoch()+1 and
  /// returns the new view epoch.  Used by the member itself (join /
  /// activate / leave) and by the failure detector (suspect / confirm).
  uint64_t setStatus(NodeId node, MemberStatus status);

  /// Bump `node`'s own heartbeat (no epoch change).
  void beatHeartbeat(NodeId node);

  /// Merge a gossiped remote view.  Returns true if anything changed
  /// (the caller then re-gossips and re-derives its ring).  `self` is
  /// the merging node: remote claims about our own liveness (kSuspect /
  /// kDead) are refuted by bumping our heartbeat and re-asserting our
  /// status at a higher epoch — unless the remote says kLeft, which is
  /// terminal even for ourselves.
  bool merge(const MembershipView& remote, NodeId self);

  void writeTo(ByteWriter& w) const;
  static MembershipView readFrom(ByteReader& r);

 private:
  std::map<NodeId, MemberRecord> records_;
  uint64_t epoch_ = 0;
};

}  // namespace retro::kv
