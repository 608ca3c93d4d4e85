#include "kvstore/membership.hpp"

#include <algorithm>

namespace retro::kv {

const char* memberStatusName(MemberStatus status) {
  switch (status) {
    case MemberStatus::kJoining: return "joining";
    case MemberStatus::kActive: return "active";
    case MemberStatus::kLeaving: return "leaving";
    case MemberStatus::kLeft: return "left";
    case MemberStatus::kSuspect: return "suspect";
    case MemberStatus::kDead: return "dead";
  }
  return "?";
}

void MemberRecord::writeTo(ByteWriter& w) const {
  w.writeU8(static_cast<uint8_t>(status));
  w.writeVarU64(heartbeat);
  w.writeVarU64(statusEpoch);
}

MemberRecord MemberRecord::readFrom(ByteReader& r) {
  MemberRecord rec;
  rec.status = r.readBounded(MemberStatus::kDead);
  rec.heartbeat = r.readVarU64();
  rec.statusEpoch = r.readVarU64();
  return rec;
}

MembershipView::MembershipView(const std::vector<NodeId>& members) {
  for (NodeId n : members) {
    records_[n] = {MemberStatus::kActive, 0, 1};
  }
  epoch_ = members.empty() ? 0 : 1;
}

const MemberRecord* MembershipView::find(NodeId node) const {
  const auto it = records_.find(node);
  return it == records_.end() ? nullptr : &it->second;
}

std::optional<MemberStatus> MembershipView::statusOf(NodeId node) const {
  const MemberRecord* rec = find(node);
  if (rec == nullptr) return std::nullopt;
  return rec->status;
}

std::vector<NodeId> MembershipView::routableMembers() const {
  std::vector<NodeId> out;
  for (const auto& [node, rec] : records_) {
    if (isRoutable(rec.status)) out.push_back(node);
  }
  return out;
}

std::vector<NodeId> MembershipView::reachableMembers() const {
  std::vector<NodeId> out;
  for (const auto& [node, rec] : records_) {
    if (isRoutable(rec.status) && rec.status != MemberStatus::kDead) {
      out.push_back(node);
    }
  }
  return out;
}

uint64_t MembershipView::setStatus(NodeId node, MemberStatus status) {
  MemberRecord& rec = records_[node];
  rec.status = status;
  rec.statusEpoch = ++epoch_;
  return epoch_;
}

void MembershipView::beatHeartbeat(NodeId node) {
  const auto it = records_.find(node);
  if (it != records_.end()) ++it->second.heartbeat;
}

bool MembershipView::merge(const MembershipView& remote, NodeId self) {
  bool changed = false;
  // Our own pre-merge status: re-asserted if a peer marked us down (a
  // joining node stays joining, a leaving one stays leaving).
  std::optional<MemberStatus> priorSelf = statusOf(self);
  for (const auto& [node, theirs] : remote.records_) {
    const auto it = records_.find(node);
    if (it == records_.end()) {
      records_[node] = theirs;
      changed = true;
      continue;
    }
    MemberRecord& ours = it->second;
    if (theirs.statusEpoch > ours.statusEpoch) {
      ours.status = theirs.status;
      ours.statusEpoch = theirs.statusEpoch;
      changed = true;
    }
    if (theirs.heartbeat > ours.heartbeat) {
      ours.heartbeat = theirs.heartbeat;
      changed = true;
    }
  }
  for (const auto& [node, rec] : records_) {
    epoch_ = std::max(epoch_, rec.statusEpoch);
  }
  // Refute remote suspicion about ourselves: we are demonstrably alive,
  // so re-assert liveness at a fresh epoch (kLeft is terminal though —
  // once drained and gone, gone).  The trigger must include a remote
  // claim that merely TIES our epoch: dominance ignores ties, so after
  // we refute a suspicion at epoch e a peer's later dead-confirmation
  // can also land at e — without out-epoching the tied claim both sides
  // hold their status forever and the view never reconverges.
  const auto self_it = records_.find(self);
  const auto remote_self = remote.records_.find(self);
  const bool downed =
      self_it != records_.end() &&
      (self_it->second.status == MemberStatus::kSuspect ||
       self_it->second.status == MemberStatus::kDead);
  const bool tiedClaim =
      self_it != records_.end() && remote_self != remote.records_.end() &&
      (remote_self->second.status == MemberStatus::kSuspect ||
       remote_self->second.status == MemberStatus::kDead) &&
      remote_self->second.statusEpoch >= self_it->second.statusEpoch;
  if (downed || tiedClaim) {
    MemberStatus reassert = MemberStatus::kActive;
    if (priorSelf && *priorSelf != MemberStatus::kSuspect &&
        *priorSelf != MemberStatus::kDead) {
      reassert = *priorSelf;
    }
    if (reassert != MemberStatus::kLeft) {
      setStatus(self, reassert);
      beatHeartbeat(self);
      changed = true;
    }
  }
  return changed;
}

void MembershipView::writeTo(ByteWriter& w) const {
  w.writeVarU64(records_.size());
  for (const auto& [node, rec] : records_) {
    w.writeVarU64(node);
    rec.writeTo(w);
  }
}

MembershipView MembershipView::readFrom(ByteReader& r) {
  MembershipView view;
  const uint64_t count = r.readVarU64();
  for (uint64_t i = 0; i < count; ++i) {
    const NodeId node = static_cast<NodeId>(r.readVarU64());
    view.records_[node] = MemberRecord::readFrom(r);
    view.epoch_ = std::max(view.epoch_, view.records_[node].statusEpoch);
  }
  return view;
}

}  // namespace retro::kv
