// Elastic membership: gossip, failure suspicion, join and leave.  The
// key-range streams a view change starts live in server_transfer.cpp.
#include "kvstore/server.hpp"

namespace retro::kv {

namespace {
/// Heartbeat + anti-entropy gossip period.
constexpr TimeMicros kGossipPeriodMicros = 150'000;
}  // namespace

void VoldemortServer::configureMembership(const MembershipView& genesis,
                                          NodeId adminId,
                                          size_t ringVirtualNodes) {
  if (!membershipEnabled()) return;
  view_ = genesis;
  adminId_ = adminId;
  hasAdmin_ = true;
  ringVirtualNodes_ = ringVirtualNodes;
  gossipRng_ = SplitMix64(0x6d656d6272736870ULL ^
                          (static_cast<uint64_t>(id_) + 1) * 0x9e3779b97f4a7c15ULL);
  if (view_.find(id_) != nullptr) {
    membershipStarted_ = true;
    // The admin was constructed with the genesis membership: no push.
    lastPushedEpoch_ = view_.epoch();
    onViewChanged(/*gossip=*/false);
  }
  ctx_->scheduleDaemon(id_, kGossipPeriodMicros,
                       [this] { membershipTick(); });
}

void VoldemortServer::onViewChanged(bool gossip) {
  membershipCounters_.add("membership.view_changes");
  auto routable = view_.routableMembers();
  if (!routable.empty()) ownRing_ = ringOver(std::move(routable));
  if (hasAdmin_ && alive_ && !left_ && view_.epoch() > lastPushedEpoch_) {
    lastPushedEpoch_ = view_.epoch();
    pushViewTo(adminId_);
  }
  maybeStartOutboundTransfers();
  if (gossip) gossipNow();
}

void VoldemortServer::membershipTick() {
  // Heartbeat silence before a peer is marked kSuspect / confirmed kDead.
  constexpr TimeMicros kSuspectAfterMicros = 600'000;
  constexpr TimeMicros kConfirmAfterMicros = 1'200'000;
  if (alive_ && membershipStarted_ && !left_) {
    const TimeMicros localNow = ctx_->now();
    bool changed = false;
    if (view_.find(id_) != nullptr) view_.beatHeartbeat(id_);
    for (const auto& [node, rec] : view_.records()) {
      if (node == id_ || rec.status == MemberStatus::kLeft) continue;
      auto [it, inserted] = lastBeat_.try_emplace(
          node, std::make_pair(rec.heartbeat, localNow));
      if (!inserted && rec.heartbeat > it->second.first) {
        it->second = {rec.heartbeat, localNow};
      }
      const TimeMicros silent = localNow - it->second.second;
      // Suspicion is epidemic: a heartbeat relayed through any peer
      // resets the timer, so a one-way link loss never confirms death.
      // A quiet joiner is never suspected (that would make it routable
      // half-transferred); it simply never activates.
      if (rec.status == MemberStatus::kActive ||
          rec.status == MemberStatus::kLeaving) {
        if (silent >= kSuspectAfterMicros) {
          view_.setStatus(node, MemberStatus::kSuspect);
          membershipCounters_.add("membership.suspects_marked");
          changed = true;
        }
      } else if (rec.status == MemberStatus::kSuspect &&
                 silent >= kConfirmAfterMicros) {
        view_.setStatus(node, MemberStatus::kDead);
        membershipCounters_.add("membership.deaths_confirmed");
        changed = true;
      }
    }
    if (joining_ && view_.find(id_) == nullptr) {
      // Admission raced with a dropped reply: ask the seed again.
      send(joinSeed_, kJoinRequest, JoinRequestBody{id_});
    }
    if (changed) {
      onViewChanged(/*gossip=*/true);
    } else {
      gossipNow();
    }
  }
  // Reschedules even while crashed (the daemon survives a restart);
  // stops for good once the node has left.
  if (!left_) {
    ctx_->scheduleDaemon(id_, kGossipPeriodMicros,
                         [this] { membershipTick(); });
  }
}

void VoldemortServer::gossipNow() {
  if (!alive_ || !membershipStarted_ || left_) return;
  // kSuspect/kDead stay candidates: a falsely-accused member can only
  // refute a claim it has seen.
  std::vector<NodeId> candidates;
  for (const auto& [node, rec] : view_.records()) {
    if (node != id_ && rec.status != MemberStatus::kLeft) {
      candidates.push_back(node);
    }
  }
  constexpr size_t kGossipFanout = 2;  // random peers per gossip round
  const size_t fanout = std::min(kGossipFanout, candidates.size());
  for (size_t i = 0; i < fanout; ++i) {
    const size_t j =
        i + static_cast<size_t>(gossipRng_.next() % (candidates.size() - i));
    std::swap(candidates[i], candidates[j]);
    pushViewTo(candidates[i]);
    membershipCounters_.add("membership.gossip_sent");
  }
}

void VoldemortServer::pushViewTo(NodeId peer) {
  send(peer, kGossip, GossipBody{view_});
}

void VoldemortServer::handleGossip(hlc::Timestamp /*eventTs*/,
                                   NodeId /*from*/, GossipBody body) {
  if (!membershipEnabled() || !membershipStarted_ || left_) return;
  const uint64_t before = view_.epoch();
  if (view_.merge(body.view, id_)) {
    membershipCounters_.add("membership.gossip_merged");
    if (joining_) noteAdmission();
    // Re-gossip eagerly only when the epoch moved (a status change);
    // heartbeat-only merges ride the periodic rounds.
    onViewChanged(/*gossip=*/view_.epoch() > before);
  }
}

void VoldemortServer::handleJoinRequest(hlc::Timestamp /*eventTs*/,
                                        NodeId from, JoinRequestBody body) {
  if (!membershipEnabled() || !membershipStarted_ || left_ || joining_) return;
  const auto status = view_.statusOf(body.node);
  if (status && *status == MemberStatus::kLeft) return;  // terminal
  if (!status) {
    view_.setStatus(body.node, MemberStatus::kJoining);
    membershipCounters_.add("membership.joins_admitted");
    onViewChanged(/*gossip=*/true);
  }
  // Answer (and re-answer duplicates) with the admitting view.
  send(from, kJoinResponse, JoinResponseBody{view_});
}

void VoldemortServer::handleJoinResponse(hlc::Timestamp /*eventTs*/,
                                         NodeId /*from*/,
                                         JoinResponseBody body) {
  if (!membershipEnabled() || !joining_ || left_) return;
  view_.merge(body.view, id_);
  noteAdmission();
  onViewChanged(/*gossip=*/false);
}

void VoldemortServer::noteAdmission() {
  if (!joining_ || joinSourcesInitialized_) return;
  const auto st = view_.statusOf(id_);
  if (!st || *st != MemberStatus::kJoining) return;
  joinSourcesInitialized_ = true;
  for (const auto& [node, rec] : view_.records()) {
    if (node == id_) continue;
    if (rec.status == MemberStatus::kActive ||
        rec.status == MemberStatus::kLeaving) {
      pendingJoinSources_.insert(node);
    }
  }
  if (pendingJoinSources_.empty()) activateSelf(/*historyIncomplete=*/false);
}

void VoldemortServer::beginJoin(NodeId seedMember) {
  if (!membershipEnabled() || membershipStarted_ || left_) return;
  membershipStarted_ = true;
  joining_ = true;
  joinSeed_ = seedMember;
  membershipCounters_.add("membership.joins_started");
  send(seedMember, kJoinRequest, JoinRequestBody{id_});
  armJoinTimeout();
}

void VoldemortServer::armJoinTimeout() {
  // A joiner activates anyway after this long, abandoning sources that
  // never finished (their history floor is lost: kRebalancing refusals
  // below the activation point).
  constexpr TimeMicros kJoinTimeoutMicros = 2'500'000;
  const uint64_t inc = incarnation_;
  ctx_->schedule(id_, kJoinTimeoutMicros, [this, inc] {
    if (!alive_ || incarnation_ != inc || !joining_) return;
    membershipCounters_.add("membership.join_timeouts");
    const bool abandoned =
        !pendingJoinSources_.empty() || !joinSourcesInitialized_;
    pendingJoinSources_.clear();
    joinSourcesInitialized_ = true;
    activateSelf(/*historyIncomplete=*/abandoned);
  });
}

void VoldemortServer::activateSelf(bool historyIncomplete) {
  if (!joining_) return;
  joining_ = false;
  if (historyIncomplete || sawHistorylessKeys_) {
    // Some inherited ranges carry no history below their hand-off point
    // (ablated hand-off, a trimmed or abandoned source): record the moved
    // floor so cuts below it get kRebalancing instead of a wrong answer.
    truncateLogToNow();
    const hlc::Timestamp floor = retroscope_.getLog(kStoreLog).floor();
    if (rebalanceFloor_ < floor) rebalanceFloor_ = floor;
    membershipCounters_.add("membership.floor_moves");
  }
  view_.setStatus(id_, MemberStatus::kActive);
  membershipCounters_.add("membership.joins_completed");
  updateMemoryModel();
  onViewChanged(/*gossip=*/true);
}

void VoldemortServer::beginLeave() {
  if (!membershipEnabled() || !membershipStarted_ || joining_ || leaving_ ||
      left_ || !alive_) {
    return;
  }
  leaving_ = true;
  membershipCounters_.add("membership.leaves_started");
  view_.setStatus(id_, MemberStatus::kLeaving);
  onViewChanged(/*gossip=*/true);
  // Drain: stream each key range (values + history) to the members that
  // inherit it once this node is gone.
  auto remaining = view_.routableMembers();
  remaining.erase(std::remove(remaining.begin(), remaining.end(), id_),
                  remaining.end());
  if (!remaining.empty()) {
    const Ring after = ringOver(remaining);
    for (NodeId dest : remaining) {
      if (view_.statusOf(dest) == MemberStatus::kDead) continue;
      startTransferTo(dest, after, /*drain=*/true);
    }
  }
  finishLeaveDrain();  // covers the zero-stream case
}

void VoldemortServer::finishLeaveDrain() {
  if (!leaving_ || left_) return;
  for (const auto& [tid, t] : outbound_) {
    if (t.drain) return;  // still draining
  }
  leaving_ = false;
  left_ = true;
  membershipCounters_.add("membership.leaves_completed");
  view_.setStatus(id_, MemberStatus::kLeft);
  // Final announcement to every reachable member and the admin (a random
  // fanout would race our own shutdown).
  for (const auto& [node, rec] : view_.records()) {
    if (node != id_ && rec.status != MemberStatus::kLeft &&
        rec.status != MemberStatus::kDead) {
      pushViewTo(node);
    }
  }
  if (hasAdmin_) pushViewTo(adminId_);
  ctx_->disconnect(id_);
}

void VoldemortServer::maybeStartOutboundTransfers() {
  if (!alive_ || !membershipStarted_ || joining_ || left_) return;
  const auto selfStatus = view_.statusOf(id_);
  if (!selfStatus || (*selfStatus != MemberStatus::kActive &&
                      *selfStatus != MemberStatus::kLeaving &&
                      *selfStatus != MemberStatus::kSuspect)) {
    return;  // only standing members seed joiners
  }
  for (const auto& [node, rec] : view_.records()) {
    if (node == id_ || rec.status != MemberStatus::kJoining) continue;
    if (!transferTargetsStarted_.insert(node).second) continue;
    // Every standing replica streams its share of the joiner's ranges;
    // the joiner reconciles duplicate copies by version vector.
    auto members = view_.routableMembers();
    if (std::find(members.begin(), members.end(), node) == members.end()) {
      members.push_back(node);
    }
    startTransferTo(node, ringOver(std::move(members)), /*drain=*/false);
  }
}

}  // namespace retro::kv
