#include "core/snapshot_store.hpp"

#include <cstdlib>

namespace retro::core {

void SnapshotStore::put(LocalSnapshot snapshot) {
  snapshots_[snapshot.id] = std::move(snapshot);
}

const LocalSnapshot* SnapshotStore::find(SnapshotId id) const {
  auto it = snapshots_.find(id);
  return it == snapshots_.end() ? nullptr : &it->second;
}

Status SnapshotStore::remove(SnapshotId id) {
  if (!snapshots_.contains(id)) {
    return Status(StatusCode::kNotFound,
                  "snapshot " + std::to_string(id) + " not stored");
  }
  for (const auto& [otherId, snap] : snapshots_) {
    if (otherId != id && snap.baseId && *snap.baseId == id) {
      return Status(StatusCode::kFailedPrecondition,
                    "snapshot " + std::to_string(id) + " is the base of " +
                        std::to_string(otherId));
    }
  }
  auto node = snapshots_.extract(id);
  if (disposer_) disposer_(std::move(node.mapped()));
  return Status::ok();
}

Result<std::unordered_map<Key, Value>> SnapshotStore::materialize(
    SnapshotId id) const {
  // Collect the chain of incremental deltas from `id` down to the
  // nearest materialized ancestor.
  std::vector<const LocalSnapshot*> chain;
  const LocalSnapshot* cur = find(id);
  while (cur != nullptr) {
    chain.push_back(cur);
    if (cur->kind != SnapshotKind::kIncremental) break;
    if (!cur->baseId) {
      return Status(StatusCode::kFailedPrecondition,
                    "incremental snapshot " + std::to_string(cur->id) +
                        " has no base");
    }
    cur = find(*cur->baseId);
  }
  if (chain.empty() || chain.back()->kind == SnapshotKind::kIncremental) {
    return Status(StatusCode::kNotFound,
                  "snapshot chain for " + std::to_string(id) +
                      " has no materialized base");
  }
  // Apply deltas base -> target.
  std::unordered_map<Key, Value> state = chain.back()->state;
  for (auto it = chain.rbegin() + 1; it != chain.rend(); ++it) {
    (*it)->delta.applyTo(state);
  }
  return state;
}

Status SnapshotStore::roll(SnapshotId baseId, SnapshotId newId,
                           hlc::Timestamp target, const log::DiffMap& delta) {
  auto it = snapshots_.find(baseId);
  if (it == snapshots_.end()) {
    return Status(StatusCode::kNotFound,
                  "rolling base " + std::to_string(baseId) + " not stored");
  }
  if (it->second.kind == SnapshotKind::kIncremental) {
    return Status(StatusCode::kFailedPrecondition,
                  "rolling base must be materialized");
  }
  for (const auto& [otherId, snap] : snapshots_) {
    if (snap.baseId && *snap.baseId == baseId) {
      return Status(StatusCode::kFailedPrecondition,
                    "rolling would orphan incremental snapshot " +
                        std::to_string(otherId));
    }
  }
  LocalSnapshot rolled = std::move(it->second);
  snapshots_.erase(it);
  delta.applyTo(rolled.state);
  rolled.id = newId;
  rolled.kind = SnapshotKind::kRolling;
  rolled.target = target;
  rolled.baseId.reset();
  rolled.persistedBytes += delta.dataBytes();
  snapshots_[newId] = std::move(rolled);
  return Status::ok();
}

std::vector<SnapshotId> SnapshotStore::ids() const {
  std::vector<SnapshotId> out;
  out.reserve(snapshots_.size());
  for (const auto& [id, snap] : snapshots_) out.push_back(id);
  return out;
}

size_t SnapshotStore::totalPersistedBytes() const {
  size_t total = 0;
  for (const auto& [id, snap] : snapshots_) total += snap.persistedBytes;
  return total;
}

std::optional<SnapshotId> SnapshotStore::nearest(hlc::Timestamp target) const {
  std::optional<SnapshotId> best;
  int64_t bestDist = 0;
  for (const auto& [id, snap] : snapshots_) {
    if (snap.kind == SnapshotKind::kIncremental) continue;  // not directly usable
    const int64_t dist = std::llabs(snap.target.l - target.l);
    if (!best || dist < bestDist) {
      best = id;
      bestDist = dist;
    }
  }
  return best;
}

}  // namespace retro::core
