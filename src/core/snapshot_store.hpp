// Node-local storage of completed snapshots, including incremental
// chains.  Materializing an incremental snapshot resolves its chain of
// deltas down to the nearest materialized ancestor (§IV-A: "the system
// takes the compacted log difference ... and computes the full state by
// applying the changes recorded in the compacted log to the base
// snapshot").
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "core/snapshot.hpp"

namespace retro::core {

class SnapshotStore {
 public:
  /// Store a completed snapshot; replaces any existing one with the id.
  void put(LocalSnapshot snapshot);

  bool contains(SnapshotId id) const { return snapshots_.contains(id); }
  const LocalSnapshot* find(SnapshotId id) const;

  /// Remove a snapshot. Fails with FAILED_PRECONDITION if another stored
  /// incremental snapshot uses it as a base (would orphan the chain).
  /// The removed snapshot goes to the disposer, if one is set.
  Status remove(SnapshotId id);

  /// Where remove() hands removed snapshots instead of destroying them
  /// inline: a server passes them to its context's dispose(), so freeing
  /// a large state never stalls its node thread.
  void setDisposer(std::function<void(LocalSnapshot&&)> disposer) {
    disposer_ = std::move(disposer);
  }

  /// Resolve a snapshot to full key-value state, walking incremental
  /// chains. Returns the state at the snapshot's target time.
  Result<std::unordered_map<Key, Value>> materialize(SnapshotId id) const;

  /// Rolling snapshot: replace `baseId` with a new snapshot whose state
  /// is base-state + delta, at target time `target` (the base is
  /// consumed, §III-A "without preserving the prior snapshot").
  Status roll(SnapshotId baseId, SnapshotId newId, hlc::Timestamp target,
              const log::DiffMap& delta);

  /// Ids of stored snapshots in increasing order.
  std::vector<SnapshotId> ids() const;
  size_t size() const { return snapshots_.size(); }

  /// Total bytes persisted across stored snapshots (storage accounting
  /// for the incremental-vs-full tradeoff benches).
  size_t totalPersistedBytes() const;

  /// Find the stored snapshot nearest to `target` (by |l| distance of
  /// HLC physical components) — used by speculative snapshots (§VII) to
  /// pick a reference base, and by concurrent-snapshot conversion.
  std::optional<SnapshotId> nearest(hlc::Timestamp target) const;

 private:
  std::map<SnapshotId, LocalSnapshot> snapshots_;
  std::function<void(LocalSnapshot&&)> disposer_;
};

}  // namespace retro::core
