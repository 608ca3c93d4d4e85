// A compacted difference between two points of a window-log (Fig. 6):
// per key, only the value that matters at the target point survives —
// all shadowed intermediate operations are eliminated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/types.hpp"
#include "hlc/timestamp.hpp"

namespace retro::log {

class DiffMap {
 public:
  using Map = std::unordered_map<Key, OptValue>;

  /// Set/overwrite the target value for `key`; nullopt means the key is
  /// absent (deleted / not yet created) at the target point.
  void set(const Key& key, OptValue value);

  /// Set only if the key is not already present (used when a scan meets
  /// the winning entry first); copies `value` only when it is kept.
  void setIfAbsent(const Key& key, const OptValue& value);

  bool contains(const Key& key) const { return map_.contains(key); }
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  const Map& entries() const { return map_; }

  /// Bytes of payload data carried (keys + surviving values).
  size_t dataBytes() const { return dataBytes_; }

  /// Apply this diff onto a materialized key-value state.
  void applyTo(std::unordered_map<Key, Value>& state) const;

  /// Remove entries and hand them to `sink`, about `budgetBytes` (at
  /// least one entry while any remain), in no fixed order; returns the
  /// bytes handed over.  An entry counts its key and twice its value, as
  /// a window-log entry counts its old and new values: applying it
  /// replaces the value it finds.  A large diff is applied this way one
  /// bounded task at a time.
  uint64_t drain(uint64_t budgetBytes,
                 const std::function<void(Key&&, OptValue&&)>& sink);

  /// Compose: apply `later` on top of this diff (entries in `later`
  /// overwrite).  Used to merge incremental snapshot deltas in a chain.
  void compose(const DiffMap& later);

 private:
  Map map_;
  size_t dataBytes_ = 0;
};

}  // namespace retro::log
