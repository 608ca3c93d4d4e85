// Synthetic JVM-heap model (substitution for the paper's Fig. 13
// behaviour): a node has a fixed heap limit; as live bytes approach the
// limit the collector consumes a growing fraction of CPU (reported as a
// slowdown factor for the node's Executor), and crossing the limit kills
// the node with an OutOfMemory failure — exactly the flat-then-collapse-
// then-death trajectory of Fig. 13.
#pragma once

#include <cstdint>

namespace retro::sim {

struct MemoryModelConfig {
  uint64_t heapLimitBytes = 2ULL << 30;  ///< the paper's 2 GB
  /// Utilization below which GC cost is negligible.
  double pressureThreshold = 0.65;
};

class MemoryModel {
 public:
  /// Shape of the GC-cost curve beyond the threshold; larger = sharper
  /// collapse near the limit.
  static constexpr double kGcSharpness = 2.0;
  /// Maximum slowdown before the heap limit is hit.
  static constexpr double kMaxSlowdown = 25.0;

  explicit MemoryModel(MemoryModelConfig config = {}) : config_(config) {}

  /// Update the live-bytes figure (window-logs + database + fixed
  /// baseline) and recompute GC state. Returns false once the node has
  /// died of OutOfMemory.
  bool setLiveBytes(uint64_t bytes);

  /// Fraction of the heap in use, [0, 1+].
  double utilization() const;

  /// Executor slowdown factor implied by current GC pressure (>= 1).
  double gcSlowdownFactor() const;

  /// True from the first update past the heap limit on.
  bool isOutOfMemory() const { return outOfMemory_; }

 private:
  MemoryModelConfig config_;
  uint64_t liveBytes_ = 0;
  bool outOfMemory_ = false;
};

}  // namespace retro::sim
