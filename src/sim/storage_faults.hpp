// Storage-corruption fault model for the simulated disk and the durable
// formats layered on it.  Four anomaly classes, all seed-deterministic:
//
//   * torn writes   — at a crash point only a prefix of the last
//                     unsynced frame reaches the platter;
//   * bit rot       — a cold block silently flips a bit, discovered only
//                     when the block is next read (recovery scrub);
//   * transient read errors — a read fails once and succeeds on retry
//                     (charged as an extra disk pass);
//   * lying fsyncs  — the drive acks a flush it never performed, so the
//                     acked frame vanishes at the next crash.
//
// The model only *decides* faults; the durable formats (WalJournal,
// BdbStore) apply them to their real bytes so detection exercises the
// actual CRC32C framing rather than a simulated flag.  All probabilities
// default to zero: existing tests and benches are bit-identical until a
// scenario arms the model through the fuzz fault machinery.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.hpp"

namespace retro::sim {

struct StorageFaultConfig {
  uint64_t seed = 0;
  /// P(last durable frame is torn) evaluated at each crash.
  double tornWriteProbability = 0;
  /// P(an fsync lies) evaluated per journal append; a lying fsync's
  /// frame is dropped wholesale at the next crash.
  double fsyncLieProbability = 0;
  /// P(one recovery read fails transiently) evaluated per disk read
  /// issued during recovery (retry = one extra pass over the bytes).
  double readErrorProbability = 0;
};

class StorageFaultModel {
 public:
  explicit StorageFaultModel(StorageFaultConfig config = {})
      : config_(config), rng_(config.seed ^ 0x5374467455ULL) {}

  const StorageFaultConfig& config() const { return config_; }

  // --- windowed arming (fuzz fault injector) ---
  void armTornWrites(double probability, double fsyncLieProbability) {
    config_.tornWriteProbability = probability;
    config_.fsyncLieProbability = fsyncLieProbability;
  }
  void disarmTornWrites() {
    config_.tornWriteProbability = 0;
    config_.fsyncLieProbability = 0;
  }
  /// Queue one bit-rot episode affecting `fraction` of cold records; it
  /// is consumed (applied to real bytes) at the node's next restart.
  /// Bit rot happens only through this call (the fuzz fault kinds).
  void injectBitRot(double fraction) { pendingRot_.push_back(fraction); }

  // --- decisions (each consumes the model's private RNG stream) ---
  bool tearOnCrash() {
    return decide(config_.tornWriteProbability, stats_.tornWrites);
  }
  bool fsyncLies() {
    return decide(config_.fsyncLieProbability, stats_.fsyncLies);
  }
  bool transientReadError() {
    return decide(config_.readErrorProbability, stats_.readErrors);
  }
  /// Bit-rot episodes to apply at this restart: the queued injections.
  std::vector<double> takeRotEpisodes() {
    std::vector<double> out = std::move(pendingRot_);
    pendingRot_.clear();
    stats_.rotEpisodes += out.size();
    return out;
  }

  /// Deterministic draw in [0, bound) for fault placement (torn-prefix
  /// length, which frame rots, which bit flips).
  uint64_t pick(uint64_t bound) {
    return bound == 0 ? 0 : rng_.next() % bound;
  }
  /// Order-independent per-record predicate: does `recordHash` rot in an
  /// episode affecting `fraction` of records?  Pure in its inputs so
  /// iteration order over an unordered index cannot perturb the outcome.
  static bool rots(uint64_t recordHash, uint64_t episodeSalt,
                   double fraction) {
    SplitMix64 h(recordHash ^ episodeSalt);
    return static_cast<double>(h.next() >> 11) * 0x1.0p-53 < fraction;
  }

  struct InjectedStats {
    uint64_t tornWrites = 0;
    uint64_t fsyncLies = 0;
    uint64_t readErrors = 0;
    uint64_t rotEpisodes = 0;
  };
  const InjectedStats& injected() const { return stats_; }

 private:
  bool decide(double p, uint64_t& counter) {
    if (p <= 0) return false;  // zero-probability path consumes no RNG
    const bool hit = static_cast<double>(rng_.next() >> 11) * 0x1.0p-53 < p;
    if (hit) ++counter;
    return hit;
  }

  StorageFaultConfig config_;
  SplitMix64 rng_;
  std::vector<double> pendingRot_;
  InjectedStats stats_;
};

}  // namespace retro::sim
