// The HLC algorithm (§II of the paper) and the physical-clock sources it
// reads from.  The clock itself is substrate-agnostic: the simulator
// plugs in a skewed SimPhysicalClock, a real deployment would plug in a
// WallPhysicalClock.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "common/types.hpp"
#include "hlc/timestamp.hpp"

namespace retro::hlc {

/// Source of physical time in milliseconds (NTP-synchronized in the
/// paper; a skew/drift model in the simulator).
class PhysicalClock {
 public:
  virtual ~PhysicalClock() = default;
  virtual int64_t nowMillis() = 0;
};

/// Physical clock backed by the real system clock. Used when the
/// Retroscope library is embedded in a real (non-simulated) system.
class WallPhysicalClock final : public PhysicalClock {
 public:
  int64_t nowMillis() override;
};

/// Hybrid Logical Clock. One instance per node; not thread-safe (wrap
/// externally if the host system is multi-threaded — the simulated
/// clusters are single-threaded and deterministic).
class Clock {
 public:
  /// `physical` must outlive the Clock.
  explicit Clock(PhysicalClock& physical) : physical_(&physical) {}

  /// HLC time tick for a local or send event (Table I: timeTick()).
  ///
  ///   l' = max(l, pt);  c' = (l' == l) ? c + 1 : 0
  Timestamp tick();

  /// HLC time tick caused by a remote event carrying timestamp `m`
  /// (Table I: timeTick(HLCTime)).
  ///
  ///   l' = max(l, m.l, pt)
  ///   c' = c+1 / m.c+1 / 0 depending on which argument attained l'.
  Timestamp tick(const Timestamp& m);

  /// Current HLC value without advancing it (no event).
  Timestamp current() const { return now_; }

  /// Crash recovery: re-seed the clock from a persisted HLC value so a
  /// restarted node never issues a timestamp below one it issued before
  /// the crash, even when its physical clock restarts behind (stale
  /// battery clock, NTP not yet converged).  now' = max(now, persisted);
  /// the next tick() then produces a value strictly above `persisted`.
  void restore(const Timestamp& persisted);

  /// The physical clock this HLC is driven by.
  PhysicalClock& physicalClock() const { return *physical_; }

  /// Largest logical component ever produced; the paper observes this
  /// stays small (< 10) in practice — we expose it so tests/benches can
  /// check that property.
  uint32_t maxLogicalObserved() const { return maxC_; }

  /// Maximum observed drift l - pt (bounded by the NTP skew eps).
  int64_t maxDriftMillis() const { return maxDrift_; }

  // --- epsilon-violation detection (§II) ---
  // Under a skew bound of eps, no remote timestamp can legitimately run
  // more than eps ahead of the local physical clock.  With a bound
  // configured, tick(m) counts remote timestamps that violate it —
  // evidence of a misbehaving clock somewhere in the cluster (the
  // GentleRain-style anomaly).  Detection only; the tick still proceeds
  // so HLC's guarantees are preserved even for anomalous inputs.

  /// Enable detection with the given bound (0 disables).  `eps` is the
  /// worst-case perceived-clock difference between two nodes: for clocks
  /// within +/-d of true time, pass 2*d (plus rounding margin).
  void setEpsilonMillis(int64_t eps) { epsilonMillis_ = eps; }
  int64_t epsilonMillis() const { return epsilonMillis_; }
  uint64_t epsilonViolations() const { return epsilonViolations_; }
  /// Largest m.l - pt observed across all remote ticks.
  int64_t maxRemoteAheadMillis() const { return maxRemoteAhead_; }

 private:
  void observe(const Timestamp& t);
  void promoteOnOverflow();

  PhysicalClock* physical_;
  Timestamp now_{};
  uint32_t maxC_ = 0;
  int64_t maxDrift_ = 0;
  int64_t epsilonMillis_ = 0;
  uint64_t epsilonViolations_ = 0;
  int64_t maxRemoteAhead_ = 0;
};

/// Convenience for messaging layers (Table I wrapHLC/unwrapHLC): tick the
/// clock for a send event and prepend the 8-byte timestamp to `message`;
/// or strip it, tick for the receive event, and return the new HLC time.
Timestamp wrapHlc(Clock& clock, ByteWriter& message);
Timestamp unwrapHlc(Clock& clock, ByteReader& message);

/// A received message split into its HLC header and its body.
template <typename Body>
struct Received {
  Timestamp ts;
  Body body;
};

/// Bound (exclusive) on a received header's l: 2^47 ms, about 4 460 years
/// past the epoch, so a tick on it stays packable (l < 2^48).
inline constexpr int64_t kMaxReceivedMillis = int64_t{1} << 47;

/// Decode-or-reject for receive paths: `payload` must be the 8-byte HLC
/// header (absent when `withHeader` is false) followed by exactly one
/// `Body`.  Truncated input, a count the input cannot hold, an enum byte
/// past its last value, trailing bytes and a header at or past
/// kMaxReceivedMillis all yield nullopt instead of throwing.  Unlike
/// unwrapHlc it does not tick the clock, so a rejected message leaves it
/// untouched.
template <typename Body>
std::optional<Received<Body>> decodeMessage(std::string_view payload,
                                            bool withHeader = true) {
  ByteReader r(payload);
  try {
    Received<Body> m;
    if (withHeader) m.ts = Timestamp::readFrom(r);
    if (m.ts.l >= kMaxReceivedMillis) return std::nullopt;
    m.body = Body::readFrom(r);
    if (r.atEnd()) return m;
  } catch (const std::out_of_range&) {
  }
  return std::nullopt;
}

}  // namespace retro::hlc
