// Shared retry/backoff policy for every RPC wait in the system.
//
// Several components need the same capped-exponential-backoff loop
// (AdminClient collection and query retries, VoldemortClient op retries,
// VoldemortServer transfer streams, UdpContext retransmits).  This
// header is the single implementation they all call:
//
//   delay(attempt) = min(base * 2^(attempt-1), cap) * (1 + jitter * u)
//
// where u in [0, 1) is a *deterministic* hash of the caller-supplied
// jitter key (operation id, peer, attempt number), so simulator runs
// replay bit-identically for a given seed while realtime retries still
// decorrelate across peers.  The formula is byte-compatible with the
// original AdminClient::backoffDelay, whose timing the crash-sweep fuzz
// expectations were calibrated against.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/random.hpp"
#include "common/types.hpp"

namespace retro::runtime {

/// A reusable retry envelope: how often, how fast, how random, and for
/// how long in total.  Embed in component configs (or construct ad hoc
/// from legacy config fields).
struct RetryPolicy {
  /// Send attempts per target (first transmission included).
  uint32_t maxAttempts = 4;
  /// Capped exponential backoff between attempts: base * 2^(n-1).
  /// base == 0 means "retry immediately" (legacy fixed-interval resend).
  TimeMicros backoffBaseMicros = 50'000;
  TimeMicros backoffCapMicros = 800'000;
  /// Deterministic jitter fraction added on top of each backoff [0..1).
  double jitter = 0.2;
  /// Total elapsed budget across every attempt (0 = unbounded).  A retry
  /// loop whose deadline passes is exhausted even with attempts left —
  /// exhaustion is *reported* to the caller, never silently looped.
  TimeMicros totalDeadlineMicros = 0;
};

/// Mix up to three retry-scope identifiers (operation id, peer node,
/// attempt counter) into one jitter key.  Matches the historical
/// AdminClient derivation so existing seeded timings are preserved.
inline uint64_t retryJitterKey(uint64_t op, uint64_t peer, uint64_t attempt) {
  return op * 0x9e3779b97f4a7c15ULL ^ (peer << 32) ^ attempt;
}

/// Backoff before retry number `attempt` (1-based: the delay scheduled
/// after the attempt-th transmission failed).  Deterministic in
/// (base, cap, jitter, attempt, jitterKey).
inline TimeMicros cappedBackoffDelay(TimeMicros baseMicros,
                                     TimeMicros capMicros, double jitter,
                                     uint32_t attempt, uint64_t jitterKey) {
  TimeMicros d = baseMicros;
  for (uint32_t i = 1; i < attempt && d < capMicros; ++i) d *= 2;
  d = std::min(d, capMicros);
  if (jitter > 0 && d > 0) {
    SplitMix64 sm(jitterKey);
    const double u = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
    d += static_cast<TimeMicros>(static_cast<double>(d) * jitter * u);
  }
  return d;
}

inline TimeMicros backoffDelay(const RetryPolicy& policy, uint32_t attempt,
                               uint64_t jitterKey) {
  return cappedBackoffDelay(policy.backoffBaseMicros, policy.backoffCapMicros,
                            policy.jitter, attempt, jitterKey);
}

/// Attempt-budget and total-deadline accounting for one retry loop (one
/// RPC target, one datagram, one transfer stream).  The caller records
/// each transmission, asks for the next backoff, and checks exhausted()
/// before rearming — when the budget is spent the loop must surface the
/// failure (timeout outcome, kPartial, dropped datagram + suspicion),
/// never keep looping.  Delay derivation is byte-compatible with the
/// bare cappedBackoffDelay call sites it replaces: jitter is keyed on
/// (op, peer, attempt) via retryJitterKey, so migrating a caller changes
/// none of its seeded timings.
class RetryBudget {
 public:
  RetryBudget() = default;
  RetryBudget(const RetryPolicy& policy, uint64_t op, uint64_t peer,
              TimeMicros startMicros)
      : policy_(policy), op_(op), peer_(peer), start_(startMicros) {}

  /// Record one transmission; returns its 1-based number.
  uint32_t recordAttempt() { return ++attempts_; }
  uint32_t attempts() const { return attempts_; }

  /// True once the attempt budget or the total deadline is spent.
  bool exhausted(TimeMicros now) const {
    return attempts_ >= policy_.maxAttempts || deadlineExceeded(now);
  }
  bool deadlineExceeded(TimeMicros now) const {
    return policy_.totalDeadlineMicros > 0 &&
           now - start_ >= policy_.totalDeadlineMicros;
  }

  /// Backoff before the next transmission, derived from the attempts
  /// recorded so far.  Only meaningful while !exhausted().
  TimeMicros nextDelay() const {
    return backoffDelay(policy_, attempts_, retryJitterKey(op_, peer_, attempts_));
  }

  /// Re-aim the loop at a new peer (replica fallback): the attempt
  /// count restarts, the total deadline keeps running from the original
  /// start — a fallback must not double the caller's worst case.
  void retarget(uint64_t peer) {
    peer_ = peer;
    attempts_ = 0;
  }

  const RetryPolicy& policy() const { return policy_; }

 private:
  RetryPolicy policy_;
  uint64_t op_ = 0;
  uint64_t peer_ = 0;
  TimeMicros start_ = 0;
  uint32_t attempts_ = 0;
};

}  // namespace retro::runtime
