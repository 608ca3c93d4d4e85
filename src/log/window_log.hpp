// The sliding window-log (§III, §IV): a bounded, HLC-timestamped record
// of recent state changes on one node.  Bounds are configurable by entry
// count, payload bytes, or age ("truncating the state history after a
// given duration or erasing the old history when the size of the log
// reaches a given threshold", §IV).  During a snapshot the bound is
// lifted so the log keeps growing until the snapshot finishes (§III-A).
//
// Diff engine: the append-ordered deque stays the source of truth, but
// two auxiliary structures make the retrospective traversals sublinear
// in the window size (§VII: a C implementation should shrink exactly
// this cost):
//
//   * a sparse HLC->sequence index (one mark every `indexStrideEntries`
//     appends) so the boundary of a `timeInPast` query is found by
//     binary search instead of a reverse scan;
//   * a per-key last-write chain (the ascending sequence numbers of
//     every surviving entry for that key) so a diff can visit one entry
//     per key that survives operation-shadowing compaction instead of
//     every entry in the range.
//
// Each diff picks the cheaper of the two strategies (bounded scan vs.
// key-chain probing) from the range size and the live key count.
// diffBackward and diffForward are a DiffScan run to the end: a scan of
// a sequence range that a caller can also advance a budget at a time,
// one bounded task each, while the log keeps changing between calls.
// Either way the result is byte-identical to the naive linear walk
// (tests/test_window_log_index.cpp pins this over randomized
// histories).
#pragma once

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "log/diff.hpp"
#include "log/log_entry.hpp"

namespace retro::log {

struct WindowLogConfig {
  /// Maximum number of entries retained; 0 = unbounded.
  size_t maxEntries = 0;
  /// Maximum accounted bytes retained; 0 = unbounded.
  size_t maxBytes = 0;
  /// Maximum entry age relative to the newest entry, in HLC physical
  /// milliseconds; 0 = unbounded.
  int64_t maxAgeMillis = 0;
  /// Fixed per-entry overhead S_o of the paper's estimate formula
  /// (>= 152 bytes in the Java implementation; configurable because §VII
  /// points out a C implementation can shrink it).
  size_t perEntryOverheadBytes = 152;
  /// S_HLC: bytes accounted for the timestamp per entry.
  size_t hlcBytes = 8;
  /// One sparse HLC->sequence index mark is kept every this many
  /// appends.  Larger strides cost less memory but widen the final
  /// refinement window of a boundary search.
  size_t indexStrideEntries = 64;
};

/// Statistics of a computeDiff call, used by the simulation substrates
/// to charge CPU time proportional to the work actually performed.
struct DiffStats {
  size_t entriesTraversed = 0;  ///< log entries materialized/walked
  size_t keysInDiff = 0;        ///< surviving keys after compaction
  size_t diffDataBytes = 0;     ///< payload bytes of the compacted diff
  size_t indexSeeks = 0;        ///< binary-search probes (sparse index + chains)
  size_t keysExamined = 0;      ///< candidate keys inspected via key chains
  bool usedKeyChains = false;   ///< true if the per-key chain strategy ran

  /// Fold another call's stats into a running total (bench reporting).
  void accumulate(const DiffStats& o) {
    entriesTraversed += o.entriesTraversed;
    keysInDiff += o.keysInDiff;
    diffDataBytes += o.diffDataBytes;
    indexSeeks += o.indexSeeks;
    keysExamined += o.keysExamined;
    usedKeyChains = usedKeyChains || o.usedKeyChains;
  }
};

/// A diff over the entries with start < ts <= end, built a budget at a
/// time by WindowLog::advance().  A backward scan keeps each key's
/// earliest oldValue in range: applied to the state at `end` it gives
/// the state at `start`.  A forward scan keeps each key's last newValue
/// in range: applied to the state at `start` it gives the state at
/// `end`.  Like diffToPast, a scan walks the range's entries, or probes
/// each live key's chain when the range is longer than the live key
/// count; either way it copies each surviving value once.
class DiffScan {
 public:
  enum class Direction : uint8_t { kBackward, kForward };

  DiffScan() = default;
  DiffScan(Direction direction, hlc::Timestamp start, hlc::Timestamp end)
      : direction_(direction), start_(start), end_(end) {}

  bool done() const { return done_; }
  /// The diff so far; complete once done().
  DiffMap& diff() { return diff_; }
  /// Times a renumbered log started this scan over.
  uint64_t restarts() const { return restarts_; }

 private:
  friend class WindowLog;
  Direction direction_ = Direction::kBackward;
  hlc::Timestamp start_;
  hlc::Timestamp end_;
  bool positioned_ = false;
  bool done_ = false;
  bool byKey_ = false;  ///< probing key chains rather than walking entries
  uint64_t renumberings_ = 0;  ///< the log's count when positioned
  uint64_t loSeq_ = 0;         ///< first sequence in range
  uint64_t hiSeq_ = 0;         ///< one past the last
  /// Entry walk, backward: the next sequence; forward: one past it.
  /// Key-chain probe: the bucket being probed.
  uint64_t cursor_ = 0;
  size_t buckets_ = 0;  ///< the key index's bucket count when probed
  std::vector<Key> bucketDone_;  ///< keys already probed in that bucket
  uint64_t restarts_ = 0;
  DiffMap diff_;
};

class WindowLog {
 public:
  explicit WindowLog(WindowLogConfig config = {});

  /// Record a state change. Timestamps must be appended in
  /// non-decreasing order (HLC at a node is monotonic); out-of-order
  /// appends throw std::invalid_argument.
  void append(Entry entry);
  void append(Key key, OptValue oldValue, OptValue newValue,
              hlc::Timestamp ts);

  /// Remove the growth bound (snapshot in progress) / restore it.
  /// rebound() re-applies the configured bounds, trimming as needed.
  void unbound();
  void rebound();
  bool isBounded() const { return bounded_; }

  /// Compute the compacted difference between the *current* state and
  /// the state at `timeInPast`: applying the result to the current state
  /// rolls it back to `timeInPast` (Table I computeDiff(logName, t)).
  Result<DiffMap> diffToPast(hlc::Timestamp timeInPast,
                             DiffStats* stats = nullptr) const;

  /// Compacted difference between two past points (Table I
  /// computeDiff(logName, start, end)): applying the result to the state
  /// at `start` produces the state at `end` (forward-incremental).
  Result<DiffMap> diffForward(hlc::Timestamp start, hlc::Timestamp end,
                              DiffStats* stats = nullptr) const;

  /// Reverse direction: applying the result to the state at `end`
  /// produces the state at `start` (backward-incremental, Fig. 5).
  Result<DiffMap> diffBackward(hlc::Timestamp end, hlc::Timestamp start,
                               DiffStats* stats = nullptr) const;

  /// Visit `scan`'s next entries, about `budgetBytes` of entry data
  /// (key + old + new value bytes; a key-chain probe counts each probed
  /// key and twice each entry it finds; at least one entry or key while
  /// any remain), and add the work to `stats`, with keysInDiff and
  /// diffDataBytes once
  /// the scan is done.  Returns the data bytes visited.  The range is
  /// fixed when the scan starts: entries appended later must be later
  /// than its end, as a node's HLC guarantees.  A graftHistory() or
  /// resetForRecovery() since the last call renumbers the log and starts
  /// the scan over; kOutOfRange once the floor passes its start,
  /// kInvalidArgument if its end precedes its start.
  Result<uint64_t> advance(DiffScan& scan, uint64_t budgetBytes,
                           DiffStats* stats = nullptr) const;

  /// True if the log retains enough history to reconstruct state at `t`
  /// (i.e. every change after `t` is still in the window).
  bool covers(hlc::Timestamp t) const { return t >= floor_; }

  /// Earliest reachable time: state can be reconstructed at any t with
  /// floor() <= t <= latest().
  hlc::Timestamp floor() const { return floor_; }
  hlc::Timestamp latest() const;

  size_t entryCount() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Accounted bytes: sum over entries of (2*Si + Sk + S_HLC + S_o) —
  /// the live instantiation of the paper's estimate formula.
  size_t accountedBytes() const { return accountedBytes_; }

  /// Total entries ever trimmed (for stats/tests).
  uint64_t trimmedCount() const { return trimmed_; }

  /// Distinct keys with at least one surviving entry.
  size_t liveKeyCount() const { return keyChains_.size(); }

  /// Sparse index marks currently held (tests/introspection).
  size_t indexMarkCount() const { return index_.size(); }

  /// Explicitly drop all entries with ts <= t (periodic compaction
  /// support, §VII: a background task can fold old history into a
  /// checkpoint and truncate).
  void truncateThrough(hlc::Timestamp t);

  /// Crash recovery without a persisted window-log: drop every entry and
  /// raise the floor to `floor` (the recovery point).  History before the
  /// restart is unreachable — snapshot requests targeting it get
  /// kOutOfRange from the diff calls, surfacing as log-truncated to the
  /// initiator.
  void resetForRecovery(hlc::Timestamp floor);

  /// Sequence number the next append will receive; entries currently
  /// held span [frontSeq(), nextSeq()).
  uint64_t nextSeq() const { return baseSeq_ + entries_.size(); }
  uint64_t frontSeq() const { return baseSeq_; }

  /// Corruption-aware recovery: entries below `seq` are no longer backed
  /// by readable durable frames (a rotted WAL frame or checkpoint), so
  /// drop them; the floor rises to the last dropped change exactly as
  /// with bound-trimming.  No-op when `seq` <= frontSeq().
  void dropBelowSeq(uint64_t seq);

  const WindowLogConfig& config() const { return config_; }
  void setConfig(WindowLogConfig config);

  /// Iterate entries (oldest -> newest); read-only access for
  /// persistence and debugging tools.
  void forEach(const std::function<void(const Entry&)>& fn) const;

  /// True if at least one surviving entry mentions `key`.
  bool hasHistoryFor(const Key& key) const {
    return keyChains_.find(key) != keyChains_.end();
  }

  /// All surviving entries for `key`, oldest -> newest (key-range
  /// transfer hand-off).
  std::vector<Entry> historyFor(const Key& key) const;

  /// Membership rebalance hand-off: merge another node's per-key history
  /// into this log by timestamp (both sides are ts-sorted, so the merged
  /// log stays globally monotone) and raise the floor to `sourceFloor`
  /// if it is higher — the source could not reconstruct below its own
  /// floor, so neither can we.  Sequence numbers are renumbered from
  /// frontSeq() and the index structures rebuilt.  Callers must only
  /// graft keys with no surviving local entries (single-source-per-key),
  /// otherwise per-key old/new chains would interleave incoherently.
  /// Returns the number of entries grafted.
  size_t graftHistory(std::vector<Entry> history, hlc::Timestamp sourceFloor);

  /// Full invariant check of the index structures against the deque
  /// (O(n); differential tests call this after every mutation batch).
  bool validateIndex() const;

 private:
  struct IndexMark {
    hlc::Timestamp ts;
    uint64_t seq;
  };

  /// One key's ascending chain of surviving sequence numbers: a vector
  /// behind a dead prefix.  Trimming pops the front by moving the head,
  /// and the dead prefix is erased once it is half the vector, so a pop
  /// stays amortized O(1).  A one-entry chain costs one small
  /// allocation, where a std::deque's costs a 512-byte block and a map.
  class SeqChain {
   public:
    using const_iterator = std::vector<uint64_t>::const_iterator;

    void push_back(uint64_t seq) { seqs_.push_back(seq); }
    void pop_front() {
      if (++head_ * 2 >= seqs_.size()) {
        seqs_.erase(seqs_.begin(),
                    seqs_.begin() + static_cast<ptrdiff_t>(head_));
        head_ = 0;
      }
    }
    bool empty() const { return head_ == seqs_.size(); }
    size_t size() const { return seqs_.size() - head_; }
    uint64_t front() const { return seqs_[head_]; }
    uint64_t back() const { return seqs_.back(); }
    const_iterator begin() const {
      return seqs_.begin() + static_cast<ptrdiff_t>(head_);
    }
    const_iterator end() const { return seqs_.end(); }

   private:
    std::vector<uint64_t> seqs_;
    size_t head_ = 0;
  };

  void trimToBounds();
  void trimFront();
  void rebuildIndex();
  Status outOfRange(hlc::Timestamp t) const;
  /// advance()'s two strategies; each returns the data bytes visited.
  uint64_t walkEntries(DiffScan& scan, uint64_t budgetBytes,
                       DiffStats& local) const;
  uint64_t probeKeyChains(DiffScan& scan, uint64_t budgetBytes,
                          DiffStats& local) const;
  /// A DiffScan over [start, end] run to the end in one call.
  Result<DiffMap> scanToEnd(DiffScan::Direction direction,
                            hlc::Timestamp start, hlc::Timestamp end,
                            DiffStats* stats) const;

  /// Offset (into entries_) of the first entry with ts > t, found via
  /// the sparse index plus a bounded binary search.  `seeks` counts the
  /// binary-search probe as one logical index seek.
  size_t upperBoundOffset(hlc::Timestamp t, size_t* seeks) const;

  WindowLogConfig config_;
  std::deque<Entry> entries_;
  size_t accountedBytes_ = 0;
  hlc::Timestamp floor_{};  // earliest reconstructible time
  bool bounded_ = true;
  uint64_t trimmed_ = 0;

  /// Sequence number of entries_.front(); entry at offset i has
  /// sequence baseSeq_ + i.  Sequence numbers never reset, so key
  /// chains and index marks survive front-trimming untouched except
  /// for their own front elements.
  uint64_t baseSeq_ = 0;
  /// Bumped whenever sequence numbers stop naming the same entries
  /// (graftHistory, resetForRecovery); a DiffScan then starts over.
  uint64_t renumberings_ = 0;
  /// Sparse HLC->sequence marks, ascending; one every
  /// config_.indexStrideEntries appends.
  std::deque<IndexMark> index_;
  /// Per-key ascending sequence chain of surviving entries.
  std::unordered_map<Key, SeqChain> keyChains_;
};

}  // namespace retro::log
