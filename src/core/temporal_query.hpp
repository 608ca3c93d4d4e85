// Streaming temporal query engine (ROADMAP item 5; paper §VIII "SQL-like
// querying" + the RepCl replay-clock execution model): evaluate a query's
// aggregate over EVERY consistent state in an HLC interval [T1, T2] at a
// fixed step, without materializing the state.
//
// Execution model (forward scan), never copying the state:
//
//   1. fold every entry of the node's state at some instant T0 into a
//      running exact-integer aggregate (a server folds its store one
//      chunk per task through a storage view, so puts run in between);
//   2. roll the aggregate back to T1 with one diffBackward(T0, T1): each
//      key the diff touches moves to an overlay that holds its value at
//      the current grid point; every other key keeps its value at T0;
//   3. for each subsequent grid point t_i, fetch the compacted per-key
//      diff over (t_{i-1}, t_i] via diffForward and apply it to BOTH the
//      overlay and the running aggregate — per-step cost is bounded by
//      the diff size, never the state size.
//
// Steps 2 and 3 also run in pieces (finishPart): each call reads about
// one budget of window-log entries through a log::DiffScan, or applies
// about one budget of a read diff's keys, and the next call resumes
// there, the way a server's fold resumes its view.
//
// Grid points after T0 see the state at T0 (no later history is read).
// The ROLLING scan direction reuses the fig. 15 rolling-snapshot
// machinery instead: roll back to the LAST grid point and on backward
// via diffBackward, then reverse the series; the result is
// bit-identical to the forward scan (pinned by tests).
//
// A running aggregate keeps a multiset (histogram) of the numeric values
// of currently-matching entries, so MIN/MAX stay exact when the extreme
// entry is deleted mid-interval.  All arithmetic is integer; the
// differential suite asserts bit-identical results against naive
// per-step full materialization over log::NaiveWindowLog.
//
// Distribution discipline (§III-A): only per-step PartialAggregates
// leave a node.  evalPartials runs node-side; combinePartials merges any
// number of per-node series into the final per-step QueryResults and the
// WHEN verdict.  States never travel.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/query.hpp"
#include "hlc/timestamp.hpp"
#include "log/window_log.hpp"

namespace retro::core {

/// Work accounting for one evalPartials call; the simulated servers
/// charge executor CPU proportional to these, and the bench shape checks
/// assert replayedKeys tracks the write rate, not the store size.
struct ReplayStats {
  size_t steps = 0;           ///< grid points evaluated
  size_t baseStateKeys = 0;   ///< keys in the state at the base grid point
  size_t baseDiffKeys = 0;    ///< keys the base diff moved into the overlay
  size_t diffCalls = 0;       ///< the base diff + per-step diff calls
  size_t replayedKeys = 0;    ///< per-key diff entries applied across steps
  size_t replayedBytes = 0;   ///< payload bytes of those diffs
  log::DiffStats diffTotals;  ///< accumulated underlying diff-engine stats

  void accumulate(const ReplayStats& o) {
    steps += o.steps;
    baseStateKeys += o.baseStateKeys;
    baseDiffKeys += o.baseDiffKeys;
    diffCalls += o.diffCalls;
    replayedKeys += o.replayedKeys;
    replayedBytes += o.replayedBytes;
    diffTotals.accumulate(o.diffTotals);
  }
};

/// One evaluation point of a temporal query on one node.
struct TemporalStep {
  hlc::Timestamp at;
  PartialAggregate partial;

  friend bool operator==(const TemporalStep&, const TemporalStep&) = default;
};

/// The evaluation grid of a temporal spec: from, from+s, from+2s, ...
/// while <= to (always contains at least `from`; a step larger than the
/// interval degenerates to the single point T1).  Stepping is
/// overflow-safe: the grid ends rather than wrapping.
std::vector<hlc::Timestamp> temporalGrid(const TemporalSpec& spec);

/// Incremental node-side evaluation: fold() each entry of the state at
/// T0 exactly once, in any order and over any number of calls, then
/// finish() against the window-log, at once or in pieces.
class PartialsEvaluator {
 public:
  PartialsEvaluator(SnapshotQuery query, TemporalSpec spec);

  /// kInvalidArgument for an inverted interval or non-positive step;
  /// kOutOfRange (structured, names the floor) when T1 precedes the
  /// retained window — never silently truncates.
  Status check(const log::WindowLog& log) const;

  void fold(const Key& key, const Value& value);
  /// Forget everything folded (the reader started over).
  void reset();

  /// Per-grid-point partial aggregates.  `valueAtT0` answers a key's value
  /// at T0 (null if it had none); `log` must hold every change up to T0.
  /// Runs check() again: the window may have slid since the fold began.
  /// Consumes the fold: reset() before folding again.
  Result<std::vector<TemporalStep>> finish(
      const log::WindowLog& log, hlc::Timestamp t0,
      const std::function<const Value*(const Key&)>& valueAtT0,
      ReplayStats* stats = nullptr);

  /// finish() in pieces: each call reads about `budgetBytes` of
  /// window-log entry data or applies about half as many bytes of a read
  /// diff's entries (see DiffMap::drain; an applied key also reads its
  /// value at T0 and moves the aggregate), at least one entry, and adds
  /// its work to `stats`.
  /// Returns true once the series is complete; takeSeries() then hands
  /// it over.  The log may take appends after T0 and trims between
  /// calls; each call runs check() again.  A graft renumbers the log
  /// under a diff being read, which starts that diff over, but history
  /// it adds below T0 is missing from the fold: the caller starts over.
  Result<bool> finishPart(
      const log::WindowLog& log, hlc::Timestamp t0,
      const std::function<const Value*(const Key&)>& valueAtT0,
      uint64_t budgetBytes, ReplayStats* stats = nullptr);
  std::vector<TemporalStep> takeSeries() { return std::move(series_); }

 private:
  void add(const Key& key, const Value& value);
  /// Throws std::logic_error for a numeric value that was never added.
  void remove(const Key& key, const Value& value);
  PartialAggregate partial() const;
  /// Start reading diff number `diffs_` of the grid walk.
  void startDiff(hlc::Timestamp t0);

  SnapshotQuery query_;
  TemporalSpec spec_;
  size_t folded_ = 0;
  // Finish state.  The grid is empty until the first finishPart call.
  std::vector<hlc::Timestamp> grid_;
  size_t diffs_ = 0;  ///< diffs applied; the first is the base diff
  log::DiffScan scan_;
  /// The read diff, drained into the overlay; empty while reading.
  log::DiffMap applying_;
  bool reading_ = true;
  /// Keys a diff touched, with their value at the current grid point.
  std::unordered_map<Key, OptValue> overlay_;
  int64_t baseKeyDelta_ = 0;  ///< change in key count from the base diff
  std::vector<TemporalStep> series_;
  // Exact-integer running aggregate over the currently-matching entries.
  // A histogram of numeric values keeps MIN/MAX correct when the extreme
  // entry is deleted; sums wrap in two's complement, so add/remove in any
  // order reproduces a full scan bit-identically.
  uint64_t matched_ = 0;
  uint64_t numericCount_ = 0;
  uint64_t sumBits_ = 0;
  std::map<int64_t, uint64_t> histogram_;  // value -> matching entries
};

/// Node-side streaming evaluation over a plain map: the evaluator above
/// with T0 = the log's newest entry.  `currentState` must be the live
/// state the log's newest entries lead to.
Result<std::vector<TemporalStep>> evalPartials(
    const SnapshotQuery& query, const TemporalSpec& spec,
    const std::unordered_map<Key, Value>& currentState,
    const log::WindowLog& log, ReplayStats* stats = nullptr);

/// Result of a (possibly distributed) temporal query.
struct TemporalQueryResult {
  std::vector<std::pair<hlc::Timestamp, QueryResult>> series;

  /// WHEN-clause reduction over the series (present iff the query has a
  /// WHEN clause).
  struct Verdict {
    bool everHeld = false;
    bool alwaysHeld = false;
    std::optional<hlc::Timestamp> firstHeld;  ///< earliest step that held
    std::optional<hlc::Timestamp> lastHeld;   ///< latest step that held

    /// The answer for one quantifier (FIRST/LAST report whether a
    /// holding step exists; its time is in firstHeld/lastHeld).
    bool holds(TemporalQuant q) const {
      switch (q) {
        case TemporalQuant::kFirst: return firstHeld.has_value();
        case TemporalQuant::kLast: return lastHeld.has_value();
        case TemporalQuant::kAlways: return alwaysHeld;
        case TemporalQuant::kEver: return everHeld;
      }
      return false;
    }
  };
  std::optional<Verdict> verdict;
};

/// Coordinator-side merge: fold per-node step series (identical grids)
/// into final per-step results and the WHEN verdict.  Only partial
/// aggregates are consumed — this is the full extent of what travels.
/// Fails with kInvalidArgument when the query is not temporal, no series
/// are given, or the node grids disagree.
Result<TemporalQueryResult> combinePartials(
    const SnapshotQuery& query,
    const std::vector<std::vector<TemporalStep>>& perNode);

/// Single-node convenience: evalPartials + combinePartials over one log.
Result<TemporalQueryResult> evalOverLog(
    const SnapshotQuery& query,
    const std::unordered_map<Key, Value>& currentState,
    const log::WindowLog& log, ReplayStats* stats = nullptr);

}  // namespace retro::core
