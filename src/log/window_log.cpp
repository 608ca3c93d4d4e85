#include "log/window_log.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace retro::log {

namespace {
size_t accountedEntryBytes(const Entry& e, const WindowLogConfig& cfg) {
  return e.dataBytes() + cfg.hlcBytes + cfg.perEntryOverheadBytes;
}
}  // namespace

WindowLog::WindowLog(WindowLogConfig config) : config_(config) {
  if (config_.indexStrideEntries == 0) config_.indexStrideEntries = 1;
}

void WindowLog::append(Entry entry) {
  if (!entries_.empty() && entry.ts < entries_.back().ts) {
    throw std::invalid_argument(
        "WindowLog::append: timestamps must be non-decreasing (got " +
        entry.ts.toString() + " after " + entries_.back().ts.toString() + ")");
  }
  const uint64_t seq = baseSeq_ + entries_.size();
  if (seq % config_.indexStrideEntries == 0) {
    index_.push_back({entry.ts, seq});
  }
  keyChains_[entry.key].push_back(seq);
  accountedBytes_ += accountedEntryBytes(entry, config_);
  entries_.push_back(std::move(entry));
  if (bounded_) trimToBounds();
}

void WindowLog::append(Key key, OptValue oldValue, OptValue newValue,
                       hlc::Timestamp ts) {
  append(Entry{std::move(key), std::move(oldValue), std::move(newValue), ts});
}

void WindowLog::unbound() { bounded_ = false; }

void WindowLog::rebound() {
  bounded_ = true;
  trimToBounds();
}

hlc::Timestamp WindowLog::latest() const {
  return entries_.empty() ? floor_ : entries_.back().ts;
}

void WindowLog::trimFront() {
  const Entry& e = entries_.front();
  accountedBytes_ -= accountedEntryBytes(e, config_);
  // Once the change at e.ts is dropped we can no longer reconstruct any
  // state strictly before e.ts; state *at* e.ts (inclusive of the
  // change) remains reconstructible.
  floor_ = e.ts;
  auto chain = keyChains_.find(e.key);
  chain->second.pop_front();  // front of the chain is this entry's seq
  if (chain->second.empty()) keyChains_.erase(chain);
  if (!index_.empty() && index_.front().seq <= baseSeq_) index_.pop_front();
  entries_.pop_front();
  ++baseSeq_;
  ++trimmed_;
}

void WindowLog::trimToBounds() {
  if (config_.maxEntries > 0) {
    while (entries_.size() > config_.maxEntries) trimFront();
  }
  if (config_.maxBytes > 0) {
    while (entries_.size() > 1 && accountedBytes_ > config_.maxBytes) {
      trimFront();
    }
  }
  if (config_.maxAgeMillis > 0 && !entries_.empty()) {
    const int64_t newestL = entries_.back().ts.l;
    while (!entries_.empty() &&
           entries_.front().ts.l < newestL - config_.maxAgeMillis) {
      trimFront();
    }
  }
}

void WindowLog::truncateThrough(hlc::Timestamp t) {
  // The boundary is found by binary search; the trim itself is
  // O(trimmed) to keep the key chains and sparse index coherent.
  size_t seeks = 0;
  const size_t boundary = upperBoundOffset(t, &seeks);
  for (size_t i = 0; i < boundary; ++i) trimFront();
  // Even with nothing trimmed, the caller is declaring history before t
  // unreachable (it has been folded into a checkpoint).
  floor_ = std::max(floor_, t);
}

void WindowLog::dropBelowSeq(uint64_t seq) {
  while (!entries_.empty() && baseSeq_ < seq) trimFront();
}

void WindowLog::resetForRecovery(hlc::Timestamp floor) {
  ++renumberings_;
  trimmed_ += entries_.size();
  baseSeq_ += entries_.size();
  entries_.clear();
  index_.clear();
  keyChains_.clear();
  accountedBytes_ = 0;
  floor_ = std::max(floor_, floor);
  bounded_ = true;
}

size_t WindowLog::upperBoundOffset(hlc::Timestamp t, size_t* seeks) const {
  if (entries_.empty()) return 0;
  // Narrow to one index stride: the last mark with ts <= t starts the
  // refinement window, the following mark bounds it.
  size_t lo = 0;
  size_t hi = entries_.size();
  auto mark = std::upper_bound(
      index_.begin(), index_.end(), t,
      [](hlc::Timestamp v, const IndexMark& m) { return v < m.ts; });
  if (mark != index_.begin()) {
    lo = static_cast<size_t>(std::prev(mark)->seq - baseSeq_);
  }
  if (mark != index_.end()) {
    hi = static_cast<size_t>(mark->seq - baseSeq_);
  }
  // Refine within the stride.  Equal timestamps are legal (several
  // events in one HLC tick), so upper_bound semantics: first entry
  // strictly after t.
  auto it = std::upper_bound(
      entries_.begin() + static_cast<ptrdiff_t>(lo),
      entries_.begin() + static_cast<ptrdiff_t>(hi), t,
      [](hlc::Timestamp v, const Entry& e) { return v < e.ts; });
  if (seeks) ++*seeks;
  return static_cast<size_t>(it - entries_.begin());
}

Result<DiffMap> WindowLog::diffToPast(hlc::Timestamp timeInPast,
                                      DiffStats* stats) const {
  if (!covers(timeInPast)) return outOfRange(timeInPast);
  DiffStats local;
  const size_t boundary = upperBoundOffset(timeInPast, &local.indexSeeks);
  const size_t inRange = entries_.size() - boundary;
  const uint64_t boundarySeq = baseSeq_ + boundary;
  DiffMap diff;
  if (inRange <= keyChains_.size()) {
    // Bounded scan: cheaper than probing every live key.  The *earliest*
    // entry after the target wins, so each key maps to its value as of
    // timeInPast (operation-shadowing compaction, Fig. 6); walking
    // oldest-first copies each surviving value once.
    for (size_t i = boundary; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      diff.setIfAbsent(e.key, e.oldValue);
      ++local.entriesTraversed;
    }
  } else {
    // Key-chain strategy: for each live key, binary-search its chain
    // for the earliest write after the boundary — one entry visited per
    // surviving key instead of every entry in the range.
    local.usedKeyChains = true;
    for (const auto& [key, chain] : keyChains_) {
      ++local.keysExamined;
      if (chain.back() < boundarySeq) continue;  // untouched since target
      auto it = std::lower_bound(chain.begin(), chain.end(), boundarySeq);
      ++local.indexSeeks;
      const Entry& e = entries_[static_cast<size_t>(*it - baseSeq_)];
      diff.set(key, e.oldValue);
      ++local.entriesTraversed;
    }
  }
  local.keysInDiff = diff.size();
  local.diffDataBytes = diff.dataBytes();
  if (stats) *stats = local;
  return diff;
}

Result<DiffMap> WindowLog::diffForward(hlc::Timestamp start,
                                       hlc::Timestamp end,
                                       DiffStats* stats) const {
  return scanToEnd(DiffScan::Direction::kForward, start, end, stats);
}

Result<DiffMap> WindowLog::diffBackward(hlc::Timestamp end,
                                        hlc::Timestamp start,
                                        DiffStats* stats) const {
  return scanToEnd(DiffScan::Direction::kBackward, start, end, stats);
}

Result<DiffMap> WindowLog::scanToEnd(DiffScan::Direction direction,
                                     hlc::Timestamp start, hlc::Timestamp end,
                                     DiffStats* stats) const {
  DiffScan scan(direction, start, end);
  DiffStats local;
  auto visited = advance(scan, UINT64_MAX, &local);
  if (!visited.isOk()) return visited.status();
  if (stats) *stats = local;
  return std::move(scan.diff_);
}

Result<uint64_t> WindowLog::advance(DiffScan& scan, uint64_t budgetBytes,
                                    DiffStats* stats) const {
  const bool forward = scan.direction_ == DiffScan::Direction::kForward;
  if (scan.end_ < scan.start_) {
    return Status(StatusCode::kInvalidArgument,
                  std::string(forward ? "diffForward" : "diffBackward") +
                      ": end precedes start");
  }
  if (!covers(scan.start_)) return outOfRange(scan.start_);
  if (scan.done_) return uint64_t{0};
  DiffStats local;
  if (scan.positioned_ && scan.renumberings_ != renumberings_) {
    // The sequence range no longer names the same entries: start over.
    ++scan.restarts_;
    scan.positioned_ = false;
    scan.diff_ = DiffMap{};
  }
  if (!scan.positioned_) {
    const size_t lo = upperBoundOffset(scan.start_, &local.indexSeeks);
    const size_t hi = upperBoundOffset(scan.end_, &local.indexSeeks);
    scan.loSeq_ = baseSeq_ + lo;
    scan.hiSeq_ = baseSeq_ + hi;
    scan.byKey_ = hi - lo > keyChains_.size();
    scan.cursor_ = scan.byKey_ ? 0 : forward ? scan.hiSeq_ : scan.loSeq_;
    scan.buckets_ = keyChains_.bucket_count();
    scan.bucketDone_.clear();
    scan.renumberings_ = renumberings_;
    scan.positioned_ = true;
  }
  // While the floor stays at or below the start, trimming removes only
  // entries below the range, so the remaining sequences stay valid.
  const uint64_t bytes = scan.byKey_ ? probeKeyChains(scan, budgetBytes, local)
                                     : walkEntries(scan, budgetBytes, local);
  if (scan.done_) {
    local.keysInDiff = scan.diff_.size();
    local.diffDataBytes = scan.diff_.dataBytes();
  }
  if (stats) stats->accumulate(local);
  return bytes;
}

uint64_t WindowLog::walkEntries(DiffScan& scan, uint64_t budgetBytes,
                                DiffStats& local) const {
  // Backward: oldest-first, the earliest entry per key wins (its oldValue
  // is the value at start).  Forward: newest-first, the last write wins.
  const bool forward = scan.direction_ == DiffScan::Direction::kForward;
  const uint64_t stop = forward ? scan.loSeq_ : scan.hiSeq_;
  uint64_t bytes = 0;
  while (scan.cursor_ != stop && (bytes < budgetBytes || bytes == 0)) {
    if (forward) --scan.cursor_;
    const Entry& e = entries_[static_cast<size_t>(scan.cursor_ - baseSeq_)];
    if (!forward) ++scan.cursor_;
    scan.diff_.setIfAbsent(e.key, forward ? e.newValue : e.oldValue);
    bytes += e.dataBytes();
    ++local.entriesTraversed;
  }
  scan.done_ = scan.cursor_ == stop;
  return bytes;
}

uint64_t WindowLog::probeKeyChains(DiffScan& scan, uint64_t budgetBytes,
                                   DiffStats& local) const {
  // Per key, binary-search its chain for the earliest (backward) or last
  // (forward) write inside [loSeq, hiSeq): one entry visited per
  // surviving key instead of every entry in the range.  Keys are probed
  // in bucket order, so a scan resumes at a bucket index; keys inserted
  // since then write only past hiSeq, and keys erased since then had no
  // entry left in range.
  const bool forward = scan.direction_ == DiffScan::Direction::kForward;
  local.usedKeyChains = true;
  if (keyChains_.bucket_count() != scan.buckets_) {
    // A rehash moved keys between buckets: probe every key again (those
    // already in the diff keep their values).
    scan.cursor_ = 0;
    scan.buckets_ = keyChains_.bucket_count();
    scan.bucketDone_.clear();
  }
  std::vector<Key>& done = scan.bucketDone_;
  uint64_t bytes = 0;
  for (; scan.cursor_ < scan.buckets_; ++scan.cursor_, done.clear()) {
    const size_t bucket = static_cast<size_t>(scan.cursor_);
    for (auto it = keyChains_.begin(bucket); it != keyChains_.end(bucket);
         ++it) {
      const auto& [key, chain] = *it;
      if (std::find(done.begin(), done.end(), key) != done.end()) continue;
      if (bytes >= budgetBytes && bytes > 0) return bytes;
      done.push_back(key);
      bytes += key.size();
      ++local.keysExamined;
      if (chain.front() >= scan.hiSeq_ || chain.back() < scan.loSeq_) {
        continue;
      }
      auto at = std::lower_bound(chain.begin(), chain.end(),
                                 forward ? scan.hiSeq_ : scan.loSeq_);
      ++local.indexSeeks;
      if (forward) {
        if (at == chain.begin() || *std::prev(at) < scan.loSeq_) continue;
        --at;
      } else if (at == chain.end() || *at >= scan.hiSeq_) {
        continue;
      }
      const Entry& e = entries_[static_cast<size_t>(*at - baseSeq_)];
      scan.diff_.setIfAbsent(key, forward ? e.newValue : e.oldValue);
      // Reached through its chain at a random position, where a walk
      // streams entries and mostly finds their keys already in the
      // diff: a hit counts its entry twice.
      bytes += 2 * e.dataBytes();
      ++local.entriesTraversed;
    }
  }
  scan.done_ = true;
  return bytes;
}

Status WindowLog::outOfRange(hlc::Timestamp t) const {
  return Status(StatusCode::kOutOfRange,
                "window-log no longer reaches " + t.toString() + " (floor " +
                    floor_.toString() + ")");
}

void WindowLog::setConfig(WindowLogConfig config) {
  // Recompute byte accounting under the new overhead constants and
  // rebuild the sparse index under the (possibly changed) stride.
  config_ = config;
  if (config_.indexStrideEntries == 0) config_.indexStrideEntries = 1;
  accountedBytes_ = 0;
  for (const Entry& e : entries_) {
    accountedBytes_ += accountedEntryBytes(e, config_);
  }
  rebuildIndex();
  if (bounded_) trimToBounds();
}

void WindowLog::rebuildIndex() {
  index_.clear();
  keyChains_.clear();
  for (size_t i = 0; i < entries_.size(); ++i) {
    const uint64_t seq = baseSeq_ + i;
    if (seq % config_.indexStrideEntries == 0) {
      index_.push_back({entries_[i].ts, seq});
    }
    keyChains_[entries_[i].key].push_back(seq);
  }
}

void WindowLog::forEach(const std::function<void(const Entry&)>& fn) const {
  for (const Entry& e : entries_) fn(e);
}

std::vector<Entry> WindowLog::historyFor(const Key& key) const {
  std::vector<Entry> out;
  const auto it = keyChains_.find(key);
  if (it == keyChains_.end()) return out;
  out.reserve(it->second.size());
  for (uint64_t seq : it->second) {
    out.push_back(entries_[seq - baseSeq_]);
  }
  return out;
}

size_t WindowLog::graftHistory(std::vector<Entry> history,
                               hlc::Timestamp sourceFloor) {
  if (floor_ < sourceFloor) floor_ = sourceFloor;
  if (history.empty()) return 0;
  std::stable_sort(history.begin(), history.end(),
                   [](const Entry& a, const Entry& b) { return a.ts < b.ts; });
  std::deque<Entry> merged;
  // Stable merge by ts, existing entries first on ties: per-key order is
  // untouched because callers never graft a key we already hold.
  auto ours = entries_.begin();
  auto theirs = history.begin();
  while (ours != entries_.end() || theirs != history.end()) {
    if (ours == entries_.end() ||
        (theirs != history.end() && theirs->ts < ours->ts)) {
      accountedBytes_ += accountedEntryBytes(*theirs, config_);
      merged.push_back(std::move(*theirs++));
    } else {
      merged.push_back(std::move(*ours++));
    }
  }
  entries_ = std::move(merged);
  rebuildIndex();
  ++renumberings_;
  return history.size();
}

bool WindowLog::validateIndex() const {
  // Sparse index: marks ascending, on-stride, matching the deque.
  uint64_t prevSeq = 0;
  bool first = true;
  for (const IndexMark& m : index_) {
    if (m.seq < baseSeq_ || m.seq >= baseSeq_ + entries_.size()) return false;
    if (m.seq % config_.indexStrideEntries != 0) return false;
    if (!first && m.seq <= prevSeq) return false;
    if (entries_[static_cast<size_t>(m.seq - baseSeq_)].ts != m.ts) {
      return false;
    }
    prevSeq = m.seq;
    first = false;
  }
  // Every retained on-stride sequence must have a mark.
  size_t expectedMarks = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if ((baseSeq_ + i) % config_.indexStrideEntries == 0) ++expectedMarks;
  }
  if (expectedMarks != index_.size()) return false;
  // Key chains: exact partition of the sequence space by key.
  size_t chained = 0;
  for (const auto& [key, chain] : keyChains_) {
    if (chain.empty()) return false;
    uint64_t prev = 0;
    bool firstSeq = true;
    for (uint64_t seq : chain) {
      if (seq < baseSeq_ || seq >= baseSeq_ + entries_.size()) return false;
      if (!firstSeq && seq <= prev) return false;
      if (entries_[static_cast<size_t>(seq - baseSeq_)].key != key) {
        return false;
      }
      prev = seq;
      firstSeq = false;
      ++chained;
    }
  }
  return chained == entries_.size();
}

}  // namespace retro::log
