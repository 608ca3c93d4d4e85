#include "log/naive_window_log.hpp"

#include <algorithm>
#include <stdexcept>

namespace retro::log {

namespace {
size_t accountedEntryBytes(const Entry& e, const WindowLogConfig& cfg) {
  return e.dataBytes() + cfg.hlcBytes + cfg.perEntryOverheadBytes;
}
}  // namespace

NaiveWindowLog::NaiveWindowLog(WindowLogConfig config) : config_(config) {}

void NaiveWindowLog::append(Entry entry) {
  if (!entries_.empty() && entry.ts < entries_.back().ts) {
    throw std::invalid_argument(
        "NaiveWindowLog::append: timestamps must be non-decreasing (got " +
        entry.ts.toString() + " after " + entries_.back().ts.toString() + ")");
  }
  accountedBytes_ += accountedEntryBytes(entry, config_);
  entries_.push_back(std::move(entry));
  if (bounded_) trimToBounds();
}

void NaiveWindowLog::append(Key key, OptValue oldValue, OptValue newValue,
                            hlc::Timestamp ts) {
  append(Entry{std::move(key), std::move(oldValue), std::move(newValue), ts});
}

void NaiveWindowLog::unbound() { bounded_ = false; }

void NaiveWindowLog::rebound() {
  bounded_ = true;
  trimToBounds();
}

hlc::Timestamp NaiveWindowLog::latest() const {
  return entries_.empty() ? floor_ : entries_.back().ts;
}

void NaiveWindowLog::trimFront() {
  const Entry& e = entries_.front();
  accountedBytes_ -= accountedEntryBytes(e, config_);
  floor_ = e.ts;
  entries_.pop_front();
  ++trimmed_;
}

void NaiveWindowLog::trimToBounds() {
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

void NaiveWindowLog::truncateThrough(hlc::Timestamp t) {
  while (!entries_.empty() && entries_.front().ts <= t) trimFront();
  floor_ = std::max(floor_, t);
}

void NaiveWindowLog::resetForRecovery(hlc::Timestamp floor) {
  trimmed_ += entries_.size();
  entries_.clear();
  accountedBytes_ = 0;
  floor_ = std::max(floor_, floor);
  bounded_ = true;
}

Result<DiffMap> NaiveWindowLog::diffToPast(hlc::Timestamp timeInPast,
                                           DiffStats* stats) const {
  if (!covers(timeInPast)) {
    return Status(StatusCode::kOutOfRange,
                  "window-log no longer reaches " + timeInPast.toString() +
                      " (floor " + floor_.toString() + ")");
  }
  DiffMap diff;
  size_t traversed = 0;
  // Walk newest -> oldest over entries with ts > timeInPast; the
  // earliest entry after the target wins.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->ts <= timeInPast) break;
    diff.set(it->key, it->oldValue);
    ++traversed;
  }
  if (stats) {
    *stats = {};
    stats->entriesTraversed = traversed;
    stats->keysInDiff = diff.size();
    stats->diffDataBytes = diff.dataBytes();
  }
  return diff;
}

Result<DiffMap> NaiveWindowLog::diffForward(hlc::Timestamp start,
                                            hlc::Timestamp end,
                                            DiffStats* stats) const {
  if (end < start) {
    return Status(StatusCode::kInvalidArgument,
                  "diffForward: end precedes start");
  }
  if (!covers(start)) {
    return Status(StatusCode::kOutOfRange,
                  "window-log no longer reaches " + start.toString() +
                      " (floor " + floor_.toString() + ")");
  }
  DiffMap diff;
  size_t traversed = 0;
  // Walk oldest -> newest over entries with start < ts <= end; the last
  // write per key wins.
  for (const Entry& e : entries_) {
    if (e.ts <= start) continue;
    if (e.ts > end) break;
    diff.set(e.key, e.newValue);
    ++traversed;
  }
  if (stats) {
    *stats = {};
    stats->entriesTraversed = traversed;
    stats->keysInDiff = diff.size();
    stats->diffDataBytes = diff.dataBytes();
  }
  return diff;
}

Result<DiffMap> NaiveWindowLog::diffBackward(hlc::Timestamp end,
                                             hlc::Timestamp start,
                                             DiffStats* stats) const {
  if (end < start) {
    return Status(StatusCode::kInvalidArgument,
                  "diffBackward: end precedes start");
  }
  if (!covers(start)) {
    return Status(StatusCode::kOutOfRange,
                  "window-log no longer reaches " + start.toString() +
                      " (floor " + floor_.toString() + ")");
  }
  DiffMap diff;
  size_t traversed = 0;
  // Walk newest -> oldest over entries with start < ts <= end; the
  // earliest entry per key wins.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->ts > end) continue;
    if (it->ts <= start) break;
    diff.set(it->key, it->oldValue);
    ++traversed;
  }
  if (stats) {
    *stats = {};
    stats->entriesTraversed = traversed;
    stats->keysInDiff = diff.size();
    stats->diffDataBytes = diff.dataBytes();
  }
  return diff;
}

size_t NaiveWindowLog::graftHistory(std::vector<Entry> history,
                                    hlc::Timestamp sourceFloor) {
  if (floor_ < sourceFloor) floor_ = sourceFloor;
  for (Entry& e : history) {
    // After every held entry with ts <= e.ts: existing entries first on
    // ties, grafted ones in their given order.
    const auto at = std::upper_bound(
        entries_.begin(), entries_.end(), e.ts,
        [](hlc::Timestamp v, const Entry& x) { return v < x.ts; });
    accountedBytes_ += accountedEntryBytes(e, config_);
    entries_.insert(at, std::move(e));
  }
  return history.size();
}

void NaiveWindowLog::setConfig(WindowLogConfig config) {
  config_ = config;
  accountedBytes_ = 0;
  for (const Entry& e : entries_) {
    accountedBytes_ += accountedEntryBytes(e, config_);
  }
  if (bounded_) trimToBounds();
}

}  // namespace retro::log
