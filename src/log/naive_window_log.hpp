// Reference window-log with the original linear-scan diff engine: every
// traversal walks the deque entry by entry and trimming re-derives its
// state the slow way.  Retained as the differential-testing oracle for
// the indexed WindowLog (tests/test_window_log_index.cpp) and as the
// "naive" rows of bench_table1_api_micro — it is deliberately simple
// and must never gain an index.
#pragma once

#include <deque>

#include "common/status.hpp"
#include "common/types.hpp"
#include "log/diff.hpp"
#include "log/log_entry.hpp"
#include "log/window_log.hpp"

namespace retro::log {

class NaiveWindowLog {
 public:
  explicit NaiveWindowLog(WindowLogConfig config = {});

  void append(Entry entry);
  void append(Key key, OptValue oldValue, OptValue newValue,
              hlc::Timestamp ts);

  void unbound();
  void rebound();
  bool isBounded() const { return bounded_; }

  Result<DiffMap> diffToPast(hlc::Timestamp timeInPast,
                             DiffStats* stats = nullptr) const;
  Result<DiffMap> diffForward(hlc::Timestamp start, hlc::Timestamp end,
                              DiffStats* stats = nullptr) const;
  Result<DiffMap> diffBackward(hlc::Timestamp end, hlc::Timestamp start,
                               DiffStats* stats = nullptr) const;

  bool covers(hlc::Timestamp t) const { return t >= floor_; }
  hlc::Timestamp floor() const { return floor_; }
  hlc::Timestamp latest() const;

  size_t entryCount() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  size_t accountedBytes() const { return accountedBytes_; }
  uint64_t trimmedCount() const { return trimmed_; }

  void truncateThrough(hlc::Timestamp t);
  void resetForRecovery(hlc::Timestamp floor);
  /// Same contract as WindowLog::graftHistory.
  size_t graftHistory(std::vector<Entry> history, hlc::Timestamp sourceFloor);

  const WindowLogConfig& config() const { return config_; }
  void setConfig(WindowLogConfig config);

 private:
  void trimToBounds();
  void trimFront();

  WindowLogConfig config_;
  std::deque<Entry> entries_;
  size_t accountedBytes_ = 0;
  hlc::Timestamp floor_{};
  bool bounded_ = true;
  uint64_t trimmed_ = 0;
};

}  // namespace retro::log
