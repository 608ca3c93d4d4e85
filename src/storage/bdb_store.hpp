// A Berkeley-DB-Java-Edition-like storage engine (§IV-A substrate): all
// data and changes are captured in a succession of append-only log
// segments (".jdb files"); an in-memory index maps keys to live values.
//
// Reproduced behaviours the paper's evaluation depends on:
//  * hot backup = flush the write buffer, close the active segment, and
//    copy the closed segments — no locking of the live store;
//  * log cleaning rewrites segments to drop shadowed records; while the
//    cleaner holds the data files open a hot backup must wait (the
//    ~15-second stalls behind Fig. 14's variance);
//  * writes are buffered in memory and flushed to the simulated disk
//    asynchronously.
//
// A View reads the index as of one instant, a bucket range at a time,
// while puts and removes continue between reads: before a mutation
// changes a key, the store saves the key's old value (its before-image)
// into every open view that has none for it yet (copy-on-write by key).
// Full snapshots copy the store and temporal queries fold it through a
// view, one bounded chunk per executor task.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "runtime/execution_context.hpp"
#include "sim/disk.hpp"

namespace retro::store {

struct BdbConfig {
  /// Segment ("jdb file") size; the active segment closes past this.
  uint64_t segmentMaxBytes = 10ull << 20;
  /// Flush the write buffer when it reaches this many bytes.
  uint64_t writeBufferFlushBytes = 4ull << 20;
  /// Run the cleaner when dead bytes exceed this fraction of the total.
  double cleanerWakeupDeadFraction = 0.5;
  /// How often the cleaner checks utilization.
  TimeMicros cleanerCheckPeriodMicros = 5 * kMicrosPerSecond;
  /// Cleaner on/off (off keeps timing experiments noise-free).
  bool cleanerEnabled = true;
};

class BdbStore {
  struct ViewState;

 public:
  /// `owner` routes flush/cleaner callbacks to the owning node's thread
  /// under the realtime runtime (ignored by the simulator).
  BdbStore(runtime::ExecutionContext& ctx, sim::SimDisk& disk,
           BdbConfig config = {}, NodeId owner = 0);
  /// Open views hold a pointer back to the store; destroying it closes
  /// them (their reads return kClosed).
  ~BdbStore();
  BdbStore(const BdbStore&) = delete;
  BdbStore& operator=(const BdbStore&) = delete;

  enum class ViewRead {
    kMore,       ///< entries delivered; buckets remain
    kDone,       ///< every key delivered, each once, with its value at open
    kRestarted,  ///< an insert rehashed the index: discard everything this
                 ///< view delivered and read again from the start
    kClosed,     ///< the store is gone; nothing more will come
  };

  /// The index as of the instant openView() ran.  Closes with its handle;
  /// used only on the thread that owns the store.
  class View {
   public:
    View() = default;
    View(View&&) noexcept = default;
    View& operator=(View&& other) noexcept;
    ~View() { close(); }

    /// Hand the entries of the next buckets to `sink`, about
    /// `budgetBytes` of key + value bytes, in bucket order.  Keys changed
    /// since open are skipped there; after the last bucket, their saved
    /// values follow.
    ViewRead read(uint64_t budgetBytes,
                  const std::function<void(const Key&, const Value&)>& sink);

    /// `key`'s value at open (its before-image if it changed since, else
    /// the live value); null if it had none.
    const Value* valueAtOpen(const Key& key) const;

    bool isOpen() const {
      return state_ != nullptr && state_->store != nullptr;
    }
    void close();

   private:
    friend class BdbStore;
    explicit View(std::unique_ptr<ViewState> state)
        : state_(std::move(state)) {}
    std::unique_ptr<ViewState> state_;
  };

  View openView();

  // --- data path (in-memory index + buffered log append) ---
  void put(const Key& key, Value value);
  OptValue get(const Key& key) const;
  void remove(const Key& key);

  uint64_t itemCount() const { return index_.size(); }
  /// Bytes of live key+value data.
  uint64_t liveDataBytes() const { return liveBytes_; }
  /// Bytes across all on-disk segments (live + dead).
  uint64_t totalSegmentBytes() const;

  /// The live index, read-only.  Snapshot copies and temporal queries
  /// read it through a View instead, so they can span many tasks.
  const std::unordered_map<Key, Value>& data() const { return index_; }

  // --- hot backup (Oracle BDB procedure, §IV-A "Data copy") ---
  /// Flush pending changes, close the active segment, then copy every
  /// closed segment through the disk. `done(bytesCopied)` fires when the
  /// copy completes. If the cleaner is running, the backup waits for it
  /// to finish first (it keeps the data files open).
  void hotBackup(std::function<void(uint64_t bytesCopied)> done);

  // --- record integrity (CRC32C per segment record) ---
  /// The checksum stored with `key`'s latest record; 0 if absent.
  uint32_t recordCrc(const Key& key) const;

  /// Storage-fault injection: flip one bit of `key`'s stored value (a
  /// cold segment block rotted).  The stored CRC, written when the
  /// record was intact, now disagrees with the bytes — exactly what the
  /// recovery scrub must catch.  Returns false if the key is absent or
  /// its value is empty.
  bool corruptRecordValue(const Key& key, uint64_t bitDraw);

  struct VerifyReport {
    uint64_t recordsChecked = 0;
    std::vector<Key> quarantined;
  };
  /// Recovery scrub: recompute every live record's CRC32C against the
  /// stored one.  Mismatching records are quarantined — dropped from the
  /// index (the durable record is unreadable) and returned so the server
  /// can repair them from ring replicas.  With `checksumsEnabled` false
  /// the scan is skipped entirely and corruption stays in place
  /// undetected (the fuzz harness's negative control).
  VerifyReport verifyRecords(bool checksumsEnabled);

  // --- cleaner ---
  bool cleanerRunning() const { return cleanerRunning_; }
  uint64_t cleanerRuns() const { return cleanerRuns_; }
  /// Force a cleaning pass now (tests / Fig. 14 variance experiments).
  void runCleanerNow();

  const BdbConfig& config() const { return config_; }

 private:
  struct Segment {
    uint64_t bytes = 0;
    uint64_t deadBytes = 0;
    bool closed = false;
  };

  struct ViewState {
    struct BeforeImage {
      OptValue value;           ///< the key's value at open
      bool bucketRead = false;  ///< its bucket was already handed over
    };
    BdbStore* store = nullptr;
    size_t nextBucket = 0;
    bool restarted = false;
    bool done = false;
    std::unordered_map<Key, BeforeImage> saved;
  };

  /// Copy-on-write: save `key`'s value before a mutation changes it.
  /// `current` is its live value, null if absent.
  void saveBeforeImage(const Key& key, const Value* current);
  /// An insert that changes bucket_count() invalidates every bucket
  /// position: unfinished views start over.
  void restartViews();

  uint64_t recordBytes(const Key& key, const Value* value) const;
  void appendRecord(uint64_t bytes, const Key& key);
  void flushWriteBuffer(std::function<void()> done);
  void closeActiveSegment();
  void maybeScheduleCleaner();
  void cleanerTick();
  void startCleaning();

  runtime::ExecutionContext* ctx_;
  NodeId owner_;
  sim::SimDisk* disk_;
  BdbConfig config_;

  std::unordered_map<Key, Value> index_;
  std::vector<ViewState*> views_;
  /// CRC32C(key + value) of each live record, written on the put path —
  /// the per-record checksum of the segment format (the per-record
  /// overhead in recordBytes() already accounts for its on-disk size).
  std::unordered_map<Key, uint32_t> recordCrcs_;
  uint64_t liveBytes_ = 0;
  /// Maps key -> bytes of its latest on-disk record, to account dead
  /// bytes when overwritten.
  std::unordered_map<Key, uint64_t> lastRecordBytes_;

  std::deque<Segment> segments_;  // back() is the active segment
  uint64_t writeBufferBytes_ = 0;
  bool flushInFlight_ = false;

  bool cleanerRunning_ = false;
  bool cleanerScheduled_ = false;
  uint64_t cleanerRuns_ = 0;
  std::deque<std::function<void()>> backupsWaitingForCleaner_;
};

}  // namespace retro::store
