#include "storage/bdb_store.hpp"

#include "common/checksum.hpp"

namespace retro::store {

namespace {
uint32_t recordChecksum(const Key& key, const Value& value) {
  return crc32c(value, crc32c(key));
}
}  // namespace

BdbStore::BdbStore(runtime::ExecutionContext& ctx, sim::SimDisk& disk,
                   BdbConfig config, NodeId owner)
    : ctx_(&ctx), owner_(owner), disk_(&disk), config_(config) {
  segments_.push_back(Segment{});
  maybeScheduleCleaner();
}

BdbStore::~BdbStore() {
  for (ViewState* v : views_) v->store = nullptr;
}

BdbStore::View BdbStore::openView() {
  auto state = std::make_unique<ViewState>();
  state->store = this;
  views_.push_back(state.get());
  return View(std::move(state));
}

BdbStore::View& BdbStore::View::operator=(View&& other) noexcept {
  if (this != &other) {
    close();
    state_ = std::move(other.state_);
  }
  return *this;
}

void BdbStore::View::close() {
  if (state_ == nullptr) return;
  if (BdbStore* store = state_->store) {
    std::erase(store->views_, state_.get());
  }
  state_.reset();
}

BdbStore::ViewRead BdbStore::View::read(
    uint64_t budgetBytes,
    const std::function<void(const Key&, const Value&)>& sink) {
  if (!isOpen()) return ViewRead::kClosed;
  ViewState& v = *state_;
  if (v.restarted) {
    v.restarted = false;
    return ViewRead::kRestarted;
  }
  if (v.done) return ViewRead::kDone;
  const auto& index = v.store->index_;
  const size_t buckets = index.bucket_count();
  // Bucket order visits the nodes in no memory order, so each bucket's
  // first node is touched a few buckets ahead (its before-node load then
  // overlaps this bucket's copy) and its value bytes a few buckets later.
  constexpr size_t kNodeAhead = 16;
  constexpr size_t kValueAhead = 8;
  uint64_t bytes = 0;
  // At least one entry per call, so a zero budget still makes progress.
  while (v.nextBucket < buckets && (bytes < budgetBytes || bytes == 0)) {
    const size_t b = v.nextBucket++;
    if (b + kNodeAhead < buckets) {
      const auto ahead = index.begin(b + kNodeAhead);
      if (ahead != index.end(b + kNodeAhead)) __builtin_prefetch(&*ahead);
    }
    if (b + kValueAhead < buckets) {
      const auto ahead = index.begin(b + kValueAhead);
      if (ahead != index.end(b + kValueAhead)) {
        __builtin_prefetch(ahead->second.data());
      }
    }
    for (auto it = index.begin(b); it != index.end(b); ++it) {
      if (!v.saved.empty() && v.saved.contains(it->first)) continue;
      bytes += it->first.size() + it->second.size();
      sink(it->first, it->second);
    }
  }
  if (v.nextBucket < buckets) return ViewRead::kMore;
  // Keys changed before their bucket came up: their values at open.
  for (auto& [key, image] : v.saved) {
    if (!image.bucketRead && image.value) sink(key, *image.value);
    image.bucketRead = true;
  }
  v.done = true;
  return ViewRead::kDone;
}

const Value* BdbStore::View::valueAtOpen(const Key& key) const {
  if (!isOpen()) return nullptr;
  if (const auto it = state_->saved.find(key); it != state_->saved.end()) {
    return it->second.value ? &*it->second.value : nullptr;
  }
  const auto& index = state_->store->index_;
  const auto it = index.find(key);
  return it == index.end() ? nullptr : &it->second;
}

void BdbStore::saveBeforeImage(const Key& key, const Value* current) {
  if (views_.empty()) return;
  const size_t bucket = index_.bucket(key);
  for (ViewState* v : views_) {
    auto [it, inserted] = v->saved.try_emplace(key);
    if (!inserted) continue;
    if (current != nullptr) it->second.value = *current;
    it->second.bucketRead = v->done || bucket < v->nextBucket;
  }
}

void BdbStore::restartViews() {
  for (ViewState* v : views_) {
    if (v->done) continue;
    v->nextBucket = 0;
    v->restarted = true;
    for (auto& [key, image] : v->saved) image.bucketRead = false;
  }
}

uint64_t BdbStore::recordBytes(const Key& key, const Value* value) const {
  constexpr size_t kRecordOverheadBytes = 32;  // headers, checksums
  return key.size() + (value ? value->size() : 0) + kRecordOverheadBytes;
}

void BdbStore::put(const Key& key, Value value) {
  auto it = index_.find(key);
  saveBeforeImage(key, it == index_.end() ? nullptr : &it->second);
  if (it != index_.end()) {
    liveBytes_ -= key.size() + it->second.size();
    it->second = std::move(value);
  } else {
    const size_t buckets = index_.bucket_count();
    it = index_.emplace(key, std::move(value)).first;
    if (index_.bucket_count() != buckets) restartViews();
  }
  liveBytes_ += key.size() + it->second.size();
  recordCrcs_[key] = recordChecksum(key, it->second);
  appendRecord(recordBytes(key, &it->second), key);
}

OptValue BdbStore::get(const Key& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void BdbStore::remove(const Key& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return;
  saveBeforeImage(key, &it->second);
  liveBytes_ -= key.size() + it->second.size();
  index_.erase(it);
  recordCrcs_.erase(key);
  appendRecord(recordBytes(key, nullptr), key);  // tombstone record
}

uint32_t BdbStore::recordCrc(const Key& key) const {
  auto it = recordCrcs_.find(key);
  return it == recordCrcs_.end() ? 0 : it->second;
}

bool BdbStore::corruptRecordValue(const Key& key, uint64_t bitDraw) {
  auto it = index_.find(key);
  if (it == index_.end() || it->second.empty()) return false;
  saveBeforeImage(key, &it->second);
  const size_t bit = static_cast<size_t>(bitDraw % (it->second.size() * 8));
  it->second[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  return true;
}

BdbStore::VerifyReport BdbStore::verifyRecords(bool checksumsEnabled) {
  VerifyReport report;
  if (!checksumsEnabled) return report;
  for (const auto& [key, value] : index_) {
    ++report.recordsChecked;
    if (recordCrc(key) != recordChecksum(key, value)) {
      report.quarantined.push_back(key);
    }
  }
  for (const Key& key : report.quarantined) {
    auto it = index_.find(key);
    saveBeforeImage(key, &it->second);
    liveBytes_ -= key.size() + it->second.size();
    index_.erase(it);
    recordCrcs_.erase(key);
    // The unreadable record's bytes stay in its segment as garbage for
    // the cleaner, like any shadowed record.
    auto prev = lastRecordBytes_.find(key);
    if (prev != lastRecordBytes_.end()) {
      segments_.front().deadBytes += prev->second;
      lastRecordBytes_.erase(prev);
    }
  }
  return report;
}

void BdbStore::appendRecord(uint64_t bytes, const Key& key) {
  Segment& active = segments_.back();
  active.bytes += bytes;
  writeBufferBytes_ += bytes;

  // The record this key previously pointed at becomes dead.
  auto prev = lastRecordBytes_.find(key);
  if (prev != lastRecordBytes_.end()) {
    // Dead bytes are attributed to the aggregate pool: individual
    // record->segment tracking is not needed for the timing model.
    segments_.front().deadBytes += prev->second;
    prev->second = bytes;
  } else {
    lastRecordBytes_.emplace(key, bytes);
  }

  if (active.bytes >= config_.segmentMaxBytes) closeActiveSegment();
  if (writeBufferBytes_ >= config_.writeBufferFlushBytes && !flushInFlight_) {
    flushWriteBuffer([] {});
  }
}

void BdbStore::closeActiveSegment() {
  segments_.back().closed = true;
  segments_.push_back(Segment{});
}

void BdbStore::flushWriteBuffer(std::function<void()> done) {
  const uint64_t bytes = writeBufferBytes_;
  writeBufferBytes_ = 0;
  if (bytes == 0) {
    ctx_->schedule(owner_, 0, std::move(done));
    return;
  }
  flushInFlight_ = true;
  disk_->write(bytes, [this, done = std::move(done)] {
    flushInFlight_ = false;
    done();
  });
}

uint64_t BdbStore::totalSegmentBytes() const {
  uint64_t total = 0;
  for (const Segment& s : segments_) total += s.bytes;
  return total;
}

void BdbStore::hotBackup(std::function<void(uint64_t)> done) {
  if (cleanerRunning_) {
    // The cleaner keeps the data files open; the backup must wait
    // (§V-C: "a system must wait for cleaning to complete").
    backupsWaitingForCleaner_.push_back(
        [this, done = std::move(done)]() mutable { hotBackup(std::move(done)); });
    return;
  }
  // Step 1: flush all changes to disk and close the active segment so no
  // further mutations land in the files being copied.
  flushWriteBuffer([this, done = std::move(done)]() mutable {
    closeActiveSegment();
    uint64_t closedBytes = 0;
    for (const Segment& s : segments_) {
      if (s.closed) closedBytes += s.bytes;
    }
    // Step 2: copy the closed files — a read plus a write of their bytes.
    disk_->read(closedBytes, [this, closedBytes, done = std::move(done)] {
      disk_->write(closedBytes, [closedBytes, done = std::move(done)] {
        done(closedBytes);
      });
    });
  });
}

void BdbStore::maybeScheduleCleaner() {
  if (!config_.cleanerEnabled || cleanerScheduled_) return;
  cleanerScheduled_ = true;
  ctx_->scheduleDaemon(owner_, config_.cleanerCheckPeriodMicros, [this] {
    cleanerScheduled_ = false;
    cleanerTick();
    maybeScheduleCleaner();
  });
}

void BdbStore::cleanerTick() {
  if (cleanerRunning_) return;
  const uint64_t total = totalSegmentBytes();
  const uint64_t dead = segments_.front().deadBytes;
  if (total == 0) return;
  if (static_cast<double>(dead) / static_cast<double>(total) >=
      config_.cleanerWakeupDeadFraction) {
    startCleaning();
  }
}

void BdbStore::runCleanerNow() {
  if (!cleanerRunning_) startCleaning();
}

void BdbStore::startCleaning() {
  cleanerRunning_ = true;
  ++cleanerRuns_;
  // Cleaning reads the dirty segments and rewrites the live records: a
  // read of the dead+live bytes being processed plus a write of the
  // surviving live bytes.
  const uint64_t dead = segments_.front().deadBytes;
  const uint64_t processed = dead * 2;  // segments are ~half dead when cleaned
  disk_->read(processed, [this, dead, processed] {
    disk_->write(processed > dead ? processed - dead : 0, [this, dead] {
      // Drop the reclaimed bytes from the oldest closed segments.
      uint64_t toReclaim = dead;
      while (toReclaim > 0 && segments_.size() > 1 && segments_.front().closed) {
        Segment& s = segments_.front();
        const uint64_t cut = std::min(toReclaim, s.bytes);
        s.bytes -= cut;
        toReclaim -= cut;
        if (s.bytes == 0) {
          segments_.pop_front();
        } else {
          break;
        }
      }
      if (!segments_.empty()) segments_.front().deadBytes = 0;
      cleanerRunning_ = false;
      // Release any backups that queued behind the cleaner.
      auto waiting = std::move(backupsWaitingForCleaner_);
      backupsWaitingForCleaner_.clear();
      for (auto& resume : waiting) ctx_->schedule(owner_, 0, std::move(resume));
    });
  });
}

}  // namespace retro::store
