#include "runtime/realtime_context.hpp"

#include <algorithm>
#include <cassert>

namespace retro::runtime {

namespace {
constexpr auto kGreater = std::greater<>{};
}  // namespace

RealtimeContext::RealtimeContext()
    : base_(std::chrono::steady_clock::now()) {}

RealtimeContext::~RealtimeContext() { stop(); }

TimeMicros RealtimeContext::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - base_)
      .count();
}

RealtimeContext::Node* RealtimeContext::find(NodeId node) {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : it->second.get();
}

const RealtimeContext::Node* RealtimeContext::find(NodeId node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : it->second.get();
}

void RealtimeContext::registerNode(NodeId node, Handler handler) {
  if (started_) {
    // Post-start, only a node created before start() may re-register
    // (crash/restart recovery re-attaching its handler).  The node map
    // itself is never mutated once threads exist — lookups are lock-free
    // because the map is immutable after start().
    Node* rec = find(node);
    assert(rec != nullptr && "post-start registerNode requires an existing node");
    if (rec == nullptr) return;
    {
      std::lock_guard lk(rec->mu);
      rec->handler = std::move(handler);
      rec->connected = true;
      rec->inbox.clear();  // anything queued at the dead incarnation is lost
    }
    rec->cv.notify_all();
    return;
  }
  auto& rec = nodes_[node];
  if (!rec) rec = std::make_unique<Node>();
  rec->handler = std::move(handler);
  rec->connected = true;
}

void RealtimeContext::disconnect(NodeId node) {
  Node* rec = find(node);
  if (!rec) return;
  std::lock_guard lk(rec->mu);
  rec->connected = false;
  rec->inbox.clear();
}

bool RealtimeContext::isConnected(NodeId node) const {
  const Node* rec = find(node);
  if (!rec) return false;
  std::lock_guard lk(rec->mu);
  return rec->connected;
}

uint64_t RealtimeContext::send(Message message) {
  // A nonzero msgId is preserved so interposers (FaultfulContext) can
  // assign ids at the outer layer and keep trace correlation across
  // duplicated/delayed re-injections of the same logical message.
  if (message.msgId == 0) {
    message.msgId = nextMsgId_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t id = message.msgId;
  messagesSent_.fetch_add(1, std::memory_order_relaxed);
  bytesSent_.fetch_add(message.payload.size(), std::memory_order_relaxed);
  Node* rec = find(message.to);
  if (rec == nullptr) {
    messagesDropped_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }
  {
    std::lock_guard lk(rec->mu);
    if (!rec->connected) {
      messagesDropped_.fetch_add(1, std::memory_order_relaxed);
      return id;
    }
    rec->inbox.push_back(std::move(message));
  }
  rec->cv.notify_one();
  return id;
}

void RealtimeContext::schedule(NodeId owner, TimeMicros delay,
                               std::function<void()> fn) {
  Node* rec = find(owner);
  assert(rec != nullptr && "schedule() for an unregistered node");
  if (rec == nullptr) return;
  if (delay < 0) delay = 0;
  {
    std::lock_guard lk(rec->mu);
    rec->timers.push_back(Timer{now() + delay, rec->timerSeq++, std::move(fn)});
    std::push_heap(rec->timers.begin(), rec->timers.end(), kGreater);
  }
  rec->cv.notify_one();
}

void RealtimeContext::scheduleDaemon(NodeId owner, TimeMicros delay,
                                     std::function<void()> fn) {
  // Every realtime timer already has daemon semantics: stop() cancels
  // whatever has not fired.
  schedule(owner, delay, std::move(fn));
}

void RealtimeContext::dispose(std::shared_ptr<void> garbage) {
  std::unique_lock lk(reclaimMu_);
  if (!reclaiming_) {
    // Before start() or after stop(): no node thread runs to stall.
    lk.unlock();
    garbage.reset();
    return;
  }
  garbage_.push_back(std::move(garbage));
  lk.unlock();
  reclaimCv_.notify_one();
}

void RealtimeContext::reclaimLoop() {
  std::vector<std::shared_ptr<void>> batch;
  std::unique_lock lk(reclaimMu_);
  for (;;) {
    reclaimCv_.wait(lk, [this] { return !garbage_.empty() || !reclaiming_; });
    if (garbage_.empty()) return;  // stopping, and everything is destroyed
    batch.swap(garbage_);
    lk.unlock();
    batch.clear();
    lk.lock();
  }
}

void RealtimeContext::start() {
  assert(!started_);
  started_ = true;
  {
    std::lock_guard lk(reclaimMu_);
    reclaiming_ = true;
  }
  reclaimer_ = std::thread([this] { reclaimLoop(); });
  for (auto& [id, rec] : nodes_) {
    (void)id;
    rec->thread = std::thread([this, node = rec.get()] { workerLoop(*node); });
  }
}

void RealtimeContext::stop() {
  if (joined_) return;
  stop_.store(true, std::memory_order_release);
  for (auto& [id, rec] : nodes_) {
    (void)id;
    // A worker reads stop_ under its node's lock before it parks; taking
    // that lock here means the notify cannot fall between the read and
    // the wait and be lost, which left an idle worker parked forever.
    { std::lock_guard lk(rec->mu); }
    rec->cv.notify_all();
  }
  for (auto& [id, rec] : nodes_) {
    (void)id;
    if (rec->thread.joinable()) rec->thread.join();
  }
  // No node can dispose of anything now: drain the reclaimer and join it.
  {
    std::lock_guard lk(reclaimMu_);
    reclaiming_ = false;
  }
  reclaimCv_.notify_all();
  if (reclaimer_.joinable()) reclaimer_.join();
  joined_ = true;
}

void RealtimeContext::workerLoop(Node& node) {
  std::vector<Message> batch;
  std::vector<std::function<void()>> due;
  Handler handler;
  for (;;) {
    {
      std::unique_lock lk(node.mu);
      for (;;) {
        if (stop_.load(std::memory_order_acquire)) return;
        const TimeMicros t = now();
        while (!node.timers.empty() && node.timers.front().when <= t) {
          std::pop_heap(node.timers.begin(), node.timers.end(), kGreater);
          due.push_back(std::move(node.timers.back().fn));
          node.timers.pop_back();
        }
        const size_t take = std::min(node.inbox.size(), kDrainBatchLimit);
        for (size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(node.inbox.front()));
          node.inbox.pop_front();
        }
        if (!batch.empty() || !due.empty()) break;
        if (node.timers.empty()) {
          node.cv.wait(lk);
        } else {
          node.cv.wait_until(
              lk, base_ + std::chrono::microseconds(node.timers.front().when));
        }
      }
      // Snapshot the handler under the lock: a crash/restart cycle may
      // re-register a new one concurrently; this batch keeps the one it
      // was drained under.
      handler = node.handler;
    }
    if (!batch.empty()) {
      drains_.fetch_add(1, std::memory_order_relaxed);
      uint64_t seen = maxDrainBatch_.load(std::memory_order_relaxed);
      while (batch.size() > seen &&
             !maxDrainBatch_.compare_exchange_weak(
                 seen, batch.size(), std::memory_order_relaxed)) {
      }
    }
    for (auto& fn : due) fn();
    for (auto& msg : batch) {
      messagesDelivered_.fetch_add(1, std::memory_order_relaxed);
      handler(std::move(msg));
    }
    due.clear();
    batch.clear();
  }
}

}  // namespace retro::runtime
