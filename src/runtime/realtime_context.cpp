#include "runtime/realtime_context.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace retro::runtime {

namespace {
constexpr auto kGreater = std::greater<>{};
}  // namespace

RealtimeContext::Node::~Node() {
  if (wakeFd >= 0) ::close(wakeFd);
}

void RealtimeContext::wake(Node& node, Wake how) {
  if (how == Wake::kCondvar) {
    node.cv.notify_one();
  } else if (how == Wake::kEventfd) {
    const uint64_t one = 1;
    // Only EAGAIN can fail here, when the counter is already huge: the
    // worker is woken either way.
    (void)!::write(node.wakeFd, &one, sizeof(one));
  }
}

bool RealtimeContext::park(Node& node, int socket, TimeMicros timeoutMicros) {
  pollfd fds[2] = {{node.wakeFd, POLLIN, 0}, {socket, POLLIN, 0}};
  timespec timeout{};
  timespec* bound = nullptr;
  if (timeoutMicros >= 0) {
    timeout.tv_sec = static_cast<time_t>(timeoutMicros / 1'000'000);
    timeout.tv_nsec = static_cast<long>(timeoutMicros % 1'000'000) * 1000;
    bound = &timeout;
  }
  const int ready = ::ppoll(fds, socket >= 0 ? 2 : 1, bound, nullptr);
  if (ready <= 0) return false;
  if (fds[0].revents & POLLIN) {
    uint64_t count = 0;
    (void)!::read(node.wakeFd, &count, sizeof(count));
  }
  return socket >= 0 && fds[1].revents != 0;
}

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
  Wake how = Wake::kNone;
  {
    std::lock_guard lk(rec->mu);
    if (!rec->connected) {
      messagesDropped_.fetch_add(1, std::memory_order_relaxed);
      return id;
    }
    rec->inbox.push_back(std::move(message));
    how = claimWake(*rec);
  }
  wake(*rec, how);
  return id;
}

void RealtimeContext::schedule(NodeId owner, TimeMicros delay,
                               std::function<void()> fn) {
  Node* rec = find(owner);
  assert(rec != nullptr && "schedule() for an unregistered node");
  if (rec == nullptr) return;
  if (delay < 0) delay = 0;
  Wake how = Wake::kNone;
  {
    std::lock_guard lk(rec->mu);
    const uint64_t seq = rec->timerSeq++;
    rec->timers.push_back(Timer{now() + delay, seq, std::move(fn)});
    std::push_heap(rec->timers.begin(), rec->timers.end(), kGreater);
    // A parked worker sleeps until the old earliest deadline: only a new
    // earliest one needs to wake it.
    if (rec->timers.front().seq == seq) how = claimWake(*rec);
  }
  wake(*rec, how);
}

void RealtimeContext::scheduleDaemon(NodeId owner, TimeMicros delay,
                                     std::function<void()> fn) {
  // Every realtime timer already has daemon semantics: stop() cancels
  // whatever has not fired.
  schedule(owner, delay, std::move(fn));
}

void RealtimeContext::attachSocket(NodeId node, int fd,
                                   std::function<void()> drain) {
  Node* rec = find(node);
  assert(rec != nullptr && "attachSocket() for an unregistered node");
  if (rec == nullptr) return;
  Wake how = Wake::kNone;
  {
    std::lock_guard lk(rec->mu);
    assert(rec->socketFd < 0 && "one socket per node");
    if (rec->wakeFd < 0) {
      rec->wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (rec->wakeFd < 0) {
        throw std::runtime_error("RealtimeContext: eventfd() failed");
      }
    }
    rec->socketFd = fd;
    rec->drain = std::move(drain);
    how = claimWake(*rec);
  }
  wake(*rec, how);
}

void RealtimeContext::detachSocket(NodeId node) {
  Node* rec = find(node);
  if (rec == nullptr) return;
  std::unique_lock lk(rec->mu);
  const int fd = rec->socketFd;
  if (fd < 0) return;
  rec->socketFd = -1;
  // Only a running worker holds a socket: it clears heldSocket on exit.
  if (rec->heldSocket == fd) {
    wake(*rec, Wake::kEventfd);
    rec->released.wait(lk, [&] { return rec->heldSocket != fd; });
  }
  rec->drain = nullptr;
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
    // The eventfd needs no such care: it stays readable until read.
    { std::lock_guard lk(rec->mu); }
    rec->cv.notify_all();
    if (rec->wakeFd >= 0) wake(*rec, Wake::kEventfd);
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
  int socket = -1;
  for (;;) {
    {
      std::unique_lock lk(node.mu);
      for (;;) {
        if (node.heldSocket != node.socketFd) {
          // Let go of a detached socket before anything else: the
          // detacher closes it as soon as it is released.
          const bool released = node.heldSocket >= 0;
          node.heldSocket = node.socketFd;
          if (released) node.released.notify_all();
        }
        if (stop_.load(std::memory_order_acquire)) {
          node.heldSocket = -1;
          node.released.notify_all();
          return;
        }
        socket = node.heldSocket;
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
        node.parked.store(true, std::memory_order_relaxed);
        if (socket < 0) {
          if (node.timers.empty()) {
            node.cv.wait(lk);
          } else {
            node.cv.wait_until(
                lk, base_ + std::chrono::microseconds(node.timers.front().when));
          }
          node.parked.store(false, std::memory_order_relaxed);
          continue;
        }
        const TimeMicros timeout =
            node.timers.empty() ? -1 : node.timers.front().when - t;
        lk.unlock();
        const bool readable = park(node, socket, timeout);
        node.parked.store(false, std::memory_order_relaxed);
        if (readable) node.drain();
        lk.lock();
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
    // A busy node may never park: read its socket at every pass.
    if (socket >= 0) node.drain();
  }
}

}  // namespace retro::runtime
