// Unit tests for the thread-per-node RealtimeContext: timer ordering,
// message delivery, batched drains, disconnect semantics, lifecycle
// (start/stop idempotence), attached sockets, and the simulator's cost
// model staying out of realtime runs.  All waits draw their budget from
// RETRO_REALTIME_TIMEOUT_MS via runtime::waitForCondition — no
// hard-coded sleeps.
#include "runtime/realtime_context.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/deadline.hpp"
#include "sim/disk.hpp"
#include "sim/executor.hpp"

namespace retro::runtime {
namespace {

TEST(RealtimeContext, NowIsMonotonic) {
  RealtimeContext ctx;
  TimeMicros last = ctx.now();
  for (int i = 0; i < 1'000; ++i) {
    const TimeMicros t = ctx.now();
    ASSERT_GE(t, last);
    last = t;
  }
}

TEST(RealtimeContext, TimersFireInDeadlineOrderOnOwnerThread) {
  RealtimeContext ctx;
  ctx.registerNode(0, [](Message&&) {});
  std::vector<int> order;           // touched only by node 0's thread...
  std::atomic<int> fired{0};        // ...observed via this atomic
  // Armed before start(), deliberately out of order.
  ctx.schedule(0, 3'000, [&] { order.push_back(3); fired.fetch_add(1); });
  ctx.schedule(0, 1'000, [&] { order.push_back(1); fired.fetch_add(1); });
  ctx.schedule(0, 2'000, [&] { order.push_back(2); fired.fetch_add(1); });
  ctx.schedule(0, 0, [&] { order.push_back(0); fired.fetch_add(1); });
  ctx.start();
  ASSERT_TRUE(waitForCondition([&] { return fired.load() == 4; }));
  ctx.stop();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(RealtimeContext, SameDeadlineTimersKeepFifoOrder) {
  RealtimeContext ctx;
  ctx.registerNode(0, [](Message&&) {});
  std::vector<int> order;
  std::atomic<int> fired{0};
  for (int i = 0; i < 8; ++i) {
    ctx.schedule(0, 500, [&order, &fired, i] {
      order.push_back(i);
      fired.fetch_add(1);
    });
  }
  ctx.start();
  ASSERT_TRUE(waitForCondition([&] { return fired.load() == 8; }));
  ctx.stop();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(RealtimeContext, DeliversMessagesToHandler) {
  RealtimeContext ctx;
  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> bytes{0};
  ctx.registerNode(1, [&](Message&& m) {
    received.fetch_add(1);
    bytes.fetch_add(m.payload.size());
  });
  ctx.registerNode(2, [](Message&&) {});
  ctx.start();
  const int kMessages = 500;
  for (int i = 0; i < kMessages; ++i) {
    const uint64_t id = ctx.send(Message{2, 1, 7, std::string(10, 'x')});
    EXPECT_GT(id, 0u);
  }
  ASSERT_TRUE(waitForCondition([&] { return received.load() == kMessages; }));
  ctx.stop();
  EXPECT_EQ(bytes.load(), kMessages * 10u);
  EXPECT_EQ(ctx.messagesSent(), static_cast<uint64_t>(kMessages));
  EXPECT_EQ(ctx.messagesDelivered(), static_cast<uint64_t>(kMessages));
  EXPECT_EQ(ctx.messagesDropped(), 0u);
}

TEST(RealtimeContext, MessagesSentBeforeStartAreDeliveredAfterIt) {
  RealtimeContext ctx;
  std::atomic<int> received{0};
  ctx.registerNode(0, [&](Message&&) { received.fetch_add(1); });
  ctx.send(Message{0, 0, 1, "early"});
  ctx.send(Message{0, 0, 1, "early2"});
  EXPECT_EQ(received.load(), 0);
  ctx.start();
  ASSERT_TRUE(waitForCondition([&] { return received.load() == 2; }));
  ctx.stop();
}

TEST(RealtimeContext, DrainsAreBatched) {
  RealtimeContext ctx;
  std::atomic<int> received{0};
  ctx.registerNode(0, [&](Message&&) { received.fetch_add(1); });
  // Flood the inbox before any worker exists: the first drains must pull
  // full batches (bounded by the limit), not one message per lock round.
  const int kMessages = 3 * static_cast<int>(RealtimeContext::kDrainBatchLimit);
  for (int i = 0; i < kMessages; ++i) ctx.send(Message{0, 0, 1, "m"});
  ctx.start();
  ASSERT_TRUE(waitForCondition([&] { return received.load() == kMessages; }));
  ctx.stop();
  EXPECT_EQ(ctx.messagesDelivered(), static_cast<uint64_t>(kMessages));
  EXPECT_GT(ctx.maxDrainBatch(), 1u);
  EXPECT_LE(ctx.maxDrainBatch(), RealtimeContext::kDrainBatchLimit);
  EXPECT_LT(ctx.drains(), static_cast<uint64_t>(kMessages));
}

TEST(RealtimeContext, DisconnectDropsMessages) {
  RealtimeContext ctx;
  std::atomic<int> received{0};
  ctx.registerNode(0, [&](Message&&) { received.fetch_add(1); });
  ctx.registerNode(1, [](Message&&) {});
  EXPECT_TRUE(ctx.isConnected(0));
  ctx.start();
  ctx.send(Message{1, 0, 1, "a"});
  ASSERT_TRUE(waitForCondition([&] { return received.load() == 1; }));
  ctx.disconnect(0);
  EXPECT_FALSE(ctx.isConnected(0));
  ctx.send(Message{1, 0, 1, "b"});
  ctx.send(Message{1, 0, 1, "c"});
  ASSERT_TRUE(waitForCondition([&] { return ctx.messagesDropped() >= 2; }));
  ctx.stop();
  EXPECT_EQ(received.load(), 1);
  // Sends to unknown nodes also count as drops, not crashes.
  EXPECT_FALSE(ctx.isConnected(99));
}

TEST(RealtimeContext, PingPongAcrossNodes) {
  RealtimeContext ctx;
  std::atomic<int> rounds{0};
  const int kRounds = 200;
  ctx.registerNode(0, [&](Message&& m) {
    if (rounds.fetch_add(1) + 1 < kRounds) {
      ctx.send(Message{0, 1, 0, std::move(m.payload)});
    }
  });
  ctx.registerNode(1, [&](Message&& m) {
    ctx.send(Message{1, 0, 0, std::move(m.payload)});
  });
  ctx.start();
  ctx.send(Message{1, 0, 0, "ball"});
  ASSERT_TRUE(waitForCondition([&] { return rounds.load() >= kRounds; }));
  ctx.stop();
  EXPECT_GE(ctx.messagesDelivered(), static_cast<uint64_t>(kRounds));
}

TEST(RealtimeContext, DaemonTimersDoNotBlockStop) {
  RealtimeContext ctx;
  std::atomic<int> beats{0};
  ctx.registerNode(0, [](Message&&) {});
  // Self-rescheduling daemon, like a gossip/checkpoint loop.
  std::function<void()> beat = [&] {
    beats.fetch_add(1);
    ctx.scheduleDaemon(0, 100, beat);
  };
  ctx.scheduleDaemon(0, 0, beat);
  ctx.start();
  ASSERT_TRUE(waitForCondition([&] { return beats.load() >= 3; }));
  ctx.stop();  // must return despite the always-armed daemon timer
  const int after = beats.load();
  EXPECT_GE(after, 3);
}

TEST(RealtimeContext, StopIsIdempotentAndStateReadableAfter) {
  auto ctx = std::make_unique<RealtimeContext>();
  std::vector<int> values;  // plain vector: safe to read after stop()
  std::atomic<int> fired{0};
  ctx->registerNode(0, [&](Message&& m) {
    values.push_back(static_cast<int>(m.payload.size()));
    fired.fetch_add(1);
  });
  ctx->start();
  ctx->send(Message{0, 0, 1, "xy"});
  ASSERT_TRUE(waitForCondition([&] { return fired.load() == 1; }));
  ctx->stop();
  ctx->stop();  // idempotent
  EXPECT_EQ(values, (std::vector<int>{2}));
  ctx.reset();  // destructor after explicit stop() is fine too
}

TEST(RealtimeContext, PostRunsOnOwnerThread) {
  RealtimeContext ctx;
  ctx.registerNode(3, [](Message&&) {});
  ctx.start();
  std::atomic<bool> ran{false};
  std::thread::id workerId;
  ctx.post(3, [&] {
    workerId = std::this_thread::get_id();
    ran.store(true);
  });
  ASSERT_TRUE(waitForCondition([&] { return ran.load(); }));
  EXPECT_NE(workerId, std::this_thread::get_id());
  ctx.stop();
}

TEST(RealtimeContext, AttachedSocketIsDrainedOnTheNodeThreadUntilDetached) {
  // A pipe stands in for a socket: the parked worker must wake for it,
  // drain it on its own thread, and never touch it after the detach.
  int pipeFds[2];
  ASSERT_EQ(::pipe2(pipeFds, O_NONBLOCK), 0);
  RealtimeContext ctx;
  ctx.registerNode(3, [](Message&&) {});
  std::atomic<int> bytesRead{0};
  std::atomic<bool> offThread{false};
  std::thread::id workerId;
  std::atomic<bool> idKnown{false};
  ctx.attachSocket(3, pipeFds[0], [&] {
    char buf[16];
    ssize_t n;
    while ((n = ::read(pipeFds[0], buf, sizeof(buf))) > 0) {
      bytesRead.fetch_add(static_cast<int>(n));
    }
    if (idKnown.load() && std::this_thread::get_id() != workerId) {
      offThread.store(true);
    }
  });
  ctx.start();
  ctx.post(3, [&] {
    workerId = std::this_thread::get_id();
    idKnown.store(true);
  });
  ASSERT_TRUE(waitForCondition([&] { return idKnown.load(); }));
  ASSERT_EQ(::write(pipeFds[1], "x", 1), 1);
  ASSERT_TRUE(waitForCondition([&] { return bytesRead.load() == 1; }));
  ctx.detachSocket(3);
  ASSERT_EQ(::write(pipeFds[1], "y", 1), 1);
  // The worker keeps running, and a timer's pass would drain the pipe
  // if it were still attached.
  std::atomic<int> passes{0};
  for (int i = 0; i < 5; ++i) ctx.post(3, [&] { passes.fetch_add(1); });
  ASSERT_TRUE(waitForCondition([&] { return passes.load() == 5; }));
  ctx.stop();
  EXPECT_EQ(bytesRead.load(), 1);
  EXPECT_FALSE(offThread.load());
  ::close(pipeFds[0]);
  ::close(pipeFds[1]);
}

// Modelled CPU and disk time belong to the simulator: on a realtime
// context the Executor and SimDisk post at once and charge nothing.  If
// they charged, the read below alone would take about 18 minutes.
TEST(RealtimeContext, ExecutorAndDiskChargeNoModelledTime) {
  constexpr uint64_t kGiB = 1ull << 30;
  std::vector<int> order;     // touched only by node 0's thread...
  std::atomic<int> fired{0};  // ...observed via this atomic
  RealtimeContext ctx;
  ctx.registerNode(0, [](Message&&) {});
  sim::Executor executor(ctx, 0);
  sim::SimDisk disk(ctx, {.readMBps = 1, .seekMicros = 100'000}, 0);
  ctx.start();
  ctx.post(0, [&] {
    for (int i = 0; i < 3; ++i) {
      executor.submit(50'000, [&order, &fired, i] {
        order.push_back(i);
        fired.fetch_add(1);
      });
    }
    disk.read(kGiB, [&] { fired.fetch_add(1); });
  });
  ASSERT_TRUE(waitForCondition([&] { return fired.load() == 4; }));
  ctx.stop();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(executor.totalBusyMicros(), 0);
  EXPECT_EQ(executor.busyUntil(), 0);
  EXPECT_EQ(disk.busyUntil(), 0);
  EXPECT_EQ(disk.bytesRead(), kGiB);
}

// dispose() from several node threads while they run: each object is
// destroyed on the reclaimer, never on the node thread that disposed of
// it, and every destructor has run when stop() returns.  CI's TSan race
// sweep repeats this case.
TEST(RealtimeContext, DisposedObjectsDieOffNodeThreadsBeforeStopReturns) {
  constexpr int kNodes = 4;
  constexpr int kPerNode = 64;
  struct Large {
    Large(std::atomic<int>* destroyed, std::atomic<int>* onOwnThread)
        : destroyed(destroyed),
          onOwnThread(onOwnThread),
          owner(std::this_thread::get_id()),
          rows(512, std::string(96, 'x')) {}
    ~Large() {
      if (std::this_thread::get_id() == owner) onOwnThread->fetch_add(1);
      destroyed->fetch_add(1);
    }
    std::atomic<int>* destroyed;
    std::atomic<int>* onOwnThread;
    std::thread::id owner;
    std::vector<std::string> rows;
  };
  RealtimeContext ctx;
  std::atomic<int> disposed{0};
  std::atomic<int> destroyed{0};
  std::atomic<int> onOwnThread{0};
  std::atomic<int> delivered{0};
  for (NodeId n = 0; n < kNodes; ++n) {
    ctx.registerNode(n, [&](Message&&) { delivered.fetch_add(1); });
  }
  ctx.start();
  for (NodeId n = 0; n < kNodes; ++n) {
    for (int i = 0; i < kPerNode; ++i) {
      ctx.post(n, [&, n] {
        ctx.dispose(std::make_shared<Large>(&destroyed, &onOwnThread));
        disposed.fetch_add(1);
        // Keep the nodes busy with traffic while the reclaimer frees.
        ctx.send(Message{n, static_cast<NodeId>((n + 1) % kNodes), 0, "p"});
      });
    }
  }
  ASSERT_TRUE(waitForCondition(
      [&] { return disposed.load() == kNodes * kPerNode; }));
  ctx.stop();
  EXPECT_EQ(destroyed.load(), kNodes * kPerNode);
  EXPECT_EQ(onOwnThread.load(), 0);
  // With the workers gone, dispose() destroys inline.
  ctx.dispose(std::make_shared<Large>(&destroyed, &onOwnThread));
  EXPECT_EQ(destroyed.load(), kNodes * kPerNode + 1);
  EXPECT_GT(delivered.load(), 0);
}

}  // namespace
}  // namespace retro::runtime
