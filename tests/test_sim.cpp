// Unit tests for the discrete-event engine, virtual time, RNG, and stats.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/timeline.hpp"
#include "support/sha256.hpp"

namespace {

using namespace gcmpi::sim;

// Increments a counter when destroyed: held by an actor that is parked when
// the engine aborts, it proves the actor's stack was unwound, not dropped.
struct UnwindCounter {
  int& count;
  ~UnwindCounter() { ++count; }
};

TEST(Time, ArithmeticAndConversions) {
  EXPECT_EQ(Time::us(1).count_ns(), 1000);
  EXPECT_EQ(Time::ms(1.5).count_ns(), 1'500'000);
  EXPECT_EQ(Time::seconds(2).count_ns(), 2'000'000'000);
  EXPECT_EQ((Time::us(2) + Time::us(3)).count_ns(), 5000);
  EXPECT_EQ((Time::us(5) - Time::us(3)).count_ns(), 2000);
  EXPECT_EQ((Time::us(5) * 3).count_ns(), 15000);
  EXPECT_LT(Time::us(1), Time::us(2));
  EXPECT_DOUBLE_EQ(Time::ms(2).to_us(), 2000.0);
  EXPECT_DOUBLE_EQ(Time::seconds(1).to_ms(), 1000.0);
}

TEST(Time, TransferTime) {
  // 1 GiB-free math: 12.5 GB/s moves 12.5e9 bytes in one second.
  EXPECT_EQ(transfer_time(12'500'000'000ull, 12.5).count_ns(), 1'000'000'000);
  EXPECT_EQ(transfer_time(0, 12.5).count_ns(), 0);
}

TEST(Timeline, AdvanceSemantics) {
  Timeline tl(Time::us(10));
  tl.advance(Time::us(5));
  EXPECT_EQ(tl.now(), Time::us(15));
  tl.advance_to(Time::us(12));  // no-op, already past
  EXPECT_EQ(tl.now(), Time::us(15));
  tl.advance_to(Time::us(20));
  EXPECT_EQ(tl.now(), Time::us(20));
}

TEST(Engine, SingleActorAdvances) {
  Engine e;
  Time end = Time::zero();
  e.spawn("a", [&](ActorContext& ctx) {
    ctx.advance(Time::us(5));
    ctx.advance(Time::us(7));
    end = ctx.now();
  });
  e.run();
  EXPECT_EQ(end, Time::us(12));
  EXPECT_EQ(e.now(), Time::us(12));
}

TEST(Engine, ActorsInterleaveDeterministically) {
  Engine e;
  std::vector<int> order;
  e.spawn("a", [&](ActorContext& ctx) {
    order.push_back(1);
    ctx.advance(Time::us(10));
    order.push_back(3);
  });
  e.spawn("b", [&](ActorContext& ctx) {
    order.push_back(2);
    ctx.advance(Time::us(5));
    order.push_back(4);  // b resumes at t=5, before a's t=10
    ctx.advance(Time::us(10));
    order.push_back(5);  // ... and finishes at t=15, after a's 3 at t=10
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3, 5}));
  // a ended at 10, b at 15.
  EXPECT_EQ(e.now(), Time::us(15));
}

TEST(Engine, ScheduledCallbacksRunAtTheirTime) {
  Engine e;
  std::vector<std::int64_t> fired;
  e.spawn("a", [&](ActorContext& ctx) {
    ctx.engine().schedule(Time::us(3), [&] { fired.push_back(3); });
    ctx.engine().schedule(Time::us(1), [&] { fired.push_back(1); });
    ctx.advance(Time::us(10));
  });
  e.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{1, 3}));
}

TEST(Engine, CancelableTimerFiresUnlessCanceled) {
  Engine e;
  std::vector<int> fired;
  e.spawn("a", [&](ActorContext& ctx) {
    auto keep = ctx.engine().schedule_cancelable(Time::us(2), [&] { fired.push_back(2); });
    auto drop = ctx.engine().schedule_cancelable(Time::us(3), [&] { fired.push_back(3); });
    Engine::cancel(drop);
    EXPECT_FALSE(drop);  // cancel() releases the token
    ctx.advance(Time::us(10));
  });
  e.run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(Engine, CancelAfterFiringIsHarmless) {
  Engine e;
  int fired = 0;
  Engine::CancelToken token;
  e.spawn("a", [&](ActorContext& ctx) {
    token = ctx.engine().schedule_cancelable(Time::us(1), [&] { ++fired; });
    ctx.advance(Time::us(5));
    Engine::cancel(token);  // already fired: no effect, no crash
    Engine::cancel(token);  // double-cancel of an empty token: no-op
  });
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, BlockAndWake) {
  Engine e;
  Time woke_at = Time::zero();
  auto blocked = e.spawn("blocked", [&](ActorContext& ctx) {
    ctx.block();
    woke_at = ctx.now();
  });
  e.spawn("waker", [&, blocked](ActorContext& ctx) {
    ctx.advance(Time::us(4));
    ctx.engine().wake(blocked, Time::us(9));
  });
  e.run();
  EXPECT_EQ(woke_at, Time::us(9));
}

TEST(Engine, DeadlockIsDetectedAndReported) {
  Engine e;
  int unwound = 0;
  e.spawn("stuck", [&](ActorContext& ctx) {
    UnwindCounter guard{unwound};
    ctx.block();
  });
  e.spawn("also-stuck", [&](ActorContext& ctx) {
    UnwindCounter guard{unwound};
    ctx.advance(Time::us(3));
    ctx.block();
  });
  try {
    e.run();
    FAIL() << "expected deadlock";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("stuck"), std::string::npos);
    EXPECT_NE(std::string(err.what()).find("also-stuck"), std::string::npos);
  }
  EXPECT_EQ(unwound, 2);
}

TEST(Engine, ActorExceptionPropagates) {
  Engine e;
  int unwound = 0;
  e.spawn("sleeper", [&](ActorContext& ctx) {
    UnwindCounter guard{unwound};
    ctx.advance(Time::seconds(100));
  });
  e.spawn("waiter", [&](ActorContext& ctx) {
    UnwindCounter guard{unwound};
    ctx.block();
  });
  e.spawn("thrower", [](ActorContext& ctx) {
    ctx.advance(Time::us(1));
    throw std::logic_error("boom");
  });
  EXPECT_THROW(e.run(), std::logic_error);
  EXPECT_EQ(unwound, 2);
}

// Two actors each keep a 4 MiB array live on their own stack across yields:
// actor stacks are as deep as a default thread's and never shared.
TEST(Engine, ActorStackHoldsFourMiB) {
  Engine e;
  std::vector<std::size_t> mismatches(2, 0);
  for (ActorId id = 0; id < 2; ++id) {
    e.spawn("deep", [&mismatches, id](ActorContext& ctx) {
      constexpr std::size_t kBytes = std::size_t{4} << 20;
      std::uint8_t big[kBytes];
      std::uint8_t* volatile escape = big;  // the engine call could touch it
      (void)escape;
      const auto pattern = [id](std::size_t i) { return static_cast<std::uint8_t>(i * 31 + id); };
      for (std::size_t i = 0; i < kBytes; ++i) big[i] = pattern(i);
      for (int round = 0; round < 2; ++round) {
        ctx.advance(Time::us(1));
        for (std::size_t i = 0; i < kBytes; ++i) mismatches[id] += big[i] != pattern(i);
      }
    });
  }
  e.run();
  EXPECT_EQ(mismatches, (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(e.now(), Time::us(2));
}

// Fixed-seed stress of the scheduler: 32 actors x 500 steps mixing advance,
// block/wake, same-time callbacks and cancelable timers, all drawn from one
// Rng. Every actor resume and callback is logged with its virtual time; the
// log's SHA-256 was captured on the thread-per-actor engine, so it pins
// event order and virtual time across engine rewrites.
TEST(Engine, ManyActorsInterleavingMatchesPinnedDigest) {
  constexpr ActorId kActors = 32;
  constexpr int kSteps = 500;
  Engine e;
  Rng rng(104729);
  std::ostringstream log;
  std::vector<Engine::CancelToken> wake_timer(kActors);
  std::vector<bool> blocked(kActors, false);
  std::vector<int> kinds(5, 0);
  const auto note = [&](char what, ActorId id) {
    log << what << id << '@' << e.now().count_ns() << '\n';
  };
  const auto draw_ns = [&](std::uint64_t below) {
    return Time::ns(static_cast<std::int64_t>(rng.next_below(below)));
  };
  for (ActorId id = 0; id < kActors; ++id) {
    e.spawn("actor", [&, id](ActorContext& ctx) {
      for (int step = 0; step < kSteps; ++step) {
        const auto kind = rng.next_below(5);
        ++kinds[kind];
        switch (kind) {
          case 0:  // plain advance, zero included
            ctx.advance(draw_ns(1000));
            break;
          case 1:  // block until our own timer or a peer wakes us
            blocked[id] = true;
            wake_timer[id] = e.schedule_cancelable(ctx.now() + Time::ns(1) + draw_ns(2000), [&, id] {
              note('t', id);
              blocked[id] = false;
              e.wake(id, e.now());
            });
            ctx.block();
            break;
          case 2: {  // wake a blocked peer early and disarm its timer
            const auto peer = static_cast<ActorId>(rng.next_below(kActors));
            if (blocked[peer]) {
              Engine::cancel(wake_timer[peer]);
              blocked[peer] = false;
              e.wake(peer, ctx.now() + draw_ns(500));
            }
            ctx.advance(Time::zero());
            break;
          }
          case 3:  // same-time callback, queued ahead of our own resume
            e.schedule(ctx.now(), [&, id] { note('c', id); });
            ctx.advance(Time::zero());
            break;
          default: {  // timer armed, then kept or disarmed
            auto timer = e.schedule_cancelable(ctx.now() + draw_ns(800), [&, id] { note('k', id); });
            if (rng.next_below(2) == 0) Engine::cancel(timer);
            ctx.advance(draw_ns(300));
            break;
          }
        }
        note('r', id);
      }
    });
  }
  e.run();
  for (int count : kinds) EXPECT_GT(count, 1000);
  const std::string text = log.str();
  EXPECT_EQ(gcmpi::testing::sha256_hex(std::span(
                reinterpret_cast<const std::uint8_t*>(text.data()), text.size())),
            "4f79a2da3b778c81df42b9acd169cfddd990e81f7e8d308b7593295a08e99d60");
}

TEST(Engine, SameTimeEventsKeepFifoOrder) {
  Engine e;
  std::vector<int> order;
  e.spawn("a", [&](ActorContext& ctx) {
    for (int i = 0; i < 5; ++i) {
      ctx.engine().schedule(Time::us(1), [&order, i] { order.push_back(i); });
    }
    ctx.advance(Time::us(2));
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, NormalHasSaneMoments) {
  Rng r(77);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Breakdown, AccumulatesAndMerges) {
  Breakdown a;
  a.add(Phase::CompressionKernel, Time::us(5));
  a.add(Phase::Communication, Time::us(10));
  Breakdown b;
  b.add(Phase::CompressionKernel, Time::us(2));
  a += b;
  EXPECT_EQ(a.get(Phase::CompressionKernel), Time::us(7));
  EXPECT_EQ(a.total(), Time::us(17));
  EXPECT_EQ(a.nonzero().size(), 2u);
  a.clear();
  EXPECT_EQ(a.total(), Time::zero());
}

}  // namespace

namespace {

using namespace gcmpi::sim;

TEST(EngineContracts, ScheduleInThePastRejected) {
  Engine e;
  e.spawn("a", [](ActorContext& ctx) {
    ctx.advance(Time::us(10));
    EXPECT_THROW(ctx.engine().schedule(Time::us(5), [] {}), std::invalid_argument);
    EXPECT_THROW(ctx.advance(Time::us(-1)), std::invalid_argument);
  });
  e.run();
}

TEST(EngineContracts, WakingNonBlockedActorRejected) {
  Engine e;
  auto other = e.spawn("other", [](ActorContext& ctx) { ctx.advance(Time::us(100)); });
  e.spawn("waker", [other](ActorContext& ctx) {
    // "other" is runnable (queued), not blocked.
    EXPECT_THROW(ctx.engine().wake(other, Time::us(1)), std::logic_error);
  });
  e.run();
}

TEST(EngineContracts, SpawnWhileRunningRejected) {
  Engine e;
  e.spawn("a", [&e](ActorContext&) {
    EXPECT_THROW((void)e.spawn("late", [](ActorContext&) {}), std::logic_error);
  });
  e.run();
}

TEST(EngineContracts, ExceptionInScheduledCallbackUnwindsActors) {
  Engine e;
  int unwound = 0;
  e.spawn("sleeper", [&](ActorContext& ctx) {
    UnwindCounter guard{unwound};
    ctx.advance(Time::seconds(100));
  });
  e.spawn("bomber", [&](ActorContext& ctx) {
    UnwindCounter guard{unwound};
    ctx.engine().schedule(Time::us(1), [] { throw std::runtime_error("cb boom"); });
    ctx.advance(Time::us(10));
  });
  EXPECT_THROW(e.run(), std::runtime_error);
  // Both parked actors were resumed and unwound before run() threw.
  EXPECT_EQ(unwound, 2);
}

TEST(EngineContracts, YieldInsideCatchHandlerRejected) {
  Engine e;
  int rejected = 0;
  e.spawn("a", [&](ActorContext& ctx) {
    try {
      throw std::runtime_error("handled");
    } catch (const std::runtime_error&) {
      try {
        ctx.advance(Time::us(1));
      } catch (const std::logic_error&) {
        ++rejected;
      }
      try {
        ctx.block();
      } catch (const std::logic_error&) {
        ++rejected;
      }
    }
    ctx.advance(Time::us(2));  // outside the handler: fine
  });
  e.run();
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(e.now(), Time::us(2));  // the rejected calls did not enqueue
}

TEST(EngineContracts, ActorNamesAreReported) {
  Engine e;
  const auto id = e.spawn("my-rank", [](ActorContext&) {});
  EXPECT_EQ(e.actor_name(id), "my-rank");
  EXPECT_EQ(e.actor_count(), 1u);
  e.run();
}

}  // namespace
