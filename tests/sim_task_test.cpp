#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace dpnfs::sim {
namespace {

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.run(), 0u);
}

Task<void> record_after(Simulation& sim, Duration d, std::vector<Time>& out) {
  co_await sim.delay(d);
  out.push_back(sim.now());
}

TEST(Simulation, DelayAdvancesClock) {
  Simulation sim;
  std::vector<Time> times;
  sim.spawn(record_after(sim, ms(5), times));
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], ms(5));
  EXPECT_EQ(sim.now(), ms(5));
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<Time> times;
  sim.spawn(record_after(sim, ms(30), times));
  sim.spawn(record_after(sim, ms(10), times));
  sim.spawn(record_after(sim, ms(20), times));
  sim.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], ms(10));
  EXPECT_EQ(times[1], ms(20));
  EXPECT_EQ(times[2], ms(30));
}

Task<void> tagged(Simulation& sim, int tag, std::vector<int>& out) {
  co_await sim.yield();
  out.push_back(tag);
}

TEST(Simulation, EqualTimesFireInSpawnOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) sim.spawn(tagged(sim, i, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

Task<int> answer() { co_return 42; }

Task<int> chain() {
  int v = co_await answer();
  co_return v + 1;
}

Task<void> check_chain(bool& ok) {
  ok = (co_await chain()) == 43;
}

TEST(Task, ValueChainsThroughNestedAwaits) {
  Simulation sim;
  bool ok = false;
  sim.spawn(check_chain(ok));
  sim.run();
  EXPECT_TRUE(ok);
}

Task<int> thrower() {
  throw std::runtime_error("boom");
  co_return 0;  // unreachable
}

Task<void> catcher(bool& caught) {
  try {
    (void)co_await thrower();
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;
  sim.spawn(catcher(caught));
  sim.run();
  EXPECT_TRUE(caught);
}

Task<void> deep(Simulation& sim, int depth, int& leaf_hits) {
  if (depth == 0) {
    co_await sim.yield();
    ++leaf_hits;
    co_return;
  }
  co_await deep(sim, depth - 1, leaf_hits);
}

TEST(Task, DeepRecursionDoesNotOverflowStack) {
  Simulation sim;
  int hits = 0;
  sim.spawn(deep(sim, 50000, hits));
  sim.run();
  EXPECT_EQ(hits, 1);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<Time> times;
  sim.spawn(record_after(sim, ms(10), times));
  sim.spawn(record_after(sim, ms(100), times));
  EXPECT_FALSE(sim.run_until(ms(50)));
  EXPECT_EQ(times.size(), 1u);
  EXPECT_EQ(sim.now(), ms(50));
  EXPECT_TRUE(sim.run_until(ms(1000)));
  EXPECT_EQ(times.size(), 2u);
}

Task<void> sequential_delays(Simulation& sim, std::vector<Time>& out) {
  co_await sim.delay(ms(1));
  out.push_back(sim.now());
  co_await sim.delay(ms(2));
  out.push_back(sim.now());
  co_await sim.delay(ms(3));
  out.push_back(sim.now());
}

TEST(Simulation, SequentialDelaysAccumulate) {
  Simulation sim;
  std::vector<Time> times;
  sim.spawn(sequential_delays(sim, times));
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{ms(1), ms(3), ms(6)}));
}

TEST(Task, DroppedTaskNeverRunsAndDoesNotLeak) {
  Simulation sim;
  bool ran = false;
  {
    auto t = [](bool& r) -> Task<void> {
      r = true;
      co_return;
    }(ran);
    EXPECT_TRUE(t.valid());
    // destroyed unawaited
  }
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(us(1), 1000);
  EXPECT_EQ(ms(1), 1000000);
  EXPECT_EQ(sec(1), 1000000000);
  EXPECT_EQ(from_seconds(1.5), sec(1) + ms(500));
  EXPECT_DOUBLE_EQ(to_seconds(ms(1500)), 1.5);
}

TEST(TimeHelpers, DurationForBytes) {
  EXPECT_EQ(duration_for_bytes(0, 1e6), 0);
  EXPECT_EQ(duration_for_bytes(1'000'000, 1e6), sec(1));
  EXPECT_GE(duration_for_bytes(1, 1e12), 1);  // nonzero payload takes time
}

// --- Event-queue equivalence and memory bounds -----------------------------

namespace {

// A light follow-up load after a burst: `hops` pseudo-random delays, each
// appending its marker when it fires.
Task<void> chain(Simulation& sim, uint64_t seed, int hops,
                 std::vector<std::pair<Time, uint64_t>>& out) {
  uint64_t state = seed;
  for (int i = 0; i < hops; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // Delays from 0ns to ~67ms: zero-delay wakeups, intra-bucket,
    // inter-bucket, and overflow-heap territory.
    const Duration d = static_cast<Duration>(state % 67'000'000ULL);
    co_await sim.delay(d);
    out.emplace_back(sim.now(), seed * 1000 + static_cast<uint64_t>(i));
  }
}

}  // namespace

// The calendar queue must realize the (time, seq) total order exactly, so a
// run is bit-identical to one driven by a plain min-heap.  One push/pop
// schedule drives both the calendar queue and `detail::EventHeap` (the
// overflow store, and the reference order here); every pop must agree.  The
// schedule mixes same-tick, in-wheel (< ~8.4 ms) and past-horizon delays,
// and a random push count per pop lets the pending population wander.
TEST(EventQueue, CalendarAndBinaryHeapRealizeIdenticalOrder) {
  EventQueue calendar;
  detail::EventHeap heap;
  uint64_t state = 0x5CA1AB1E;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 17;
  };
  auto delay = [&next]() -> Duration {
    const uint64_t r = next();
    const uint64_t v = r / 3;
    switch (r % 3) {
      case 0: return 0;
      case 1: return static_cast<Duration>(v % 8'000'000);
      default: return ms(9) + static_cast<Duration>(v % uint64_t(ms(60)));
    }
  };
  uint64_t seq = 0;
  auto push = [&](Time t) {
    calendar.push(t, seq, {});
    heap.push(Event{t, seq, {}});
    ++seq;
  };

  for (int i = 0; i < 512; ++i) push(delay());
  uint64_t pops = 0;
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    ASSERT_EQ(calendar.size(), heap.size());
    ASSERT_EQ(calendar.next_time(), heap.top().time) << "pop " << pops;
    const Event a = calendar.pop();
    const Event b = heap.pop();
    ASSERT_EQ(a.time, b.time) << "pop " << pops;
    ASSERT_EQ(a.seq, b.seq) << "pop " << pops;
    ++pops;
    if (seq < 60'000) {
      for (uint64_t n = next() % 3; n > 0; --n) push(a.time + delay());
    }
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(pops, seq);
  const auto& mix = calendar.push_mix();
  EXPECT_GT(mix.immediate, 0u);
  EXPECT_GT(mix.wheel, 0u);
  EXPECT_GT(mix.overflow, 0u);
}

// Queue storage must not ratchet: after a burst of events drains, the
// retained footprint shrinks back toward the steady state instead of
// keeping the high-water allocation forever (shrink hysteresis in the
// immediate ring and the heaps; oversized bucket storage is dropped on
// drain).
TEST(EventQueue, StorageShrinksAfterBurst) {
  // 30k one-shot wakeups in a two-bucket window: the immediate ring grows
  // to hold every spawn, then every timer is pending at once before a
  // single one fires.  The first burst lands inside the wheel (two bucket
  // heaps); the second lies past the wheel horizon, so it fills the
  // overflow heap and migrates into the wheel as the clock reaches it.
  for (const Duration base : {Duration{0}, ms(10)}) {
    Simulation sim;
    std::vector<std::pair<Time, uint64_t>> sink;
    uint64_t fired = 0;
    for (uint64_t c = 0; c < 30'000; ++c) {
      sim.spawn([](Simulation& sim, Duration base, uint64_t seed,
                   uint64_t& fired) -> Task<void> {
        co_await sim.delay(base + static_cast<Duration>(
            (seed * 6364136223846793005ULL + 1442695040888963407ULL) % 4096));
        ++fired;
      }(sim, base, c + 1, fired));
    }
    sim.run();
    ASSERT_EQ(fired, 30'000u);
    const size_t drained = sim.queue_memory_bytes();

    // A light follow-up load must not see the burst's footprint again.
    sim.spawn(chain(sim, 99, 8, sink));
    sim.run();
    const size_t steady = sim.queue_memory_bytes();

    // Well below the ~768 KiB any one store holds at the burst's peak, so
    // a store that kept its high-water capacity fails the bound.
    EXPECT_LT(drained, 1u << 18) << "burst at +" << base << " ns";
    EXPECT_LT(steady, 1u << 18) << "burst at +" << base << " ns";
  }
}

}  // namespace
}  // namespace dpnfs::sim
