// Engine semantics: ordering, cancellation, run_until, stop, quantum,
// determinism across queue structures and across runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/entity.hpp"

namespace core = lsds::core;

TEST(Engine, StartsAtZero) {
  core::Engine eng;
  EXPECT_DOUBLE_EQ(eng.now(), 0.0);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, ExecutesInTimeOrder) {
  core::Engine eng;
  std::vector<int> order;
  eng.schedule_at(3.0, [&] { order.push_back(3); });
  eng.schedule_at(1.0, [&] { order.push_back(1); });
  eng.schedule_at(2.0, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

TEST(Engine, SimultaneousEventsFifo) {
  core::Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, NestedSchedulingFromCallbacks) {
  core::Engine eng;
  std::vector<double> times;
  eng.schedule_at(1.0, [&] {
    times.push_back(eng.now());
    eng.schedule_in(0.5, [&] { times.push_back(eng.now()); });
  });
  eng.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(Engine, PastSchedulingClampsToNow) {
  core::Engine eng;
  double seen = -1;
  eng.schedule_at(10.0, [&] {
    eng.schedule_at(5.0, [&] { seen = eng.now(); });  // in the past
  });
  eng.run();
  EXPECT_DOUBLE_EQ(seen, 10.0);
  EXPECT_EQ(eng.stats().past_clamped, 1u);
}

TEST(Engine, CancelPreventsExecution) {
  core::Engine eng;
  bool ran = false;
  auto h = eng.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(eng.cancel(h));
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.stats().cancelled, 1u);
  EXPECT_EQ(eng.stats().executed, 0u);
}

TEST(Engine, CancelAfterFireReturnsFalseAndLeavesNoTombstone) {
  // Regression: cancelling an already-executed event returned true, inflated
  // stats().cancelled, and left a tombstone in the engine forever.
  core::Engine eng;
  bool ran = false;
  auto h = eng.schedule_at(1.0, [&] { ran = true; });
  eng.schedule_at(2.0, [] {});  // keep the clock moving past h
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(eng.cancel(h));
  EXPECT_EQ(eng.stats().cancelled, 0u);
  EXPECT_EQ(eng.tombstone_count(), 0u);
}

TEST(Engine, CancelAtCurrentTimeStillWorks) {
  // Only *strictly past* handles are rejected: an event scheduled at the
  // current instant but not yet popped must remain cancellable.
  core::Engine eng;
  bool ran = false;
  eng.schedule_at(1.0, [&] {
    auto h = eng.schedule_at(1.0, [&] { ran = true; });
    EXPECT_TRUE(eng.cancel(h));
  });
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.tombstone_count(), 0u);  // tombstone consumed at pop
}

TEST(Engine, CancelOfEventRunAtCurrentInstantIsRejected) {
  // Regression: a handle whose event already ran at the current instant was
  // accepted on every queue kind — cancel() returned true, stats().cancelled
  // grew and a tombstone stayed behind for good. With the choice hook the
  // newest tie runs first, so ties at one instant run out of seq order.
  for (core::QueueKind kind : core::kAllQueueKinds) {
    for (bool hooked : {false, true}) {
      SCOPED_TRACE(std::string(core::to_string(kind)) + (hooked ? " with choice hook" : ""));
      core::Engine eng({.queue = kind});
      if (hooked) {
        eng.set_choice_hook(
            [](double, const std::vector<core::EventId>& ids) { return ids.size() - 1; });
      }
      core::EventHandle h[3];
      std::string order;
      for (int i = 0; i < 3; ++i) {
        h[i] = eng.schedule_at(1.0, [&, i] {
          order.push_back(static_cast<char>('a' + i));
          // Every event that ran at this instant, this one included.
          for (char done : order) EXPECT_FALSE(eng.cancel(h[done - 'a']));
        });
      }
      // A tie that has not run yet stays cancellable, whatever its seq.
      core::EventHandle x, y;
      bool tie_cancelled = false;
      x = eng.schedule_at(2.0, [&] { tie_cancelled = eng.cancel(y); });
      y = eng.schedule_at(2.0, [&] { tie_cancelled = eng.cancel(x); });
      eng.run();
      EXPECT_EQ(order, hooked ? "cba" : "abc");
      EXPECT_TRUE(tie_cancelled);
      EXPECT_EQ(eng.stats().executed, 4u);
      EXPECT_EQ(eng.stats().cancelled, 1u);
      EXPECT_EQ(eng.tombstone_count(), 0u);
      EXPECT_EQ(eng.pending(), 0u);
    }
  }
}

TEST(Engine, DoubleCancelReturnsFalse) {
  core::Engine eng;
  auto h = eng.schedule_at(1.0, [] {});
  EXPECT_TRUE(eng.cancel(h));
  EXPECT_FALSE(eng.cancel(h));
}

TEST(Engine, CancelInvalidHandle) {
  core::Engine eng;
  core::EventHandle h;  // invalid
  EXPECT_FALSE(eng.cancel(h));
}

TEST(Engine, CancelFromCallback) {
  core::Engine eng;
  bool ran = false;
  auto h = eng.schedule_at(2.0, [&] { ran = true; });
  eng.schedule_at(1.0, [&] { eng.cancel(h); });
  eng.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, RunUntilAdvancesClockToHorizon) {
  core::Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i) eng.schedule_at(i, [&] { ++count; });
  const auto n = eng.run_until(5.0);
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
  EXPECT_EQ(eng.pending(), 5u);
  eng.run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, RunUntilIsInclusive) {
  core::Engine eng;
  int count = 0;
  eng.schedule_at(5.0, [&] { ++count; });
  eng.run_until(5.0);
  EXPECT_EQ(count, 1);
}

TEST(Engine, StopHaltsRun) {
  core::Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    eng.schedule_at(i, [&] {
      if (++count == 3) eng.stop();
    });
  }
  eng.run();
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(eng.stopped());
  eng.clear_stop();
  eng.run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, StepExecutesExactlyOne) {
  core::Engine eng;
  int count = 0;
  eng.schedule_at(1.0, [&] { ++count; });
  eng.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(eng.step());
}

TEST(Engine, TimeQuantumRoundsUp) {
  core::Engine::Config cfg;
  cfg.time_quantum = 0.5;
  core::Engine eng(cfg);
  std::vector<double> times;
  eng.schedule_at(0.1, [&] { times.push_back(eng.now()); });
  eng.schedule_at(0.6, [&] { times.push_back(eng.now()); });
  eng.schedule_at(1.0, [&] { times.push_back(eng.now()); });
  eng.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_DOUBLE_EQ(times[1], 1.0);
  EXPECT_DOUBLE_EQ(times[2], 1.0);
}

TEST(Engine, StatsAreConsistent) {
  core::Engine eng;
  for (int i = 0; i < 20; ++i) eng.schedule_at(i, [] {});
  auto h = eng.schedule_at(30.0, [] {});
  eng.cancel(h);
  eng.run();
  EXPECT_EQ(eng.stats().scheduled, 21u);
  EXPECT_EQ(eng.stats().executed, 20u);
  EXPECT_EQ(eng.stats().cancelled, 1u);
}

// --- reserved keys -----------------------------------------------------------

TEST(ReservedKeys, ReserveTakesScheduleAtsKeyWithoutPushing) {
  for (core::QueueKind kind : core::kAllQueueKinds) {
    SCOPED_TRACE(core::to_string(kind));
    core::Engine eng({.queue = kind, .time_quantum = 0.5});
    std::vector<std::pair<double, core::EventId>> trace;
    eng.set_trace_hook([&](double t, core::EventId id) { trace.emplace_back(t, id); });
    std::string order;
    eng.schedule_at(1.0, [&] {
      order.push_back('a');
      // Same clamp and quantum as schedule_at: a past time lands on now.
      const core::EventKey past = eng.reserve_key(0.2);
      EXPECT_EQ(past.time, 1.0);
      EXPECT_EQ(eng.stats().past_clamped, 1u);
      eng.schedule_key(past, [&] { order.push_back('p'); });
    });
    const core::EventKey k = eng.reserve_key(1.2);  // rounded up to 1.5
    EXPECT_EQ(k.time, 1.5);
    EXPECT_EQ(k.seq, 2u);
    eng.schedule_at(1.5, [&] { order.push_back('b'); });  // seq 3: after k
    EXPECT_EQ(eng.stats().scheduled, 2u);
    EXPECT_EQ(eng.pending(), 2u);
    EXPECT_THROW(eng.reserve_key(std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    const core::EventHandle h = eng.schedule_key(k, [&] { order.push_back('k'); });
    EXPECT_EQ(h.id, k.seq);
    EXPECT_EQ(h.time, k.time);
    eng.run();
    EXPECT_EQ(order, "apkb");
    EXPECT_EQ(eng.stats().scheduled, 4u);
    EXPECT_EQ(eng.stats().executed, 4u);
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[2], (std::pair<double, core::EventId>{1.5, 2}));
  }
}

TEST(ReservedKeys, ScheduleKeyRejectsKeysNeverReserved) {
  for (core::QueueKind kind : core::kAllQueueKinds) {
    SCOPED_TRACE(core::to_string(kind));
    core::Engine eng({.queue = kind});
    const core::EventHandle plain = eng.schedule_at(1.0, [] {});
    const core::EventKey k = eng.reserve_key(2.0);
    EXPECT_THROW(eng.schedule_key({1.0, 0}, [] {}), std::invalid_argument);
    EXPECT_THROW(eng.schedule_key({2.0, k.seq + 1}, [] {}), std::invalid_argument);
    // A key schedule_at handed out, and a reserved seq under another time.
    EXPECT_THROW(eng.schedule_key({plain.time, plain.id}, [] {}), std::invalid_argument);
    EXPECT_THROW(eng.schedule_key({3.0, k.seq}, [] {}), std::invalid_argument);
    EXPECT_EQ(eng.stats().scheduled, 1u);
    EXPECT_EQ(eng.pending(), 1u);
    eng.schedule_key(k, [] {});  // the real key is still good
    eng.run();
    EXPECT_EQ(eng.stats().executed, 2u);
  }
}

TEST(ReservedKeys, ScheduleKeyRejectsASecondPushAndAReleasedKey) {
  for (core::QueueKind kind : core::kAllQueueKinds) {
    SCOPED_TRACE(core::to_string(kind));
    core::Engine eng({.queue = kind});
    int runs = 0;
    const core::EventKey k = eng.reserve_key(1.0);
    const core::EventHandle h = eng.schedule_key(k, [&] { ++runs; });
    EXPECT_THROW(eng.schedule_key(k, [&] { ++runs; }), std::invalid_argument);
    // Cancelling does not make the key pushable again: the cancelled record
    // stays queued, and a re-pushed one would be skipped as cancelled.
    EXPECT_TRUE(eng.cancel(h));
    EXPECT_THROW(eng.schedule_key(k, [&] { ++runs; }), std::invalid_argument);
    const core::EventKey r = eng.reserve_key(1.0);
    EXPECT_TRUE(eng.release_key(r));
    EXPECT_FALSE(eng.release_key(r));
    EXPECT_FALSE(eng.release_key(k));  // pushed, not reserved
    EXPECT_THROW(eng.schedule_key(r, [&] { ++runs; }), std::invalid_argument);
    eng.run();
    EXPECT_EQ(runs, 0);
    EXPECT_EQ(eng.stats().scheduled, 1u);
    EXPECT_EQ(eng.stats().cancelled, 1u);
    EXPECT_EQ(eng.tombstone_count(), 0u);
  }
}

TEST(ReservedKeys, ScheduleKeyRejectsAKeyThatHasRun) {
  for (core::QueueKind kind : core::kAllQueueKinds) {
    SCOPED_TRACE(core::to_string(kind));
    core::Engine eng({.queue = kind});
    const core::EventKey ran = eng.reserve_key(1.0);
    const core::EventKey passed = eng.reserve_key(1.5);  // never pushed
    eng.schedule_key(ran, [] {});
    eng.schedule_at(2.0, [&] {
      EXPECT_THROW(eng.schedule_key(ran, [] {}), std::invalid_argument);
      EXPECT_THROW(eng.schedule_key(passed, [] {}), std::invalid_argument);
    });
    eng.run();
    EXPECT_EQ(eng.stats().executed, 2u);
  }
}

TEST(ReservedKeys, CancelRefusesAKeyWithNoRecordBehindIt) {
  // A reserved key that is not pushed yet, or was released, has no queued
  // record. Accepting its cancel would count a kept record that never
  // surfaces: pending() would undercount, and wrap once the queue drains.
  for (core::QueueKind kind : core::kAllQueueKinds) {
    SCOPED_TRACE(core::to_string(kind));
    core::Engine eng({.queue = kind});
    int runs = 0;
    const core::EventKey unpushed = eng.reserve_key(1.0);
    const core::EventKey released = eng.reserve_key(2.0);
    const core::EventHandle live = eng.schedule_at(3.0, [&] { ++runs; });
    EXPECT_FALSE(eng.cancel({unpushed.seq, unpushed.time}));
    EXPECT_TRUE(eng.release_key(released));
    EXPECT_FALSE(eng.cancel({released.seq, released.time}));
    EXPECT_FALSE(eng.cancel({released.seq, released.time}));
    EXPECT_EQ(eng.pending(), 1u);
    EXPECT_EQ(eng.tombstone_count(), 0u);
    EXPECT_EQ(eng.stats().cancelled, 0u);

    // Once pushed, the key cancels like any event.
    const core::EventHandle pushed = eng.schedule_key(unpushed, [&] { runs += 10; });
    EXPECT_EQ(eng.pending(), 2u);
    EXPECT_TRUE(eng.cancel(pushed));
    EXPECT_FALSE(eng.cancel(pushed));
    EXPECT_EQ(eng.pending(), 1u);
    EXPECT_EQ(eng.tombstone_count(), 1u);
    EXPECT_EQ(eng.next_event_time(), 3.0);  // drops the cancelled record
    EXPECT_EQ(eng.pending(), 1u);
    EXPECT_EQ(eng.tombstone_count(), 0u);

    // Released keys by the thousand, spread over many 64-id words.
    std::vector<core::EventKey> more;
    for (int i = 0; i < 3000; ++i) more.push_back(eng.reserve_key(0.5 + 0.001 * i));
    for (const core::EventKey& k : more) EXPECT_TRUE(eng.release_key(k));
    for (const core::EventKey& k : more) EXPECT_FALSE(eng.cancel({k.seq, k.time}));
    EXPECT_EQ(eng.pending(), 1u);
    EXPECT_EQ(eng.tombstone_count(), 0u);

    // Cancel the last live event: nothing is live, the kept record goes,
    // and the drain ends.
    EXPECT_TRUE(eng.cancel(live));
    EXPECT_EQ(eng.pending(), 0u);
    EXPECT_EQ(eng.tombstone_count(), 1u);
    EXPECT_FALSE(eng.step());
    EXPECT_EQ(eng.pending(), 0u);
    EXPECT_EQ(eng.tombstone_count(), 0u);
    EXPECT_EQ(eng.next_event_time(), core::kInfTime);
    eng.run();
    EXPECT_EQ(runs, 0);
    EXPECT_EQ(eng.stats().scheduled, 2u);
    EXPECT_EQ(eng.stats().executed, 0u);
    EXPECT_EQ(eng.stats().cancelled, 2u);

    // The engine stays usable: a later event runs, counted exactly.
    eng.schedule_at(4.0, [&] { ++runs; });
    EXPECT_EQ(eng.pending(), 1u);
    eng.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(eng.pending(), 0u);
    EXPECT_EQ(eng.tombstone_count(), 0u);

    // Once the clock has passed the released keys, a new reservation drops
    // their words; keys reserved now are still told apart.
    const core::EventKey late = eng.reserve_key(5.0);
    EXPECT_TRUE(eng.release_key(late));
    EXPECT_FALSE(eng.cancel({late.seq, late.time}));
    EXPECT_FALSE(eng.cancel({more[0].seq, more[0].time}));
    const core::EventHandle h6 = eng.schedule_key(eng.reserve_key(6.0), [&] { ++runs; });
    EXPECT_TRUE(eng.cancel(h6));
    EXPECT_EQ(eng.pending(), 0u);
    EXPECT_EQ(eng.tombstone_count(), 1u);
    eng.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(eng.tombstone_count(), 0u);
  }
}

TEST(ReservedKeys, SeqBitsWindowDropsOnlyPassedWords) {
  core::SeqBits bits;
  for (core::EventId id = 10; id < 300; id += 7) bits.insert(id, static_cast<double>(id), 0.0);
  for (core::EventId id = 1; id < 310; ++id) {
    EXPECT_EQ(bits.contains(id), id >= 10 && id < 300 && (id - 10) % 7 == 0) << id;
  }
  bits.erase(17);
  EXPECT_FALSE(bits.contains(17));
  // At t = 200 the words whose latest mark is before 200 (ids 0..191)
  // leave; later marks stay.
  bits.insert(1000, 1500.0, 200.0);
  EXPECT_FALSE(bits.contains(1000 - 1));
  EXPECT_TRUE(bits.contains(1000));
  for (core::EventId id = 192; id < 300; ++id) {
    EXPECT_EQ(bits.contains(id), (id - 10) % 7 == 0) << id;
  }
  // A word with nothing marked leaves whatever its time.
  for (core::EventId id = 192; id < 300; ++id) bits.erase(id);
  bits.erase(1000);
  bits.insert(5000, 1.0, 200.0);  // an empty window restarts at the new id
  EXPECT_TRUE(bits.contains(5000));
  EXPECT_FALSE(bits.contains(1000));
  EXPECT_FALSE(bits.contains(4999));
}

TEST(ReservedKeys, RunRuleAtTheCurrentInstantFollowsTheChoiceHook) {
  // A reserved key tied at the current instant with an event that already
  // ran: without the hook ties run in seq order, so the earlier key counts
  // as run; with the hook running the newest tie first it has not run and
  // may still be pushed.
  for (core::QueueKind kind : core::kAllQueueKinds) {
    for (bool hooked : {false, true}) {
      SCOPED_TRACE(std::string(core::to_string(kind)) + (hooked ? " with choice hook" : ""));
      core::Engine eng({.queue = kind});
      if (hooked) {
        eng.set_choice_hook(
            [](double, const std::vector<core::EventId>& ids) { return ids.size() - 1; });
      }
      std::string order;
      const core::EventKey k = eng.reserve_key(1.0);
      eng.schedule_at(1.0, [&] { order.push_back('a'); });
      eng.schedule_at(1.0, [&] {
        order.push_back('b');
        if (hooked) {
          eng.schedule_key(k, [&] { order.push_back('k'); });
        } else {
          EXPECT_THROW(eng.schedule_key(k, [] {}), std::invalid_argument);
        }
      });
      eng.run();
      EXPECT_EQ(order, hooked ? "bak" : "ab");
    }
  }
}

TEST(ReservedKeys, PushedKeyCarriesTheTagCurrentAtPush) {
  core::Engine eng;
  eng.enable_event_tags();
  core::EventKey k{};
  {
    core::TagScope scope(eng, 3);
    k = eng.reserve_key(1.0);
  }
  core::EventHandle h;
  {
    core::TagScope scope(eng, 8);
    h = eng.schedule_key(k, [] {});
  }
  EXPECT_EQ(eng.event_tag(h.id), 8u);
  eng.run();
  EXPECT_EQ(eng.event_tag(h.id), 0u);
}

// --- determinism ----------------------------------------------------------

namespace {

// A stochastic cascade model: every event schedules 0-2 children with random
// delays. Returns the (time, seq) trace.
std::vector<std::pair<double, core::EventId>> run_cascade(core::QueueKind kind,
                                                          std::uint64_t seed) {
  core::Engine eng({.queue = kind, .seed = seed});
  std::vector<std::pair<double, core::EventId>> trace;
  eng.set_trace_hook([&](double t, core::EventId id) { trace.emplace_back(t, id); });
  auto& rng = eng.rng("cascade");
  int budget = 2000;
  std::function<void()> node = [&] {
    if (--budget <= 0) return;
    const int kids = static_cast<int>(rng.uniform_int(0, 2));
    for (int i = 0; i < kids + 1; ++i) {
      eng.schedule_in(rng.exponential(1.0), node);
    }
  };
  for (int i = 0; i < 10; ++i) eng.schedule_at(0.0, node);
  eng.run_until(1e9);
  return trace;
}

}  // namespace

TEST(EngineDeterminism, SameSeedSameTrace) {
  const auto a = run_cascade(core::QueueKind::kBinaryHeap, 1);
  const auto b = run_cascade(core::QueueKind::kBinaryHeap, 1);
  EXPECT_EQ(a, b);
}

TEST(EngineDeterminism, DifferentSeedDifferentTrace) {
  const auto a = run_cascade(core::QueueKind::kBinaryHeap, 1);
  const auto b = run_cascade(core::QueueKind::kBinaryHeap, 2);
  EXPECT_NE(a, b);
}

class EngineQueueDeterminism : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(EngineQueueDeterminism, TraceIndependentOfQueueStructure) {
  // The pending-set implementation is an engine detail: the executed event
  // trace must be identical whichever structure is plugged in.
  const auto ref = run_cascade(core::QueueKind::kBinaryHeap, 99);
  const auto got = run_cascade(GetParam(), 99);
  EXPECT_EQ(got, ref);
}

INSTANTIATE_TEST_SUITE_P(AllStructures, EngineQueueDeterminism,
                         ::testing::ValuesIn(core::kAllQueueKinds),
                         [](const ::testing::TestParamInfo<core::QueueKind>& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// A NaN time has no place in the (time, seq) order: every queue kind must
// reject it at the API boundary, leave the pending set and clock untouched,
// and keep clamping genuinely past times.
class EngineNanTime : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(EngineNanTime, ScheduleRejectsNanAndKeepsClampingPastTimes) {
  core::Engine eng({.queue = GetParam(), .seed = 1});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> times;
  const auto never = [&times] { times.push_back(-1.0); };
  eng.schedule_at(3.0, [&] { times.push_back(eng.now()); });
  eng.schedule_at(1.0, [&] {
    times.push_back(eng.now());
    EXPECT_THROW(eng.schedule_at(nan, never), std::invalid_argument);
    EXPECT_THROW(eng.schedule_in(nan, never), std::invalid_argument);
    eng.schedule_at(0.5, [&] { times.push_back(eng.now()); });  // past: clamped
  });
  EXPECT_THROW(eng.schedule_at(nan, never), std::invalid_argument);
  eng.schedule_at(2.0, [&] { times.push_back(eng.now()); });
  EXPECT_EQ(eng.pending(), 3u);
  eng.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 1.0, 2.0, 3.0}));
  EXPECT_EQ(eng.stats().past_clamped, 1u);
  EXPECT_EQ(eng.stats().scheduled, 4u);
  EXPECT_EQ(eng.stats().executed, 4u);
}

INSTANTIATE_TEST_SUITE_P(AllStructures, EngineNanTime, ::testing::ValuesIn(core::kAllQueueKinds),
                         [](const ::testing::TestParamInfo<core::QueueKind>& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// --- EventFn moves -----------------------------------------------------------

namespace {

// Not trivially copyable, so EventFn boxes it on the heap. Counts calls and
// destructions; a moved-from instance is disarmed, so each boxed object
// counts its destruction exactly once.
struct Boxed {
  int* calls;
  int* dtors;
  bool armed = true;
  Boxed(int* c, int* d) : calls(c), dtors(d) {}
  Boxed(Boxed&& o) noexcept : calls(o.calls), dtors(o.dtors), armed(o.armed) { o.armed = false; }
  Boxed(const Boxed&) = delete;
  Boxed& operator=(const Boxed&) = delete;
  Boxed& operator=(Boxed&&) = delete;
  ~Boxed() {
    if (armed) ++*dtors;
  }
  void operator()() { ++*calls; }
};

// Fills the inline buffer to the last byte.
struct Wide {
  std::uint64_t v[5];
  std::uint64_t* out;
  void operator()() const { *out = v[0] + v[1] + v[2] + v[3] + v[4]; }
};
static_assert(sizeof(Wide) == core::EventFn::kInlineCapacity);

struct Counts {
  int calls = 0;
  int dtors = 0;
  std::uint64_t sum = 0;
};

enum class FnKind { kEmpty, kInline, kHeap };

core::EventFn make_fn(FnKind kind, Counts& c, std::uint64_t base) {
  switch (kind) {
    case FnKind::kEmpty: return core::EventFn{};
    case FnKind::kInline: return Wide{{base, base + 1, base + 2, base + 3, base + 4}, &c.sum};
    case FnKind::kHeap: return Boxed{&c.calls, &c.dtors};
  }
  return {};
}

}  // namespace

TEST(EventFn, MoveConstructKeepsTheCallableAndEmptiesTheSource) {
  for (const FnKind kind : {FnKind::kInline, FnKind::kHeap}) {
    Counts c;
    {
      core::EventFn a = make_fn(kind, c, 10);
      core::EventFn b(std::move(a));
      EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty by contract
      ASSERT_TRUE(b);
      b();
      core::EventFn d(std::move(b));
      EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
      d();
      EXPECT_EQ(c.dtors, 0);
    }
    if (kind == FnKind::kInline) {
      EXPECT_EQ(c.sum, 60u);
    } else {
      EXPECT_EQ(c.calls, 2);
      EXPECT_EQ(c.dtors, 1);
    }
  }
}

TEST(EventFn, MoveAssignOntoEmptyInlineAndHeapTargets) {
  for (const FnKind src_kind : {FnKind::kInline, FnKind::kHeap}) {
    for (const FnKind dst_kind : {FnKind::kEmpty, FnKind::kInline, FnKind::kHeap}) {
      Counts src_c, dst_c;
      {
        core::EventFn dst = make_fn(dst_kind, dst_c, 100);
        core::EventFn src = make_fn(src_kind, src_c, 20);
        dst = std::move(src);
        EXPECT_FALSE(src);  // NOLINT(bugprone-use-after-move)
        // The target's old callable is gone, destroyed once if it was boxed.
        EXPECT_EQ(dst_c.dtors, dst_kind == FnKind::kHeap ? 1 : 0);
        ASSERT_TRUE(dst);
        dst();
        // A moved-from EventFn takes a new callable.
        src = make_fn(FnKind::kInline, dst_c, 1);
        src();
        EXPECT_EQ(dst_c.sum, 15u);
        EXPECT_EQ(src_c.dtors, 0);
      }
      EXPECT_EQ(dst_c.calls, 0);
      EXPECT_EQ(dst_c.dtors, dst_kind == FnKind::kHeap ? 1 : 0);
      if (src_kind == FnKind::kInline) {
        EXPECT_EQ(src_c.sum, 110u);
      } else {
        EXPECT_EQ(src_c.calls, 1);
        EXPECT_EQ(src_c.dtors, 1);
      }
    }
  }
}

TEST(EventFn, BoxedCallablesPassThroughEveryQueueKindDestroyedOnce) {
  // Scheduled, requeued by run_until's horizon check, cancelled or run:
  // each boxed closure is destroyed exactly once, by the engine at the
  // latest.
  for (core::QueueKind kind : core::kAllQueueKinds) {
    SCOPED_TRACE(core::to_string(kind));
    Counts c;
    {
      core::Engine eng({.queue = kind});
      std::vector<core::EventHandle> handles;
      for (int i = 0; i < 200; ++i) {
        handles.push_back(eng.schedule_at(0.01 * ((i * 37) % 200), Boxed{&c.calls, &c.dtors}));
      }
      int expect_calls = 0;  // the uncancelled events before the horizon
      for (int i = 0; i < 200; ++i) {
        if (i % 3 == 0) {
          EXPECT_TRUE(eng.cancel(handles[i]));
        } else if ((i * 37) % 200 < 100) {
          ++expect_calls;
        }
      }
      eng.run_until(0.995);
      EXPECT_EQ(c.calls, expect_calls);
      EXPECT_GT(eng.pending(), 0u);
    }
    EXPECT_EQ(c.dtors, 200);
  }
}

// --- named RNG streams -----------------------------------------------------

TEST(EngineRng, StreamsAreIndependentByName) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 7});
  auto& a = eng.rng("arrivals");
  // Interleaving draws from another stream must not perturb "arrivals".
  core::Engine eng2({.queue = core::QueueKind::kBinaryHeap, .seed = 7});
  auto& a2 = eng2.rng("arrivals");
  auto& b2 = eng2.rng("sizes");
  for (int i = 0; i < 100; ++i) {
    const double x = a.uniform();
    b2.uniform();  // extra draws on an unrelated stream
    EXPECT_DOUBLE_EQ(x, a2.uniform());
  }
}

TEST(EngineRng, SameNameIsSameStream) {
  core::Engine eng;
  auto& a = eng.rng("s");
  auto& b = eng.rng("s");
  EXPECT_EQ(&a, &b);
}

// --- entities ----------------------------------------------------------

namespace {

class Echo final : public core::Entity {
 public:
  using core::Entity::Entity;
  std::vector<std::pair<double, int>> received;
  void on_message(core::Message& msg) override { received.emplace_back(engine_.now(), msg.kind); }
};

class PingPong final : public core::Entity {
 public:
  PingPong(core::Engine& eng, std::string name, int limit)
      : core::Entity(eng, std::move(name)), limit_(limit) {}
  core::EntityId peer = 0;
  int count = 0;
  void on_message(core::Message& msg) override {
    ++count;
    if (msg.u0 < static_cast<std::uint64_t>(limit_)) {
      core::Message next;
      next.kind = msg.kind;
      next.u0 = msg.u0 + 1;
      send(peer, next, 1.0);
    }
  }

 private:
  int limit_;
};

}  // namespace

TEST(Entity, SendDeliversWithDelay) {
  core::Engine eng;
  Echo a(eng, "a"), b(eng, "b");
  core::Message m;
  m.kind = 42;
  a.send(b, m, 2.5);
  eng.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_DOUBLE_EQ(b.received[0].first, 2.5);
  EXPECT_EQ(b.received[0].second, 42);
  EXPECT_TRUE(a.received.empty());
}

TEST(Entity, PingPongRoundTrips) {
  core::Engine eng;
  PingPong a(eng, "a", 10), b(eng, "b", 10);
  a.peer = b.id();
  b.peer = a.id();
  core::Message m;
  m.u0 = 0;
  b.send(a, m, 0);  // kick off: a receives u0=0
  eng.run();
  EXPECT_EQ(a.count + b.count, 11);  // u0 = 0..10 inclusive
  EXPECT_DOUBLE_EQ(eng.now(), 10.0);
}

TEST(Entity, SendToDestroyedEntityIsDropped) {
  core::Engine eng;
  Echo a(eng, "a");
  {
    Echo b(eng, "b");
    core::Message m;
    a.send(b, m, 1.0);
  }  // b destroyed before delivery
  eng.run();  // must not crash
  EXPECT_EQ(eng.stats().executed, 1u);
}

TEST(Entity, SelfMessageTimer) {
  core::Engine eng;
  Echo a(eng, "a");
  core::Message m;
  m.kind = 1;
  a.send_self(m, 3.0);
  eng.run();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_DOUBLE_EQ(a.received[0].first, 3.0);
}

TEST(Entity, RegistryCountsLiveEntities) {
  core::Engine eng;
  auto a = std::make_unique<Echo>(eng, "a");
  auto b = std::make_unique<Echo>(eng, "b");
  EXPECT_EQ(eng.entity_count(), 2u);
  b.reset();
  EXPECT_EQ(eng.entity_count(), 1u);
}

// --- choice points (exhaustive exploration hook) ---------------------------

namespace {

// Schedule three events tied at t=1 plus a lone one at t=2; record the
// execution order of the tied batch by label.
std::string run_tied_batch(core::Engine& eng, std::string& order) {
  for (char c : {'a', 'b', 'c'}) {
    eng.schedule_at(1.0, [&order, c] { order.push_back(c); });
  }
  eng.schedule_at(2.0, [&order] { order.push_back('z'); });
  eng.run();
  return order;
}

}  // namespace

TEST(ChoiceHook, IndexZeroReproducesDefaultOrder) {
  core::Engine plain, hooked;
  std::string plain_order, hooked_order;
  std::vector<std::pair<double, core::EventId>> plain_trace, hooked_trace;
  plain.set_trace_hook([&](double t, core::EventId id) { plain_trace.emplace_back(t, id); });
  hooked.set_trace_hook([&](double t, core::EventId id) { hooked_trace.emplace_back(t, id); });
  hooked.set_choice_hook([](double, const std::vector<core::EventId>&) { return 0u; });
  run_tied_batch(plain, plain_order);
  run_tied_batch(hooked, hooked_order);
  EXPECT_EQ(plain_order, "abcz");
  EXPECT_EQ(hooked_order, "abcz");
  EXPECT_EQ(plain_trace, hooked_trace);  // byte-identical (time, seq) schedule
}

TEST(ChoiceHook, SurfacesTiesAscendingAndReorders) {
  core::Engine eng;
  std::vector<std::vector<core::EventId>> calls;
  eng.set_choice_hook([&](double, const std::vector<core::EventId>& ids) {
    calls.push_back(ids);
    return ids.size() - 1;  // always run the newest tied event first
  });
  std::string order;
  run_tied_batch(eng, order);
  EXPECT_EQ(order, "cbaz");
  // Called once per multi-way tie: {a,b,c} then {a,b}; never for singletons.
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].size(), 3u);
  EXPECT_TRUE(std::is_sorted(calls[0].begin(), calls[0].end()));
  EXPECT_EQ(calls[1].size(), 2u);
}

TEST(ChoiceHook, RequeuedTiesKeepSeqAndStayCancellable) {
  core::Engine eng;
  std::string order;
  eng.set_choice_hook(
      [](double, const std::vector<core::EventId>& ids) { return ids.size() - 1; });
  core::EventHandle a, b;
  a = eng.schedule_at(1.0, [&] { order.push_back('a'); });
  b = eng.schedule_at(1.0, [&] {
    order.push_back('b');
    eng.cancel(a);  // cancel a not-chosen, requeued tie
  });
  eng.run();
  EXPECT_EQ(order, "b");
}

TEST(ChoiceHook, OutOfRangeIndexThrowsAndKeepsTheTie) {
  // Release builds used to clamp a bad index to 0 silently.
  core::Engine eng;
  std::size_t answer = 2;
  eng.set_choice_hook([&](double, const std::vector<core::EventId>&) { return answer; });
  std::string order;
  eng.schedule_at(1.0, [&] { order.push_back('a'); });
  eng.schedule_at(1.0, [&] { order.push_back('b'); });
  EXPECT_THROW(eng.step(), std::out_of_range);
  EXPECT_EQ(eng.pending(), 2u);
  EXPECT_EQ(eng.stats().executed, 0u);
  answer = 1;
  eng.run();
  EXPECT_EQ(order, "ba");
}

TEST(EventTags, InheritanceAndScopes) {
  core::Engine eng;
  eng.enable_event_tags();
  core::EventId child = 0;
  core::EventId scoped = 0;
  {
    core::TagScope scope(eng, 7);
    eng.schedule_at(1.0, [&] {
      // Events scheduled during execution inherit the executing tag.
      child = eng.schedule_at(2.0, [] {}).id;
      {
        core::TagScope inner(eng, 9);
        scoped = eng.schedule_at(2.0, [] {}).id;
      }
    }).id;
  }
  EXPECT_EQ(eng.current_tag(), 0u);  // scope restored
  eng.step();
  EXPECT_EQ(eng.event_tag(child), 7u);
  EXPECT_EQ(eng.event_tag(scoped), 9u);
  eng.run();
  EXPECT_EQ(eng.event_tag(child), 0u);  // tags retire with their event
}

TEST(EventTags, CancelRetiresTag) {
  core::Engine eng;
  eng.enable_event_tags();
  core::EventHandle h;
  {
    core::TagScope scope(eng, 7);
    h = eng.schedule_at(1.0, [] {});
  }
  EXPECT_EQ(eng.event_tag(h.id), 7u);
  EXPECT_TRUE(eng.cancel(h));
  EXPECT_EQ(eng.event_tag(h.id), 0u);  // no stale tag for a cancelled event
  eng.run();
  EXPECT_EQ(eng.stats().executed, 0u);
}

TEST(EventTags, OffByDefault) {
  core::Engine eng;
  core::TagScope scope(eng, 5);
  const auto h = eng.schedule_at(1.0, [] {});
  EXPECT_EQ(eng.event_tag(h.id), 0u);  // not recorded while disabled
}
