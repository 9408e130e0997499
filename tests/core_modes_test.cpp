// Time-driven and trace-driven DES modes, and the parallel engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/parallel.hpp"
#include "core/time_driven.hpp"
#include "core/trace.hpp"

namespace core = lsds::core;

// --- time-driven ------------------------------------------------------

TEST(TimeDriven, CountsEmptyTicks) {
  core::Engine eng;
  int fired = 0;
  eng.schedule_at(2.5, [&] { ++fired; });
  eng.schedule_at(7.1, [&] { ++fired; });
  core::TimeDrivenRunner runner(eng, 1.0);
  const auto res = runner.run(10.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(res.ticks, 10u);
  EXPECT_EQ(res.events, 2u);
  EXPECT_EQ(res.empty_ticks, 8u);  // only ticks 3 and 8 contain events
}

TEST(TimeDriven, RejectsNonPositiveTick) {
  // Regression: tick <= 0 never advanced `t += tick_` and run() spun forever.
  core::Engine eng;
  EXPECT_THROW(core::TimeDrivenRunner(eng, 0.0), std::invalid_argument);
  EXPECT_THROW(core::TimeDrivenRunner(eng, -1.0), std::invalid_argument);
  EXPECT_THROW(core::TimeDrivenRunner(eng, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(core::TimeDrivenRunner(eng, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_NO_THROW(core::TimeDrivenRunner(eng, 1e-9));
}

TEST(TimeDriven, TickHandlersRunEveryTick) {
  core::Engine eng;
  std::vector<double> tick_times;
  core::TimeDrivenRunner runner(eng, 0.5);
  runner.add_tick_handler([&](double t) { tick_times.push_back(t); });
  runner.run(2.0);
  ASSERT_EQ(tick_times.size(), 4u);
  EXPECT_DOUBLE_EQ(tick_times[0], 0.5);
  EXPECT_DOUBLE_EQ(tick_times[3], 2.0);
}

TEST(TimeDriven, PartialFinalTick) {
  core::Engine eng;
  core::TimeDrivenRunner runner(eng, 3.0);
  const auto res = runner.run(7.0);  // ticks at 3, 6, 7(partial)
  EXPECT_EQ(res.ticks, 3u);
  EXPECT_DOUBLE_EQ(eng.now(), 7.0);
}

TEST(TimeDriven, EventDrivenDoesSameWorkWithoutTicks) {
  // The paper's efficiency claim in miniature: same model, the event-driven
  // run touches exactly 2 events while the time-driven run steps 1000 ticks.
  core::Engine ed;
  int n1 = 0;
  ed.schedule_at(2.5, [&] { ++n1; });
  ed.schedule_at(999.5, [&] { ++n1; });
  ed.run();
  EXPECT_EQ(ed.stats().executed, 2u);

  core::Engine td;
  int n2 = 0;
  td.schedule_at(2.5, [&] { ++n2; });
  td.schedule_at(999.5, [&] { ++n2; });
  core::TimeDrivenRunner runner(td, 1.0);
  const auto res = runner.run(1000.0);
  EXPECT_EQ(n2, n1);
  EXPECT_EQ(res.ticks, 1000u);
  EXPECT_GE(res.empty_ticks, 998u);
}

// --- trace-driven ---------------------------------------------------------

TEST(Trace, ParseBasic) {
  const auto events = core::TraceReader::parse_text(
      "# header comment\n"
      "0.5 job_arrival site=T1_FR cpu=1500 input=2GB\n"
      "1.25 transfer_start rate=1Gbps\n");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time, 0.5);
  EXPECT_EQ(events[0].kind, "job_arrival");
  EXPECT_EQ(*events[0].attr("site"), "T1_FR");
  EXPECT_DOUBLE_EQ(events[0].num("cpu", 0), 1500.0);
  EXPECT_DOUBLE_EQ(events[0].size("input", 0), 2e9);
  EXPECT_DOUBLE_EQ(events[1].rate("rate", 0), 1e9 / 8);
}

TEST(Trace, MissingAttrsUseDefaults) {
  const auto events = core::TraceReader::parse_text("1 x\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].attr("nope").has_value());
  EXPECT_DOUBLE_EQ(events[0].num("nope", 3.5), 3.5);
}

TEST(Trace, MalformedLinesThrow) {
  EXPECT_THROW(core::TraceReader::parse_text("notatime x\n"), std::runtime_error);
  EXPECT_THROW(core::TraceReader::parse_text("1.0\n"), std::runtime_error);
  EXPECT_THROW(core::TraceReader::parse_text("1.0 kind badattr\n"), std::runtime_error);
}

TEST(Trace, WriterReaderRoundTrip) {
  std::ostringstream out;
  core::TraceWriter w(out);
  w.write_comment("round trip");
  core::TraceEvent ev;
  ev.time = 12.5;
  ev.kind = "sample";
  ev.attrs = {{"site", "T0"}, {"util", "0.85"}};
  w.write(ev);
  const auto back = core::TraceReader::parse_text(out.str());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_DOUBLE_EQ(back[0].time, 12.5);
  EXPECT_EQ(back[0].kind, "sample");
  EXPECT_EQ(*back[0].attr("site"), "T0");
  EXPECT_DOUBLE_EQ(back[0].num("util", 0), 0.85);
}

TEST(Trace, DriverDispatchesAtTraceTimes) {
  core::Engine eng;
  const auto events = core::TraceReader::parse_text(
      "1 a\n"
      "2 b\n"
      "5 c\n");
  std::vector<std::pair<double, std::string>> seen;
  core::TraceDriver driver(eng, events, [&](const core::TraceEvent& ev) {
    seen.emplace_back(eng.now(), ev.kind);
  });
  driver.arm();
  eng.run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<double, std::string>{1.0, "a"}));
  EXPECT_EQ(seen[2], (std::pair<double, std::string>{5.0, "c"}));
}

TEST(Trace, UnsortedTraceRejected) {
  core::Engine eng;
  const auto events = core::TraceReader::parse_text("2 a\n1 b\n");
  EXPECT_THROW(core::TraceDriver(eng, events, [](const core::TraceEvent&) {}),
               std::runtime_error);
}

// --- parallel engine -------------------------------------------------------

namespace {

// PHOLD-like workload: each LP starts `pop` messages; every message hop picks
// a destination LP from the LP's own RNG and reschedules at
// now + lookahead + exp(mean). Returns total events executed per LP.
std::vector<std::uint64_t> run_phold(unsigned num_lps, unsigned num_threads, double t_end,
                                     std::uint64_t seed) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = num_lps;
  cfg.num_threads = num_threads;
  cfg.lookahead = 1.0;
  cfg.seed = seed;
  core::ParallelEngine eng(cfg);

  // Hop closure: must be copyable and self-scheduling.
  std::function<void(unsigned)> hop = [&](unsigned lp_idx) {
    auto& lp = eng.lp(lp_idx);
    const auto dst = static_cast<unsigned>(lp.rng().uniform_int(0, num_lps - 1));
    const double t = lp.now() + cfg.lookahead + lp.rng().exponential(0.5);
    if (dst == lp_idx) {
      lp.schedule_at(t, [&hop, dst] { hop(dst); });
    } else {
      lp.send(dst, t, [&hop, dst] { hop(dst); });
    }
  };
  for (unsigned i = 0; i < num_lps; ++i) {
    for (int m = 0; m < 4; ++m) {
      eng.lp(i).schedule_at(0.0, [&hop, i] { hop(i); });
    }
  }
  eng.run_until(t_end);
  std::vector<std::uint64_t> out;
  for (unsigned i = 0; i < num_lps; ++i) out.push_back(eng.lp(i).events_executed());
  return out;
}

}  // namespace

TEST(ParallelEngine, RunsToHorizon) {
  const auto counts = run_phold(4, 2, 100.0, 7);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  // 16 messages, one hop per ~1.5s each, 100s horizon: ~1000 events.
  EXPECT_GT(total, 500u);
  EXPECT_LT(total, 2000u);
}

TEST(ParallelEngine, DeterministicAcrossThreadCounts) {
  // The whole point of the deterministic merge: thread count must not change
  // the simulation outcome.
  const auto a = run_phold(4, 1, 50.0, 99);
  const auto b = run_phold(4, 2, 50.0, 99);
  const auto c = run_phold(4, 4, 50.0, 99);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(ParallelEngine, SeedChangesOutcome) {
  const auto a = run_phold(4, 2, 50.0, 1);
  const auto b = run_phold(4, 2, 50.0, 2);
  EXPECT_NE(a, b);
}

TEST(ParallelEngine, LookaheadViolationsClampedAndCounted) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 1;
  cfg.lookahead = 5.0;
  core::ParallelEngine eng(cfg);
  double delivered_at = -1;
  eng.lp(0).schedule_at(0.0, [&] {
    // Attempt to deliver "immediately": violates the 5s lookahead.
    eng.lp(0).send(1, 0.1, [&] { delivered_at = eng.lp(1).now(); });
  });
  const auto stats = eng.run_until(20.0);
  EXPECT_EQ(stats.lookahead_violations, 1u);
  EXPECT_GE(delivered_at, 5.0);  // clamped to the window boundary
  EXPECT_EQ(stats.past_clamped, 0u);
}

TEST(ParallelEngine, StopsWhenDrained) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  int count = 0;
  eng.lp(0).schedule_at(0.5, [&] { ++count; });
  eng.lp(1).schedule_at(1.5, [&] { ++count; });
  const auto stats = eng.run_until(1e9);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(stats.events, 2u);
  EXPECT_LT(stats.windows, 10u);  // terminates early, not at the horizon
  EXPECT_EQ(stats.past_clamped, 0u);
}

TEST(ParallelEngine, CrossMessagesCounted) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 1;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  int received = 0;
  eng.lp(0).schedule_at(0.0, [&] {
    for (int i = 0; i < 5; ++i) {
      eng.lp(0).send(1, 2.0 + i, [&] { ++received; });
    }
  });
  const auto stats = eng.run_until(100.0);
  EXPECT_EQ(received, 5);
  EXPECT_EQ(stats.cross_messages, 5u);
  EXPECT_EQ(stats.past_clamped, 0u);
}

TEST(ParallelEngine, PastSchedulesClampedAndCounted) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 1;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  double ran_at = -1;
  eng.lp(0).schedule_at(5.0, [&] {
    // Schedule into the LP's own past: clamped to now, counted in stats.
    eng.lp(0).schedule_at(2.0, [&] { ran_at = eng.lp(0).now(); });
  });
  const auto stats = eng.run_until(10.0);
  EXPECT_EQ(stats.past_clamped, 1u);
  EXPECT_DOUBLE_EQ(ran_at, 5.0);
}

TEST(ParallelEngine, HostedEnginesCountPastClamps) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  ASSERT_NE(eng.lp(0).engine(), nullptr);
  int ran = 0;
  eng.lp(0).schedule_at(3.0, [&] {
    eng.lp(0).schedule_at(1.0, [&] { ++ran; });  // past: clamped by the engine
    eng.lp(0).send(1, 10.0, [&] { ++ran; });
  });
  const auto stats = eng.run_until(20.0);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(stats.past_clamped, 1u);
  EXPECT_EQ(stats.cross_messages, 1u);
  EXPECT_EQ(stats.events, 3u);
}

TEST(ParallelEngine, PerLpEventCountsSumToTotal) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 3;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  for (unsigned i = 0; i < 3; ++i) {
    for (int k = 0; k <= static_cast<int>(i); ++k) {
      eng.lp(i).schedule_at(0.5 + k, [] {});
    }
  }
  const auto stats = eng.run_until(10.0);
  ASSERT_EQ(stats.per_lp_events.size(), 3u);
  EXPECT_EQ(stats.per_lp_events[0], 1u);
  EXPECT_EQ(stats.per_lp_events[1], 2u);
  EXPECT_EQ(stats.per_lp_events[2], 3u);
  EXPECT_EQ(stats.events, 6u);
}

// --- cross-LP message path property test ------------------------------------
//
// Randomized sends fuzzed across window boundaries. Invariants:
//   1. a message intended for time t executes at exactly t when t clears the
//      current window, and strictly later (the clamp) when it does not —
//      lookahead_violations counts EXACTLY the clamped sends;
//   2. same-timestamp deliveries at one LP execute in (src_lp, src_seq)
//      order — the deterministic merge;
//   3. the whole observation log is invariant across worker thread counts.

namespace {

struct Delivery {
  double exec_time;
  double intended;
  unsigned src;
  int seq;
  bool operator==(const Delivery& o) const {
    return exec_time == o.exec_time && intended == o.intended && src == o.src && seq == o.seq;
  }
};

std::vector<Delivery> run_fuzzed_cross_sends(unsigned num_threads, std::uint64_t seed) {
  constexpr unsigned kSenders = 3;
  constexpr int kSendsEach = 50;
  core::ParallelEngine::Config cfg;
  cfg.num_lps = kSenders + 1;  // LP 0 receives, LPs 1..kSenders send
  cfg.num_threads = num_threads;
  cfg.lookahead = 2.0;
  core::ParallelEngine eng(cfg);

  // Pre-drawn plan (identical for every thread count): each sender fires at
  // a random time and targets a random intended delivery time around its own
  // clock — before, inside and beyond the 2.0 s window, all three cases.
  struct Planned {
    double fire_at;
    double intended;
  };
  core::RngStream rng(seed);
  std::vector<std::vector<Planned>> plan(kSenders);
  for (auto& sends : plan) {
    for (int i = 0; i < kSendsEach; ++i) {
      const double fire = rng.uniform(0.0, 40.0);
      sends.push_back({fire, fire + rng.uniform(-1.0, 6.0)});
    }
  }

  std::vector<Delivery> log;
  // Per-sender send counter, stamped when the send is issued — this mirrors
  // the src_seq the deterministic merge orders by. Each slot is only ever
  // touched by its own LP.
  std::vector<int> sends_issued(kSenders + 1, 0);
  for (unsigned s = 0; s < kSenders; ++s) {
    for (int i = 0; i < kSendsEach; ++i) {
      const Planned& p = plan[s][i];
      const unsigned src_lp = s + 1;
      eng.lp(src_lp).schedule_at(p.fire_at, [&eng, &log, &sends_issued, p, src_lp] {
        const int seq = sends_issued[src_lp]++;
        eng.lp(src_lp).send(0, p.intended, [&eng, &log, p, src_lp, seq] {
          log.push_back({eng.lp(0).now(), p.intended, src_lp, seq});
        });
      });
    }
  }
  const auto stats = eng.run_until(100.0);
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kSenders) * kSendsEach);
  EXPECT_EQ(stats.past_clamped, 0u);

  // Invariant 1: violations == exactly the sends observed later than asked.
  std::uint64_t clamped = 0;
  for (const auto& d : log) {
    EXPECT_GE(d.exec_time, d.intended);
    if (d.exec_time > d.intended) ++clamped;
  }
  EXPECT_EQ(stats.lookahead_violations, clamped);
  EXPECT_GT(clamped, 0u) << "fuzz plan never crossed a window boundary";
  EXPECT_LT(clamped, static_cast<std::uint64_t>(kSenders) * kSendsEach)
      << "fuzz plan never cleared a window boundary";

  // Invariant 2: equal-time deliveries are merged in (src_lp, src_seq)
  // order. Equal execution times only arise within one delivery batch (a
  // later window's boundary is strictly larger, and unclamped intended
  // times are continuous draws), so the full lexicographic order applies.
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].exec_time, log[i].exec_time);
    if (log[i - 1].exec_time == log[i].exec_time) {
      EXPECT_TRUE(log[i - 1].src < log[i].src ||
                  (log[i - 1].src == log[i].src && log[i - 1].seq < log[i].seq))
          << "merge order violated at log index " << i << ": prev(t=" << log[i - 1].exec_time
          << " intended=" << log[i - 1].intended << " src=" << log[i - 1].src
          << " seq=" << log[i - 1].seq << ") cur(t=" << log[i].exec_time
          << " intended=" << log[i].intended << " src=" << log[i].src
          << " seq=" << log[i].seq << ")";
    }
  }
  return log;
}

}  // namespace

TEST(ParallelEngine, FuzzedCrossSendsClampedSortedAndThreadInvariant) {
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    const auto one = run_fuzzed_cross_sends(1, seed);
    const auto two = run_fuzzed_cross_sends(2, seed);
    const auto four = run_fuzzed_cross_sends(4, seed);
    EXPECT_EQ(one, two) << "seed " << seed;
    EXPECT_EQ(one, four) << "seed " << seed;
  }
}

TEST(ParallelEngine, EventBudgetThrowsInRawMode) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  cfg.max_events = 50;
  core::ParallelEngine eng(cfg);
  // LP 1 spins on zero-delay self-rescheduling (the model bug the watchdog
  // exists for); LP 0 stays honest.
  std::function<void()> spin = [&] { eng.lp(1).schedule_in(0, spin); };
  eng.lp(1).schedule_at(0, spin);
  eng.lp(0).schedule_at(0.5, [] {});
  EXPECT_THROW(eng.run_until(10.0), core::EventBudgetExceeded);
}

TEST(ParallelEngine, EventBudgetThrowsInHostedMode) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  cfg.max_events = 50;
  core::ParallelEngine eng(cfg);
  core::Engine* lp1 = eng.lp(1).engine();
  std::function<void()> spin = [&, lp1] { lp1->schedule_in(0, spin); };
  lp1->schedule_at(0, spin);
  eng.lp(0).engine()->schedule_at(0.5, [] {});
  EXPECT_THROW(eng.run_until(10.0), core::EventBudgetExceeded);
}

TEST(ParallelEngine, EventBudgetZeroMeansUnlimited) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  std::atomic<int> n = 0;  // both LP threads count here
  for (int i = 0; i < 200; ++i) eng.lp(i % 2).schedule_at(0.1 * i, [&n] { ++n; });
  EXPECT_NO_THROW(eng.run_until(100.0));
  EXPECT_EQ(n, 200);
}

TEST(ParallelEngine, HonestModelsUnderBudgetUnaffected) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  cfg.max_events = 1000;
  core::ParallelEngine eng(cfg);
  std::atomic<int> n = 0;  // both LP threads count here
  for (int i = 0; i < 100; ++i) eng.lp(i % 2).schedule_at(0.1 * i, [&n] { ++n; });
  const auto stats = eng.run_until(100.0);
  EXPECT_EQ(n, 100);
  EXPECT_EQ(stats.events, 100u);
}

// --- config validation at the API boundary -----------------------------------

namespace {

core::ParallelEngine::Config small_config() {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  return cfg;
}

}  // namespace

TEST(ParallelEngineConfig, ZeroLpsRejected) {
  auto cfg = small_config();
  cfg.num_lps = 0;
  EXPECT_THROW(core::ParallelEngine{cfg}, std::invalid_argument);
}

TEST(ParallelEngineConfig, ZeroThreadsRejected) {
  auto cfg = small_config();
  cfg.num_threads = 0;
  EXPECT_THROW(core::ParallelEngine{cfg}, std::invalid_argument);
}

TEST(ParallelEngineConfig, ZeroLookaheadRejectedEvenWithBudget) {
  // A zero-length window never advances the clock; construction must fail
  // instead of spinning forever in run_until.
  auto cfg = small_config();
  cfg.lookahead = 0.0;
  cfg.max_events = 100;
  EXPECT_THROW(core::ParallelEngine{cfg}, std::invalid_argument);
}

TEST(ParallelEngineConfig, NegativeLookaheadRejected) {
  auto cfg = small_config();
  cfg.lookahead = -1.0;
  EXPECT_THROW(core::ParallelEngine{cfg}, std::invalid_argument);
}

TEST(ParallelEngineConfig, NanLookaheadRejected) {
  auto cfg = small_config();
  cfg.lookahead = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(core::ParallelEngine{cfg}, std::invalid_argument);
}

TEST(ParallelEngineConfig, InfiniteLookaheadRunsOneWindow) {
  auto cfg = small_config();
  cfg.lookahead = std::numeric_limits<double>::infinity();
  core::ParallelEngine eng(cfg);
  eng.lp(0).schedule_at(1.0, [] {});
  eng.lp(1).schedule_at(7.0, [] {});
  const auto stats = eng.run_until(10.0);
  EXPECT_EQ(stats.windows, 1u);
  EXPECT_EQ(stats.events, 2u);
}

TEST(ParallelEngineConfig, SendToUnknownLpThrowsOutOfRange) {
  core::ParallelEngine eng(small_config());
  EXPECT_THROW(eng.lp(0).send(2, 5.0, [] {}), std::out_of_range);
  // From inside a handler the error surfaces through run_until.
  eng.lp(1).schedule_at(1.0, [&eng] { eng.lp(1).send(7, 5.0, [] {}); });
  EXPECT_THROW(eng.run_until(10.0), std::out_of_range);
}

// --- window barrier ------------------------------------------------------------

namespace {

// Many tiny windows: tokens hop between 5 LPs with delays just above a short
// lookahead, so most windows hold a handful of events spread over several
// LPs (and so over several worker threads). Each LP logs (time, token) into
// its own slot, and the start of the window it ran in.
struct TinyWindowRun {
  std::vector<std::vector<std::pair<double, int>>> logs;
  std::uint64_t windows = 0;
  std::uint64_t cross = 0;
  std::uint64_t events = 0;
  std::uint64_t shared_windows = 0;  // windows in which >= 2 LPs ran
};

TinyWindowRun run_tiny_windows(unsigned num_threads) {
  constexpr unsigned kLps = 5;
  constexpr double kLookahead = 0.05;
  core::ParallelEngine::Config cfg;
  cfg.num_lps = kLps;
  cfg.num_threads = num_threads;
  cfg.lookahead = kLookahead;
  cfg.seed = 2024;
  core::ParallelEngine eng(cfg);
  TinyWindowRun run;
  run.logs.resize(kLps);
  std::vector<std::set<double>> window_starts(kLps);
  std::function<void(unsigned, int)> hop = [&](unsigned at, int token) {
    auto& lp = eng.lp(at);
    run.logs[at].emplace_back(lp.now(), token);
    window_starts[at].insert(eng.now());
    const auto dst = static_cast<unsigned>(lp.rng().uniform_int(0, kLps - 1));
    const double t = lp.now() + kLookahead + lp.rng().uniform(0.0, 0.05);
    lp.send(dst, t, [&hop, dst, token] { hop(dst, token); });
  };
  for (unsigned i = 0; i < kLps; ++i) {
    const int token = static_cast<int>(i);
    eng.lp(i).schedule_at(0.001 * token, [&hop, i, token] { hop(i, token); });
  }
  const auto stats = eng.run_until(30.0);
  run.windows = stats.windows;
  run.cross = stats.cross_messages;
  run.events = stats.events;
  std::map<double, unsigned> lps_per_window;
  for (const auto& starts : window_starts) {
    for (double w : starts) ++lps_per_window[w];
  }
  for (const auto& [start, lps] : lps_per_window) run.shared_windows += lps >= 2;
  return run;
}

}  // namespace

TEST(ParallelEngineBarrier, ManyTinyWindowsIdenticalAcrossThreadCounts) {
  const TinyWindowRun ref = run_tiny_windows(1);
  ASSERT_GT(ref.windows, 300u);
  EXPECT_LT(static_cast<double>(ref.events) / static_cast<double>(ref.windows), 5.0);
  EXPECT_GT(ref.shared_windows, 100u) << "program never spread a window over several LPs";
  for (unsigned threads : {2u, 3u, 4u, 8u}) {  // 8 > 5 LPs: capped at one LP each
    const TinyWindowRun run = run_tiny_windows(threads);
    EXPECT_EQ(run.logs, ref.logs) << threads << " threads";
    EXPECT_EQ(run.windows, ref.windows) << threads << " threads";
    EXPECT_EQ(run.cross, ref.cross) << threads << " threads";
    EXPECT_EQ(run.events, ref.events) << threads << " threads";
  }
}

TEST(ParallelEngineBarrier, ThrowOnWorkerOwnedLpIsRethrownAndEngineDestroys) {
  {
    core::ParallelEngine::Config cfg;
    cfg.num_lps = 4;
    cfg.num_threads = 4;  // LP 3 belongs to worker thread 3
    cfg.lookahead = 1.0;
    core::ParallelEngine eng(cfg);
    std::atomic<int> ran = 0;
    for (unsigned i = 0; i < 3; ++i) eng.lp(i).schedule_at(2.0, [&ran] { ++ran; });
    eng.lp(3).schedule_at(2.0, [] { throw std::runtime_error("lp3"); });
    try {
      eng.run_until(10.0);
      ADD_FAILURE() << "run_until did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "lp3");
    }
    EXPECT_EQ(ran, 3);  // the other LPs of the window completed
  }  // destroying the engine stops and joins its workers; the test must return
}

TEST(ParallelEngineBarrier, LowestLpIndexWinsWhenSeveralThrow) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 4;
  cfg.num_threads = 4;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  eng.lp(3).schedule_at(2.0, [] { throw std::runtime_error("lp3"); });
  eng.lp(1).schedule_at(2.5, [] { throw std::runtime_error("lp1"); });
  try {
    eng.run_until(10.0);
    ADD_FAILURE() << "run_until did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lp1");
  }
}

TEST(ParallelEngineBarrier, TwoRunUntilCallsWithIdleWorkersBetween) {
  auto split_run = [](unsigned threads) {
    core::ParallelEngine::Config cfg;
    cfg.num_lps = 4;
    cfg.num_threads = threads;
    cfg.lookahead = 1.0;
    cfg.seed = 5;
    core::ParallelEngine eng(cfg);
    std::function<void(unsigned)> hop = [&](unsigned at) {
      auto& lp = eng.lp(at);
      const auto dst = static_cast<unsigned>(lp.rng().uniform_int(0, 3));
      lp.send(dst, lp.now() + 1.0 + lp.rng().exponential(0.5), [&hop, dst] { hop(dst); });
    };
    for (unsigned i = 0; i < 4; ++i) {
      for (int m = 0; m < 3; ++m) eng.lp(i).schedule_at(0.0, [&hop, i] { hop(i); });
    }
    const auto first = eng.run_until(40.0);
    // Long enough for every worker to stop spinning and block.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto second = eng.run_until(80.0);
    EXPECT_GT(second.events, first.events);
    EXPECT_GT(second.windows, first.windows);
    EXPECT_DOUBLE_EQ(eng.now(), 80.0);
    return std::make_pair(first.per_lp_events, second.per_lp_events);
  };
  const auto ref = split_run(1);
  EXPECT_EQ(split_run(2), ref);
  EXPECT_EQ(split_run(4), ref);
}

// --- pending-set kinds under the window loop ------------------------------------

namespace {

// Hundreds of pending events per LP, with local delays from sub-window to
// far future and cross-LP sends, so every LP's queue holds records in all
// its regions while the window loop asks it for next_event_time().
struct QueueTraceRun {
  std::vector<std::vector<std::pair<double, int>>> logs;
  std::uint64_t windows = 0;
  std::uint64_t events = 0;
};

QueueTraceRun run_dense_lps(core::QueueKind queue, unsigned num_threads) {
  constexpr unsigned kLps = 4;
  core::ParallelEngine::Config cfg;
  cfg.num_lps = kLps;
  cfg.num_threads = num_threads;
  cfg.lookahead = 0.5;
  cfg.queue = queue;
  cfg.seed = 314;
  core::ParallelEngine eng(cfg);
  QueueTraceRun run;
  run.logs.resize(kLps);
  std::function<void(unsigned, int)> hop = [&](unsigned at, int token) {
    auto& lp = eng.lp(at);
    run.logs[at].emplace_back(lp.now(), token);
    const double v = lp.rng().uniform();
    if (v < 0.2) {
      const auto dst = static_cast<unsigned>(lp.rng().uniform_int(0, kLps - 1));
      lp.send(dst, lp.now() + cfg.lookahead + lp.rng().exponential(0.5),
              [&hop, dst, token] { hop(dst, token); });
    } else {
      const double dt = v < 0.25 ? 0.0 : v < 0.95 ? lp.rng().exponential(2.0) : 20.0 * v;
      lp.schedule_in(dt, [&hop, at, token] { hop(at, token); });
    }
  };
  for (unsigned i = 0; i < kLps; ++i) {
    for (int m = 0; m < 400; ++m) {
      const int token = static_cast<int>(i) * 1000 + m;
      eng.lp(i).schedule_at(eng.lp(i).rng().uniform(0.0, 5.0), [&hop, i, token] { hop(i, token); });
    }
  }
  const auto stats = eng.run_until(40.0);
  run.windows = stats.windows;
  run.events = stats.events;
  return run;
}

}  // namespace

TEST(ParallelEngineQueues, EveryKindGivesTheSameTrace) {
  const QueueTraceRun ref = run_dense_lps(core::QueueKind::kBinaryHeap, 1);
  ASSERT_GT(ref.events, 20000u);
  for (core::QueueKind kind : core::kAllQueueKinds) {
    for (unsigned threads : {1u, 2u}) {
      const QueueTraceRun run = run_dense_lps(kind, threads);
      EXPECT_EQ(run.logs, ref.logs) << core::to_string(kind) << ", " << threads << " threads";
      EXPECT_EQ(run.windows, ref.windows) << core::to_string(kind);
      EXPECT_EQ(run.events, ref.events) << core::to_string(kind);
    }
  }
}
