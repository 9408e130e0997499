// Cross-cutting property suites: conservation laws, adversarial
// pending-set patterns, and randomized whole-subsystem sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/event_queue.hpp"
#include "hosts/cpu.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer.hpp"

namespace core = lsds::core;
namespace hosts = lsds::hosts;
namespace net = lsds::net;

// --- adversarial pending-set patterns (all five structures) -----------------

class QueueAdversarial : public ::testing::TestWithParam<core::QueueKind> {
 protected:
  std::unique_ptr<core::EventQueue> make() { return core::make_event_queue(GetParam()); }
};

TEST_P(QueueAdversarial, AllSimultaneous) {
  auto q = make();
  for (core::EventId i = 1; i <= 5000; ++i) q->push({42.0, i, nullptr});
  for (core::EventId i = 1; i <= 5000; ++i) {
    auto ev = q->pop();
    ASSERT_EQ(ev.seq, i);
    ASSERT_DOUBLE_EQ(ev.time, 42.0);
  }
}

TEST_P(QueueAdversarial, HugeTimeJumps) {
  // Decades-apart clusters stress calendar year-walking and ladder epochs.
  auto q = make();
  core::RngStream rng(8);
  core::EventId seq = 1;
  double base = 0;
  for (int cluster = 0; cluster < 20; ++cluster) {
    for (int i = 0; i < 50; ++i) q->push({base + rng.uniform(0, 1e-3), seq++, nullptr});
    base += 1e9;  // jump ~30 years
  }
  double last = -1;
  while (!q->empty()) {
    auto ev = q->pop();
    ASSERT_GE(ev.time, last);
    last = ev.time;
  }
}

TEST_P(QueueAdversarial, DecreasingDensity) {
  // Geometric thinning: dense near zero, exponentially sparse later.
  auto q = make();
  core::EventId seq = 1;
  double t = 1e-6;
  for (int i = 0; i < 3000; ++i) {
    q->push({t, seq++, nullptr});
    t *= 1.01;
  }
  double last = -1;
  while (!q->empty()) {
    auto ev = q->pop();
    ASSERT_GE(ev.time, last);
    last = ev.time;
  }
}

TEST_P(QueueAdversarial, InterleavedNearAndFar) {
  // Hold loop that alternates +epsilon and +huge increments.
  auto q = make();
  core::EventId seq = 1;
  q->push({0.0, seq++, nullptr});
  double last = -1;
  for (int i = 0; i < 4000; ++i) {
    auto ev = q->pop();
    ASSERT_GE(ev.time, last);
    last = ev.time;
    q->push({ev.time + ((i % 2) ? 1e-9 : 1e6), seq++, nullptr});
  }
}

TEST_P(QueueAdversarial, EarlierPushAfterRequeueSurvivesResize) {
  // The engine's windowed drain pops an event past its horizon and pushes
  // it back; later events may then be scheduled before it. A calendar
  // resize at that point must not re-anchor the dequeue cursor on the last
  // dequeued time, past the earlier event. Here the calendar grows on an
  // earlier push after a requeue, then halves four times while the pops
  // drain it, each pop right after a requeue of the same record.
  auto q = make();
  for (core::EventId i = 1; i <= 4; ++i) q->push({9.0 + static_cast<double>(i), i, nullptr});
  core::EventRecord first = q->pop();
  ASSERT_EQ(first.seq, 1u);
  q->push(std::move(first));         // requeued at t = 10
  q->push({5.0, 5, nullptr});        // earlier, and the calendar grows
  EXPECT_EQ(q->pop().seq, 5u);
  for (core::EventId i = 6; i < 40; ++i) q->push({100.0 + static_cast<double>(i), i, nullptr});
  first = q->pop();
  ASSERT_EQ(first.seq, 1u);
  q->push(std::move(first));
  q->push({7.0, 40, nullptr});
  EXPECT_EQ(q->pop().seq, 40u);
  std::vector<core::EventId> order;
  while (!q->empty()) {
    q->push(q->pop());
    order.push_back(q->pop().seq);
  }
  std::vector<core::EventId> want{1, 2, 3, 4};
  for (core::EventId i = 6; i < 40; ++i) want.push_back(i);
  EXPECT_EQ(order, want);
}

INSTANTIATE_TEST_SUITE_P(AllStructures, QueueAdversarial,
                         ::testing::ValuesIn(core::kAllQueueKinds),
                         [](const ::testing::TestParamInfo<core::QueueKind>& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// --- Engine::cancel against a std::set reference (all five structures) -----

namespace {

// Drives an engine and a std::set of its live keys in lockstep. Every
// executed event must be the set's minimum, and a cancel must succeed
// exactly when the key is live. A cancelled record stays queued until a pop
// reaches it, so tombstone_count() must equal the cancelled keys not yet
// passed: step() passes those before the event it runs, run_until() and
// next_event_time() those before the next live event, and a drained engine
// passes them all.
class CancelRef {
 public:
  explicit CancelRef(core::QueueKind kind) : eng_({.queue = kind}) {
    eng_.set_trace_hook([this](core::SimTime t, core::EventId id) { ran({t, id}); });
  }

  const std::set<core::EventKey>& live() const { return live_; }
  const std::vector<core::EventKey>& done() const { return done_; }
  core::SimTime now() const { return eng_.now(); }
  core::EventId last_id() const { return last_id_; }

  void schedule(core::SimTime t) {
    const core::EventHandle h = eng_.schedule_at(t, [] {});
    last_id_ = h.id;
    live_.insert({h.time, h.id});
    check();
  }

  void cancel(core::EventKey k) {
    const bool pending = live_.erase(k) > 0;
    ASSERT_EQ(eng_.cancel({k.seq, k.time}), pending) << k.time << "/" << k.seq;
    if (pending) kept_.insert(k);
    check();
  }

  bool step() {
    ran_ = false;
    const bool stepped = eng_.step();
    EXPECT_EQ(stepped, ran_);
    if (!stepped) {
      EXPECT_TRUE(live_.empty());
      kept_.clear();
    }
    check();
    return stepped;
  }

  void run_until(core::SimTime t) {
    eng_.run_until(t);
    pass_to_live_min();
    check();
  }

  void peek() {
    EXPECT_EQ(eng_.next_event_time(), live_.empty() ? core::kInfTime : live_.begin()->time);
    pass_to_live_min();
    check();
  }

 private:
  void ran(core::EventKey k) {
    ASSERT_FALSE(live_.empty()) << "ran " << k.time << "/" << k.seq << " with nothing live";
    EXPECT_EQ(k, *live_.begin()) << "ran out of order";
    live_.erase(k);
    kept_.erase(kept_.begin(), kept_.lower_bound(k));
    done_.push_back(k);
    ran_ = true;
  }

  void pass_to_live_min() {
    kept_.erase(kept_.begin(), live_.empty() ? kept_.end() : kept_.lower_bound(*live_.begin()));
  }

  void check() {
    ASSERT_EQ(eng_.pending(), live_.size());
    ASSERT_EQ(eng_.tombstone_count(), kept_.size());
    ASSERT_EQ(eng_.stats().executed + eng_.stats().cancelled + live_.size(),
              eng_.stats().scheduled);
  }

  core::Engine eng_;
  std::set<core::EventKey> live_;
  std::set<core::EventKey> kept_;  // cancelled, still queued
  std::vector<core::EventKey> done_;
  core::EventId last_id_ = 0;
  bool ran_ = false;
};

}  // namespace

class EngineCancelReference : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(EngineCancelReference, RandomInterleavingMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    CancelRef m(GetParam());
    core::RngStream rng(seed);
    // Grow to a few thousand, then shrink by cancelling: the calendar
    // crosses its resize thresholds both ways with cancelled records queued.
    for (int phase = 0; phase < 2; ++phase) {
      const double p_push = phase == 0 ? 0.6 : 0.2;
      for (int op = 0; op < 6000; ++op) {
        const double u = rng.uniform(0, 1);
        if (u < p_push) {
          const double v = rng.uniform(0, 1);
          m.schedule(m.now() + (v < 0.15 ? 0.0 : v < 0.9 ? rng.exponential(1.0) : 1e4 * v));
        } else if (u < p_push + 0.1) {
          // A window drain pops past its horizon and requeues; a peek does too.
          const double v = rng.uniform(0, 1);
          if (v < 0.6) {
            m.step();
          } else if (v < 0.9) {
            m.run_until(m.now() + rng.exponential(0.5));
          } else {
            m.peek();
          }
        } else {
          core::EventKey k{0, 0};
          const double v = rng.uniform(0, 1);
          if (v < 0.2 && !m.live().empty()) {
            k = *m.live().begin();  // the current minimum
          } else if (v < 0.7 && !m.live().empty()) {
            auto it = m.live().lower_bound({m.now() + rng.exponential(2.0), 0});
            if (it == m.live().end()) it = m.live().begin();
            k = *it;
          } else if (v < 0.85 && !m.done().empty()) {
            k = m.done()[rng.uniform_int(0, static_cast<std::int64_t>(m.done().size()) - 1)];
          } else {
            k = {m.now() + 1.0, m.last_id() + 7};  // never issued
          }
          if (k.seq == 0) continue;
          ASSERT_NO_FATAL_FAILURE(m.cancel(k));
          ASSERT_NO_FATAL_FAILURE(m.cancel(k));  // a second cancel finds nothing
        }
        if (HasFatalFailure()) return;
      }
    }
    while (m.step()) {
      if (HasFatalFailure()) return;
    }
  }
}

TEST_P(EngineCancelReference, CancelAcrossLadderRegions) {
  // Clustered times make the ladder spawn finer rungs under its first rung
  // and sort into Bottom; far-future events scheduled after the first step
  // land in Top; 200 simultaneous events form one tie. Cancelled records in
  // every region must be skipped, in order, on every kind.
  CancelRef m(GetParam());
  core::RngStream rng(11);
  for (int i = 0; i < 3000; ++i) m.schedule(rng.uniform(0, 1));
  for (int i = 0; i < 2000; ++i) m.schedule(rng.uniform(1, 1000));
  for (int i = 0; i < 200; ++i) m.schedule(0.5);
  ASSERT_TRUE(m.step());
  for (int i = 0; i < 500; ++i) m.schedule(rng.uniform(2000, 3000));
  std::vector<core::EventKey> victims;
  int i = 0;
  for (const core::EventKey& k : m.live()) {
    if (i++ % 3 == 0) victims.push_back(k);
  }
  for (const core::EventKey& k : victims) ASSERT_NO_FATAL_FAILURE(m.cancel(k));
  for (int n = 0; n < 1000; ++n) ASSERT_TRUE(m.step());
  // Cancel the new minimum over and over while draining.
  while (!m.live().empty()) {
    ASSERT_NO_FATAL_FAILURE(m.cancel(*m.live().begin()));
    if (!m.step()) break;
  }
  while (m.step()) {
  }
}

INSTANTIATE_TEST_SUITE_P(AllStructures, EngineCancelReference,
                         ::testing::ValuesIn(core::kAllQueueKinds),
                         [](const ::testing::TestParamInfo<core::QueueKind>& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// --- Engine::cancel is queue-independent --------------------------------------

namespace {

// A random schedule/cancel program: every event schedules a few more (some
// at the current instant) and cancels random handles — pending, already run,
// already cancelled or tied at the current instant. Alongside, a small timer
// set works the way the flow solver keeps its completions: each timer holds
// a reserved key, a timer is superseded by a fresh key (its armed event
// cancelled, or its unarmed key released), and after every change the
// earliest timer is armed unless it already is.
struct CancelProgram {
  struct Timer {
    core::EventKey key;
    core::EventHandle armed{};
  };

  struct Outcome {
    std::vector<std::pair<core::SimTime, core::EventId>> trace;
    std::vector<int> cancels;  // cancel() and release_key() verdicts, in call order
    std::vector<core::EventId> fired;  // timer keys, in firing order
    std::vector<std::size_t> pending;
    std::vector<core::SimTime> next_times;
    core::Engine::Stats stats;
    std::size_t tombstones_max = 0;
    std::size_t tombstones_left = 0;
  };

  CancelProgram(core::QueueKind kind, std::uint64_t seed, bool hooked)
      : eng({.queue = kind, .seed = seed}), rng(seed) {
    eng.set_trace_hook([this](core::SimTime t, core::EventId id) { out.trace.emplace_back(t, id); });
    if (hooked) {
      // Deterministic in the tie set alone, hence the same on every kind.
      eng.set_choice_hook([](core::SimTime, const std::vector<core::EventId>& ids) {
        return static_cast<std::size_t>(ids.back() % ids.size());
      });
    }
  }

  void spawn(core::SimTime t) {
    handles.push_back(eng.schedule_at(t, [this] { act(); }));
  }

  void act() {
    const int births = handles.size() < 4000 ? static_cast<int>(rng.uniform_int(0, 3)) : 0;
    for (int i = 0; i < births; ++i) {
      const double v = rng.uniform(0, 1);
      spawn(eng.now() + (v < 0.3 ? 0.0 : v < 0.9 ? rng.exponential(1.0) : rng.uniform(10, 100)));
    }
    const int cancels = static_cast<int>(rng.uniform_int(0, 2));
    for (int i = 0; i < cancels; ++i) {
      // Favour recent handles: they are the ones still pending or tied.
      const auto n = static_cast<std::int64_t>(handles.size());
      const std::int64_t lo = rng.bernoulli(0.7) ? std::max<std::int64_t>(0, n - 20) : 0;
      out.cancels.push_back(eng.cancel(handles[rng.uniform_int(lo, n - 1)]));
    }
    if (timers.size() < 8 && rng.bernoulli(0.5)) timers.push_back({reserve()});
    if (!timers.empty() && rng.bernoulli(0.4)) {
      Timer& t = timers[static_cast<std::size_t>(rng.uniform_int(0, timers.size() - 1))];
      if (t.armed.valid()) {
        out.cancels.push_back(eng.cancel(t.armed));
      } else {
        out.cancels.push_back(eng.release_key(t.key));
      }
      t = {reserve()};
    }
    arm_earliest();
    out.tombstones_max = std::max(out.tombstones_max, eng.tombstone_count());
  }

  core::EventKey reserve() {
    const double v = rng.uniform(0, 1);
    return eng.reserve_key(eng.now() + (v < 0.3 ? 0.0 : rng.exponential(1.0)));
  }

  void arm_earliest() {
    if (timers.empty()) return;
    auto earliest = std::min_element(timers.begin(), timers.end(),
                                     [](const Timer& a, const Timer& b) { return a.key < b.key; });
    if (earliest->armed.valid()) return;
    const core::EventId seq = earliest->key.seq;
    earliest->armed = eng.schedule_key(earliest->key, [this, seq] { fire(seq); });
  }

  void fire(core::EventId seq) {
    out.fired.push_back(seq);
    std::erase_if(timers, [seq](const Timer& t) { return t.key.seq == seq; });
    act();  // ends by arming the earliest timer
  }

  Outcome run() {
    for (int i = 0; i < 40; ++i) spawn(rng.uniform(0, 5));
    spawn(0.0);
    for (core::SimTime horizon = 1.0; eng.pending() > 0; horizon += 1.0) {
      out.next_times.push_back(eng.next_event_time());
      eng.run_until(horizon);
      out.pending.push_back(eng.pending());
      eng.step();
    }
    eng.run();  // nothing live is left; drops any kept cancelled record
    out.stats = eng.stats();
    out.tombstones_left = eng.tombstone_count();
    return std::move(out);
  }

  core::Engine eng;
  core::RngStream rng;
  std::vector<core::EventHandle> handles;
  std::vector<Timer> timers;
  Outcome out;
};

}  // namespace

TEST(EngineCancel, RandomProgramsIdenticalOnEveryQueueKind) {
  for (bool hooked : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(std::to_string(seed) + (hooked ? " with choice hook" : ""));
      const auto ref = CancelProgram(core::QueueKind::kBinaryHeap, seed, hooked).run();
      EXPECT_GT(ref.stats.cancelled, 100u);
      EXPECT_GT(std::count(ref.cancels.begin(), ref.cancels.end(), 0), 100);
      EXPECT_GT(ref.fired.size(), 100u);
      for (core::QueueKind kind : core::kAllQueueKinds) {
        SCOPED_TRACE(core::to_string(kind));
        const auto got = CancelProgram(kind, seed, hooked).run();
        EXPECT_EQ(got.trace, ref.trace);
        EXPECT_EQ(got.cancels, ref.cancels);
        EXPECT_EQ(got.fired, ref.fired);
        EXPECT_EQ(got.pending, ref.pending);
        EXPECT_EQ(got.next_times, ref.next_times);
        EXPECT_EQ(got.stats.scheduled, ref.stats.scheduled);
        EXPECT_EQ(got.stats.executed, ref.stats.executed);
        EXPECT_EQ(got.stats.cancelled, ref.stats.cancelled);
        EXPECT_EQ(got.stats.executed + got.stats.cancelled, got.stats.scheduled);
        EXPECT_EQ(got.tombstones_max, ref.tombstones_max);
        EXPECT_EQ(got.tombstones_left, 0u);
      }
    }
  }
}

// --- conservation laws -------------------------------------------------

TEST(Conservation, FlowNetworkDeliversExactlyWhatWasSent) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 3});
  core::RngStream trng(9);
  auto topo = net::Topology::random_connected(10, 6, 1e6, 0.001, trng);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  auto& rng = eng.rng("flows");
  double total = 0;
  for (int i = 0; i < 60; ++i) {
    const auto s = static_cast<net::NodeId>(rng.uniform_int(0, 9));
    auto d = static_cast<net::NodeId>(rng.uniform_int(0, 8));
    if (d >= s) ++d;
    const double bytes = rng.uniform(1e4, 5e6);
    total += bytes;
    eng.schedule_at(rng.uniform(0, 20), [&fn, s, d, bytes] { fn.start_flow(s, d, bytes); });
  }
  eng.run();
  EXPECT_EQ(fn.flows_completed(), 60u);
  EXPECT_NEAR(fn.total_bytes_delivered(), total, total * 1e-9);
  EXPECT_EQ(fn.active_flows(), 0u);
}

TEST(Conservation, CpuDeliversExactlyRequestedOps) {
  for (auto policy : {hosts::SharingPolicy::kSpaceShared, hosts::SharingPolicy::kTimeShared}) {
    core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 4});
    hosts::CpuResource cpu(eng, "n", 3, 100.0, policy);
    auto& rng = eng.rng("jobs");
    double total = 0;
    for (int i = 1; i <= 50; ++i) {
      const double ops = rng.uniform(10, 2000);
      total += ops;
      eng.schedule_at(rng.uniform(0, 10), [&cpu, i, ops] {
        cpu.submit(static_cast<hosts::JobId>(i), ops, nullptr);
      });
    }
    eng.run();
    EXPECT_EQ(cpu.jobs_completed(), 50u) << to_string(policy);
    EXPECT_NEAR(cpu.busy_ops(), total, 1.0) << to_string(policy);
  }
}

TEST(Conservation, PacketAccountingBalances) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 5});
  auto topo = net::Topology::dumbbell(3, 3, 1e7, 0.0005, 1e6, 0.002);
  net::Routing routing(topo);
  net::PacketNetwork::Config cfg;
  cfg.queue_packets = 8;  // force drops
  net::PacketNetwork pn(eng, routing, cfg);
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    pn.start_transfer(static_cast<net::NodeId>(2 + i), static_cast<net::NodeId>(5 + i), 200000,
                      [&](net::TransferId) { ++completed; });
  }
  eng.run();
  const auto& s = pn.stats();
  EXPECT_EQ(completed, 3);
  // Every sent packet was either delivered or dropped...
  EXPECT_EQ(s.packets_sent, s.packets_delivered + s.packets_dropped);
  // ...every drop was eventually retransmitted...
  EXPECT_EQ(s.retransmits, s.packets_dropped);
  // ...and the payload arrived exactly once per packet slot.
  const auto expected_packets = 3u * static_cast<std::uint64_t>(std::ceil(200000.0 / 1500.0));
  EXPECT_EQ(s.packets_delivered, expected_packets);
}

// --- randomized packet-network sweeps ----------------------------------

class PacketSweep : public ::testing::TestWithParam<int> {};

TEST_P(PacketSweep, AllTransfersCompleteOnRandomTopologies) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = seed});
  core::RngStream trng(seed * 7 + 1);
  auto topo = net::Topology::random_connected(8, 4, 2e6, 0.002, trng);
  net::Routing routing(topo);
  net::PacketNetwork::Config cfg;
  cfg.queue_packets = 12;
  net::PacketNetwork pn(eng, routing, cfg);
  auto& rng = eng.rng("transfers");
  int completed = 0;
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    const auto s = static_cast<net::NodeId>(rng.uniform_int(0, 7));
    auto d = static_cast<net::NodeId>(rng.uniform_int(0, 6));
    if (d >= s) ++d;
    eng.schedule_at(rng.uniform(0, 5), [&pn, s, d, &completed] {
      pn.start_transfer(s, d, 100000, [&completed](net::TransferId) { ++completed; });
    });
  }
  eng.run();
  EXPECT_EQ(completed, n);
  EXPECT_EQ(pn.active_transfers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketSweep, ::testing::Range(1, 9));

// --- transfer service conservation -----------------------------------------

TEST(Conservation, TransferServiceCompletesEverySubmission) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 6});
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0.001);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  net::TransferService::Config cfg;
  cfg.max_streams_per_pair = 2;
  net::TransferService svc(eng, fn, cfg);
  auto& rng = eng.rng("xfers");
  double total = 0;
  for (int i = 0; i < 40; ++i) {
    const double bytes = rng.uniform(1e3, 1e6);
    total += bytes;
    eng.schedule_at(rng.uniform(0, 10), [&svc, a, b, bytes] { svc.submit(a, b, bytes); });
  }
  eng.run();
  EXPECT_EQ(svc.completed(), 40u);
  EXPECT_EQ(svc.queued(), 0u);
  EXPECT_NEAR(svc.bytes_completed(), total, 1.0);
  // FIFO per pair: waits are finite and recorded for every transfer.
  EXPECT_EQ(svc.queue_waits().count(), 40u);
}

// --- engine determinism across queue structures on a full scenario ----------

class FullScenarioDeterminism : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(FullScenarioDeterminism, FlowScenarioIdenticalAcrossStructures) {
  auto run_with = [](core::QueueKind kind) {
    core::Engine eng({.queue = kind, .seed = 77});
    core::RngStream trng(123);
    auto topo = net::Topology::random_connected(12, 8, 1e6, 0.001, trng);
    net::Routing routing(topo);
    net::FlowNetwork fn(eng, routing);
    auto& rng = eng.rng("wl");
    std::vector<double> completions;
    for (int i = 0; i < 40; ++i) {
      const auto s = static_cast<net::NodeId>(rng.uniform_int(0, 11));
      auto d = static_cast<net::NodeId>(rng.uniform_int(0, 10));
      if (d >= s) ++d;
      eng.schedule_at(rng.uniform(0, 30), [&, s, d] {
        fn.start_flow(s, d, 1e6, [&](net::FlowId) { completions.push_back(eng.now()); });
      });
    }
    eng.run();
    return completions;
  };
  const auto ref = run_with(core::QueueKind::kBinaryHeap);
  const auto got = run_with(GetParam());
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_DOUBLE_EQ(got[i], ref[i]);
}

INSTANTIATE_TEST_SUITE_P(AllStructures, FullScenarioDeterminism,
                         ::testing::ValuesIn(core::kAllQueueKinds),
                         [](const ::testing::TestParamInfo<core::QueueKind>& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });
