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
  // resize at that point (growth on push, shrinkage on erase) must not
  // re-anchor the dequeue cursor past the earlier event.
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
  for (core::EventId i = 6; i < 40; ++i) q->erase({100.0 + static_cast<double>(i), i});
  EXPECT_EQ(q->pop().seq, 40u);
  EXPECT_EQ(q->pop().seq, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllStructures, QueueAdversarial,
                         ::testing::ValuesIn(core::kAllQueueKinds),
                         [](const ::testing::TestParamInfo<core::QueueKind>& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// --- in-place erase against a std::set reference (all five structures) -----

namespace {

// Drives one queue and a std::set of its live keys in lockstep. erase() may
// decline to remove a pending key only where erase_is_exact() is false; the
// record is then kept and must surface at pop, where it is dropped the way
// the engine drops it.
class EraseModel {
 public:
  explicit EraseModel(core::QueueKind kind)
      : q_(core::make_event_queue(kind)), exact_(q_->erase_is_exact()) {}

  core::EventQueue& queue() { return *q_; }
  const std::set<core::EventKey>& live() const { return live_; }
  const std::vector<core::EventKey>& popped() const { return popped_; }
  core::EventId next_seq() const { return next_seq_; }

  void push(core::SimTime t) {
    const core::EventKey k{t, next_seq_++};
    q_->push({k.time, k.seq, nullptr});
    live_.insert(k);
    check_size();
  }

  void erase(core::EventKey k, bool* removed = nullptr) {
    const std::size_t before = q_->size();
    const bool pending = live_.count(k) > 0;
    const bool erased = q_->erase(k);
    if (removed) *removed = erased;
    if (erased) {
      ASSERT_TRUE(pending) << "erased a key that was not pending: " << k.time << "/" << k.seq;
      ASSERT_EQ(q_->size(), before - 1);
      live_.erase(k);
    } else {
      ASSERT_EQ(q_->size(), before) << "a declined erase changed the set";
      ASSERT_FALSE(exact_ && pending) << "exact erase declined a pending key";
      if (pending) {
        live_.erase(k);
        kept_.insert(k.seq);
      }
    }
    check_size();
  }

  /// Pop the next live key (false when drained), checking it is the minimum.
  bool pop(bool requeue = false) {
    for (;;) {
      if (q_->empty()) {
        EXPECT_TRUE(live_.empty());
        EXPECT_TRUE(kept_.empty());
        return false;
      }
      if (exact_ && !live_.empty()) {
        EXPECT_EQ(q_->min_time(), live_.begin()->time);
      }
      core::EventRecord ev = q_->pop();
      if (kept_.erase(ev.seq)) continue;
      EXPECT_FALSE(live_.empty());
      if (live_.empty()) return false;
      const core::EventKey want = *live_.begin();
      EXPECT_EQ(core::key_of(ev), want) << "popped out of order";
      if (requeue) {
        q_->push(std::move(ev));  // the engine's pop/inspect/requeue pattern
        return true;
      }
      live_.erase(live_.begin());
      popped_.push_back(want);
      return true;
    }
  }

 private:
  void check_size() { ASSERT_EQ(q_->size(), live_.size() + kept_.size()); }

  std::unique_ptr<core::EventQueue> q_;
  bool exact_;
  std::set<core::EventKey> live_;
  std::set<core::EventId> kept_;
  std::vector<core::EventKey> popped_;
  core::EventId next_seq_ = 1;
};

}  // namespace

class QueueErase : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(QueueErase, RandomInterleavingMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    EraseModel m(GetParam());
    core::RngStream rng(seed);
    core::SimTime floor = 0;  // time of the last consumed pop
    // Grow to a few thousand, then shrink by erasing: the calendar crosses
    // its resize thresholds both ways.
    for (int phase = 0; phase < 2; ++phase) {
      const double p_push = phase == 0 ? 0.6 : 0.2;
      for (int op = 0; op < 6000; ++op) {
        const double u = rng.uniform(0, 1);
        if (u < p_push) {
          const double v = rng.uniform(0, 1);
          const core::SimTime dt = v < 0.15 ? 0.0 : v < 0.9 ? rng.exponential(1.0) : 1e4 * v;
          m.push(floor + dt);
        } else if (u < p_push + 0.1) {
          const bool requeue = rng.bernoulli(0.2);
          if (m.pop(requeue) && !requeue) floor = m.popped().back().time;
        } else {
          core::EventKey k{0, 0};
          const double v = rng.uniform(0, 1);
          if (v < 0.2 && !m.live().empty()) {
            k = *m.live().begin();  // the current minimum
          } else if (v < 0.7 && !m.live().empty()) {
            auto it = m.live().lower_bound({floor + rng.exponential(2.0), 0});
            if (it == m.live().end()) it = m.live().begin();
            k = *it;
          } else if (v < 0.8 && !m.popped().empty()) {
            k = m.popped()[rng.uniform_int(0, static_cast<std::int64_t>(m.popped().size()) - 1)];
          } else if (v < 0.9) {
            k = {floor + 1.0, m.next_seq() + 7};  // never issued
          } else if (!m.live().empty()) {
            k = {m.live().begin()->time + 0.5, m.live().begin()->seq};  // right seq, wrong time
          }
          if (k.seq == 0) continue;
          ASSERT_NO_FATAL_FAILURE(m.erase(k));
          ASSERT_NO_FATAL_FAILURE(m.erase(k));  // a second erase finds nothing
        }
      }
    }
    while (m.pop()) {
    }
  }
}

TEST_P(QueueErase, EraseAcrossLadderRegions) {
  // Clustered times make the ladder spawn finer rungs under its first rung
  // and sort into Bottom; far-future pushes after the first pop land in Top.
  EraseModel m(GetParam());
  core::RngStream rng(11);
  for (int i = 0; i < 3000; ++i) m.push(rng.uniform(0, 1));
  for (int i = 0; i < 2000; ++i) m.push(rng.uniform(1, 1000));
  for (int i = 0; i < 200; ++i) m.push(0.5);  // an all-simultaneous bucket
  ASSERT_TRUE(m.pop());
  for (int i = 0; i < 500; ++i) m.push(rng.uniform(2000, 3000));
  std::vector<core::EventKey> victims;
  int i = 0;
  for (const core::EventKey& k : m.live()) {
    if (i++ % 3 == 0) victims.push_back(k);
  }
  for (const core::EventKey& k : victims) {
    bool removed = false;
    ASSERT_NO_FATAL_FAILURE(m.erase(k, &removed));
    // Only Top (pushed after the first pop) may keep a record; the heap
    // keeps them all.
    if (k.time < 2000 && GetParam() != core::QueueKind::kBinaryHeap) {
      EXPECT_TRUE(removed);
    }
  }
  for (int n = 0; n < 1000; ++n) ASSERT_TRUE(m.pop());
  // Erase the new minimum over and over while draining.
  while (!m.live().empty()) {
    ASSERT_NO_FATAL_FAILURE(m.erase(*m.live().begin()));
    if (!m.pop()) break;
  }
  while (m.pop()) {
  }
}

INSTANTIATE_TEST_SUITE_P(AllStructures, QueueErase, ::testing::ValuesIn(core::kAllQueueKinds),
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
        EXPECT_EQ(got.tombstones_left, 0u);
        if (kind != core::QueueKind::kBinaryHeap && kind != core::QueueKind::kLadderQueue) {
          EXPECT_EQ(got.tombstones_max, 0u) << "a kind with exact erase kept a record";
        }
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
