// Differential suite for the incremental (component-partitioned) max-min
// solver: Config::incremental = true must produce BYTE-identical behavior to
// the full reference solver — same completion/abort callbacks at bitwise-
// identical times, bitwise-identical rates at checkpoints, bitwise-identical
// delivered-byte totals — on fuzzed random topologies under flow churn and
// link failures, across all five event-queue kinds. Plus the component-
// isolation property (perturbing component A never changes component B) and
// the equal-fair-share tie-break regression.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/rng.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/zone.hpp"

namespace core = lsds::core;
namespace net = lsds::net;

namespace {

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// One model-level trace entry: what happened ('C'ompleted, 'E'rrored,
// 'R'ate checkpoint, 'B'ytes total), to which flow, with the double payload
// (timestamp or rate) captured bit-for-bit.
using Trace = std::vector<std::tuple<char, net::FlowId, std::uint64_t>>;

struct Op {
  enum Kind { kStart, kCancel, kLinkDown, kLinkUp, kCheckpoint } kind = kStart;
  double t = 0;
  net::NodeId src = 0;
  net::NodeId dst = 0;
  double bytes = 0;
  double weight = 1;
  std::size_t flow_idx = 0;  // kCancel: index into the started-flow list
  net::LinkId link = 0;
};

// Deterministic, churn-heavy op script over a random connected topology.
std::vector<Op> make_script(const net::Topology& topo, std::uint64_t seed, std::size_t n_ops) {
  core::RngStream rng(seed);
  std::vector<Op> ops;
  double t = 0;
  std::size_t started = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    t += rng.exponential(0.3);
    Op op;
    op.t = t;
    const double r = rng.uniform();
    if (r < 0.55 || started == 0) {
      op.kind = Op::kStart;
      op.src = static_cast<net::NodeId>(rng.uniform_int(0, topo.node_count() - 1));
      do {
        op.dst = static_cast<net::NodeId>(rng.uniform_int(0, topo.node_count() - 1));
      } while (op.dst == op.src);
      op.bytes = rng.uniform(1e5, 5e7);
      op.weight = rng.uniform(0.5, 4.0);
      ++started;
    } else if (r < 0.75) {
      op.kind = Op::kCancel;
      op.flow_idx = static_cast<std::size_t>(rng.uniform_int(0, started - 1));
    } else if (r < 0.85) {
      op.kind = Op::kLinkDown;
      op.link = static_cast<net::LinkId>(rng.uniform_int(0, topo.link_count() - 1));
    } else if (r < 0.95) {
      op.kind = Op::kLinkUp;
      op.link = static_cast<net::LinkId>(rng.uniform_int(0, topo.link_count() - 1));
    } else {
      op.kind = Op::kCheckpoint;
    }
    ops.push_back(op);
  }
  return ops;
}

Trace run_script_on(net::RouteProvider& routing, const std::vector<Op>& ops, core::QueueKind kind,
                    bool incremental, core::FailureSemantics sem) {
  core::Engine eng(core::Engine::Config{kind, 7, 0, 0});
  net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{incremental});
  fnet.set_failure_semantics(sem);

  Trace trace;
  std::vector<net::FlowId> flows;
  for (const Op& op : ops) {
    eng.schedule_at(op.t, [&eng, &fnet, &trace, &flows, op] {
      switch (op.kind) {
        case Op::kStart:
          flows.push_back(fnet.start_flow_weighted(
              op.src, op.dst, op.bytes, op.weight,
              [&trace, &eng](net::FlowId id) { trace.emplace_back('C', id, bits(eng.now())); },
              [&trace, &eng](net::FlowId id) { trace.emplace_back('E', id, bits(eng.now())); }));
          break;
        case Op::kCancel:
          if (op.flow_idx < flows.size()) fnet.cancel(flows[op.flow_idx]);
          break;
        case Op::kLinkDown:
          fnet.set_link_up(op.link, false);
          break;
        case Op::kLinkUp:
          fnet.set_link_up(op.link, true);
          break;
        case Op::kCheckpoint:
          for (net::FlowId id : flows) trace.emplace_back('R', id, bits(fnet.flow_rate(id)));
          break;
      }
    });
  }
  eng.run();
  trace.emplace_back('B', 0, bits(fnet.total_bytes_delivered()));
  return trace;
}

Trace run_script(const net::Topology& topo, const std::vector<Op>& ops, core::QueueKind kind,
                 bool incremental, core::FailureSemantics sem) {
  net::Routing routing(topo);
  return run_script_on(routing, ops, kind, incremental, sem);
}

}  // namespace

// The core differential property: for every fuzz seed, every queue kind and
// both failure semantics, the incremental solver's model trace is byte-
// identical to the full solver's.
TEST(FlowIncremental, DifferentialFuzzFullVsIncremental) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    core::RngStream topo_rng(seed * 1000 + 17);
    const auto topo = net::Topology::random_connected(24, 10, 1e8, 0.002, topo_rng);
    const auto ops = make_script(topo, seed, 60);
    const auto sem = seed % 2 == 0 ? core::FailureSemantics::kFailStop
                                   : core::FailureSemantics::kFailResume;
    for (core::QueueKind kind : core::kAllQueueKinds) {
      const Trace full = run_script(topo, ops, kind, false, sem);
      const Trace inc = run_script(topo, ops, kind, true, sem);
      ASSERT_EQ(full, inc) << "seed " << seed << " queue " << core::to_string(kind);
      ASSERT_FALSE(full.empty());
    }
  }
}

// The trace must also agree ACROSS queue kinds (the engine's total order is
// queue-independent, and the model on top of it must stay so).
TEST(FlowIncremental, TraceAgreesAcrossQueueKinds) {
  core::RngStream topo_rng(99);
  const auto topo = net::Topology::random_connected(20, 8, 1e8, 0.002, topo_rng);
  const auto ops = make_script(topo, 99, 50);
  const Trace reference =
      run_script(topo, ops, core::QueueKind::kSortedList, true, core::FailureSemantics::kFailResume);
  for (core::QueueKind kind : core::kAllQueueKinds) {
    const Trace t = run_script(topo, ops, kind, true, core::FailureSemantics::kFailResume);
    ASSERT_EQ(reference, t) << "queue " << core::to_string(kind);
  }
}

namespace {

// Two disjoint 4-leaf stars in one topology. Returns the hub of each star.
net::Topology two_islands(std::vector<net::NodeId>& leaves_a, std::vector<net::NodeId>& leaves_b) {
  net::Topology topo;
  const auto hub_a = topo.add_node("hubA", net::NodeKind::kRouter);
  for (int i = 0; i < 4; ++i) {
    const auto n = topo.add_node("a" + std::to_string(i));
    topo.add_link(n, hub_a, 1e8, 0.001);
    leaves_a.push_back(n);
  }
  const auto hub_b = topo.add_node("hubB", net::NodeKind::kRouter);
  for (int i = 0; i < 4; ++i) {
    const auto n = topo.add_node("b" + std::to_string(i));
    topo.add_link(n, hub_b, 1e8, 0.001);
    leaves_b.push_back(n);
  }
  return topo;
}

}  // namespace

// Perturbing flows in component A (starts and cancels) must never change the
// rate of any flow in disconnected component B — not even in the last bit.
TEST(FlowIncremental, ComponentIsolationProperty) {
  std::vector<net::NodeId> la, lb;
  const auto topo = two_islands(la, lb);
  core::Engine eng;
  net::Routing routing(topo);
  net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{true});

  std::vector<net::FlowId> b_flows;
  std::vector<std::uint64_t> before, after;
  net::FlowId a0 = 0, a1 = 0;
  eng.schedule_at(0.0, [&] {
    // Component B: three long flows contending on b0's access link.
    b_flows.push_back(fnet.start_flow_weighted(lb[0], lb[1], 1e12, 1.0));
    b_flows.push_back(fnet.start_flow_weighted(lb[0], lb[2], 1e12, 2.0));
    b_flows.push_back(fnet.start_flow_weighted(lb[0], lb[3], 1e12, 1.0));
    // Component A: two flows.
    a0 = fnet.start_flow_weighted(la[0], la[1], 1e12, 1.0);
    a1 = fnet.start_flow_weighted(la[0], la[2], 1e12, 1.0);
  });
  eng.schedule_at(5.0, [&] {
    for (net::FlowId id : b_flows) before.push_back(bits(fnet.flow_rate(id)));
  });
  eng.schedule_at(6.0, [&] {
    // Perturb A only: churn its membership and weights.
    fnet.cancel(a1);
    a1 = fnet.start_flow_weighted(la[3], la[0], 1e12, 3.0);
    fnet.start_flow_weighted(la[1], la[2], 1e12, 0.7);
  });
  eng.schedule_at(7.0, [&] {
    for (net::FlowId id : b_flows) after.push_back(bits(fnet.flow_rate(id)));
  });
  eng.run_until(8.0);
  ASSERT_EQ(before.size(), 3u);
  EXPECT_EQ(before, after);
  EXPECT_GT(fnet.flow_rate(a0), 0.0);
}

// Work counters prove the incremental solver actually solves LESS: starting
// a flow in an island re-rates only that island's flows.
TEST(FlowIncremental, IncrementalSolvesOnlyDirtyComponent) {
  std::vector<net::NodeId> la, lb;
  const auto topo = two_islands(la, lb);

  auto rerated_after_two_starts = [&](bool incremental) {
    core::Engine eng;
    net::Routing routing(topo);
    net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{incremental});
    eng.schedule_at(0.0, [&] { fnet.start_flow_weighted(la[0], la[1], 1e12, 1.0); });
    eng.schedule_at(1.0, [&] { fnet.start_flow_weighted(lb[0], lb[1], 1e12, 1.0); });
    eng.run_until(2.0);
    return fnet.flows_rerated();
  };

  // Full: {A} then {A, B} = 3 re-rates. Incremental: {A} then {B} = 2.
  EXPECT_EQ(rerated_after_two_starts(false), 3u);
  EXPECT_EQ(rerated_after_two_starts(true), 2u);
}

// Regression for the bottleneck tie-break (satellite of the determinism
// work): two links with exactly equal fair shares must be processed in
// ascending LinkId order by construction, yielding the closed-form rates —
// bitwise reproducibly.
TEST(FlowDeterminism, EqualFairShareLinksTieBreakByLinkId) {
  auto run_once = [] {
    net::Topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    const auto c = topo.add_node("c");
    topo.add_link(a, b, 1e8, 0.001);  // link 0
    topo.add_link(b, c, 1e8, 0.001);  // link 1: identical capacity
    core::Engine eng;
    net::Routing routing(topo);
    net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{true});
    std::vector<net::FlowId> ids;
    eng.schedule_at(0.0, [&] {
      ids.push_back(fnet.start_flow(a, c, 1e12));  // crosses links 0 and 1
      ids.push_back(fnet.start_flow(a, b, 1e12));  // link 0 only
      ids.push_back(fnet.start_flow(b, c, 1e12));  // link 1 only
    });
    eng.run_until(1.0);
    std::vector<std::uint64_t> rates;
    for (net::FlowId id : ids) rates.push_back(bits(fnet.flow_rate(id)));
    return rates;
  };
  const auto r1 = run_once();
  const auto r2 = run_once();
  ASSERT_EQ(r1.size(), 3u);
  // Both links tie at 1e8 / 2 flows = 5e7; every flow lands on exactly that.
  EXPECT_EQ(r1[0], bits(5e7));
  EXPECT_EQ(r1[1], bits(5e7));
  EXPECT_EQ(r1[2], bits(5e7));
  EXPECT_EQ(r1, r2);
}

// A FlowNetwork over a zone provider must behave byte-identically to one
// over the materialized flat topology: the whole churn script — starts,
// cancels, link failures, rate checkpoints — replayed on both, traces
// compared bit for bit. Locks the flow layer's independence from where
// routes come from.
TEST(FlowZoneDifferential, ClusterZoneTraceMatchesFlat) {
  const net::ClusterZone zone(net::ClusterSpec{24, 1e8, 0.002, 1e9, 0.01});
  const net::Topology topo = zone.to_topology();
  for (std::uint64_t seed : {11u, 12u}) {
    const auto ops = make_script(topo, seed, 70);
    const auto sem = seed % 2 == 0 ? core::FailureSemantics::kFailStop
                                   : core::FailureSemantics::kFailResume;
    for (bool incremental : {false, true}) {
      net::Routing flat(topo);
      net::ZoneRouting zoned(zone);
      const Trace reference =
          run_script_on(flat, ops, core::QueueKind::kBinaryHeap, incremental, sem);
      const Trace zone_trace =
          run_script_on(zoned, ops, core::QueueKind::kBinaryHeap, incremental, sem);
      ASSERT_EQ(reference, zone_trace) << "seed " << seed << " incremental " << incremental;
      ASSERT_FALSE(reference.empty());
    }
  }
}

// The over-merged-component rebuild path: ordinary churn on one island (one
// departure per solve) pushes the departures past the rebuild threshold;
// behavior must stay identical to the full solver throughout.
TEST(FlowIncremental, RebuildUnderChurnStaysDifferentialClean) {
  std::vector<net::NodeId> la, lb;
  const auto topo = two_islands(la, lb);
  std::uint64_t rebuilds = 0;
  auto run_churn = [&](bool incremental) {
    core::Engine eng;
    net::Routing routing(topo);
    net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{incremental});
    Trace trace;
    eng.schedule_at(0.0, [&] {
      for (int i = 0; i < 100; ++i) {
        fnet.start_flow_weighted(
            la[static_cast<std::size_t>(i) % 4], la[(static_cast<std::size_t>(i) + 1) % 4],
            1e6 + 1e4 * i, 1.0,
            [&trace, &eng](net::FlowId id) { trace.emplace_back('C', id, bits(eng.now())); });
      }
      fnet.start_flow_weighted(lb[0], lb[1], 5e7, 1.0, [&trace, &eng](net::FlowId id) {
        trace.emplace_back('C', id, bits(eng.now()));
      });
    });
    eng.run();
    trace.emplace_back('B', 0, bits(fnet.total_bytes_delivered()));
    rebuilds = fnet.component_rebuilds();
    return trace;
  };
  const Trace full = run_churn(false);
  EXPECT_EQ(rebuilds, 0u);  // the full solver keeps no components
  EXPECT_EQ(full, run_churn(true));
  EXPECT_GE(rebuilds, 1u);
}
