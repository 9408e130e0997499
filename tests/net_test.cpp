// Network substrate: topology builders, routing, flow-level max-min model,
// transfer service, packet-level model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/rng.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer.hpp"
#include "stats/analytical.hpp"
#include "util/units.hpp"

namespace core = lsds::core;
namespace net = lsds::net;
namespace u = lsds::util;

// --- topology -------------------------------------------------------------

TEST(Topology, StarShape) {
  const auto t = net::Topology::star(5, u::gbps(1), 0.001);
  EXPECT_EQ(t.node_count(), 6u);
  EXPECT_EQ(t.link_count(), 5u);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.node(0).kind, net::NodeKind::kRouter);
  EXPECT_EQ(t.links_of(0).size(), 5u);
}

TEST(Topology, DumbbellShape) {
  const auto t = net::Topology::dumbbell(3, 3, u::gbps(10), 1e-4, u::gbps(1), 0.01);
  EXPECT_EQ(t.node_count(), 8u);
  EXPECT_EQ(t.link_count(), 7u);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.link(0).name, "bottleneck");
  EXPECT_DOUBLE_EQ(t.link(0).bandwidth, u::gbps(1));
}

TEST(Topology, TierTreeShape) {
  // T0 -> 4 T1s -> 3 T2s each: 1 + 4 + 12 nodes.
  const auto t = net::Topology::tier_tree({4, 3}, {u::gbps(2.5), u::gbps(1)}, {0.02, 0.01});
  EXPECT_EQ(t.node_count(), 17u);
  EXPECT_EQ(t.link_count(), 16u);
  EXPECT_TRUE(t.connected());
  EXPECT_NE(t.find_node("T1_0"), net::kInvalidNode);
  EXPECT_NE(t.find_node("T2_11"), net::kInvalidNode);
  EXPECT_EQ(t.find_node("T3_0"), net::kInvalidNode);
}

TEST(Topology, RingAndMesh) {
  const auto ring = net::Topology::ring(6, 1e8, 0.001);
  EXPECT_EQ(ring.link_count(), 6u);
  EXPECT_TRUE(ring.connected());
  const auto mesh = net::Topology::full_mesh(5, 1e8, 0.001);
  EXPECT_EQ(mesh.link_count(), 10u);
  EXPECT_TRUE(mesh.connected());
}

TEST(Topology, RandomConnectedIsConnected) {
  core::RngStream rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto t = net::Topology::random_connected(30, 15, 1e8, 0.001, rng);
    EXPECT_EQ(t.node_count(), 30u);
    EXPECT_EQ(t.link_count(), 29u + 15u);
    EXPECT_TRUE(t.connected());
  }
}

TEST(Topology, OtherEnd) {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto l = t.add_link(a, b, 1e6, 0.001);
  EXPECT_EQ(t.other_end(l, a), b);
  EXPECT_EQ(t.other_end(l, b), a);
}

// --- topology text serialization ------------------------------------------

TEST(TopologyText, RoundTrip) {
  auto t = net::Topology::dumbbell(2, 2, u::mbps(100), 0.0005, u::gbps(1), 0.01);
  const auto text = t.to_text();
  const auto back = net::Topology::from_text(text);
  ASSERT_EQ(back.node_count(), t.node_count());
  ASSERT_EQ(back.link_count(), t.link_count());
  for (net::NodeId n = 0; n < t.node_count(); ++n) {
    EXPECT_EQ(back.node(n).name, t.node(n).name);
    EXPECT_EQ(back.node(n).kind, t.node(n).kind);
  }
  for (net::LinkId l = 0; l < t.link_count(); ++l) {
    EXPECT_EQ(back.link(l).a, t.link(l).a);
    EXPECT_EQ(back.link(l).b, t.link(l).b);
    EXPECT_NEAR(back.link(l).bandwidth, t.link(l).bandwidth, t.link(l).bandwidth * 1e-6);
    EXPECT_NEAR(back.link(l).latency, t.link(l).latency, 1e-12);
  }
  EXPECT_TRUE(back.connected());
}

TEST(TopologyText, ParsesUnitsAndComments) {
  const auto t = net::Topology::from_text(R"(
# a tiny WAN
node cern
node fnal
node hub router
link cern hub 2.5Gbps 15ms transatlantic
link hub fnal 10Gbps 5ms
)");
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.node(2).kind, net::NodeKind::kRouter);
  EXPECT_DOUBLE_EQ(t.link(0).bandwidth, u::gbps(2.5));
  EXPECT_DOUBLE_EQ(t.link(0).latency, 0.015);
  EXPECT_EQ(t.link(0).name, "transatlantic");
}

TEST(TopologyText, RejectsMalformedInput) {
  EXPECT_THROW(net::Topology::from_text("node\n"), std::runtime_error);
  EXPECT_THROW(net::Topology::from_text("node a\nnode a\n"), std::runtime_error);
  EXPECT_THROW(net::Topology::from_text("node a\nlink a ghost 1Gbps 1ms\n"),
               std::runtime_error);
  EXPECT_THROW(net::Topology::from_text("node a\nnode b\nlink a b 100 1ms\n"),
               std::runtime_error);  // bandwidth without unit
  EXPECT_THROW(net::Topology::from_text("frobnicate\n"), std::runtime_error);
}

// --- routing ------------------------------------------------------------

TEST(Routing, ShortestByLatency) {
  // Triangle with a slow direct edge and a fast two-hop detour.
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  t.add_link(a, b, 1e8, 0.100);  // direct, slow
  const auto l_ac = t.add_link(a, c, 1e8, 0.010);
  const auto l_cb = t.add_link(c, b, 1e8, 0.010);
  net::Routing r(t);
  const auto& route = r.route(a, b);
  ASSERT_TRUE(route.valid);
  ASSERT_EQ(route.links.size(), 2u);
  EXPECT_EQ(route.links[0], l_ac);
  EXPECT_EQ(route.links[1], l_cb);
  EXPECT_DOUBLE_EQ(route.total_latency, 0.020);
}

TEST(Routing, HopMetricPrefersDirect) {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto l_ab = t.add_link(a, b, 1e8, 0.100);
  t.add_link(a, c, 1e8, 0.010);
  t.add_link(c, b, 1e8, 0.010);
  net::Routing r(t, net::RouteMetric::kHops);
  const auto& route = r.route(a, b);
  ASSERT_EQ(route.links.size(), 1u);
  EXPECT_EQ(route.links[0], l_ab);
}

TEST(Routing, SelfRouteIsEmpty) {
  net::Topology t;
  const auto a = t.add_node("a");
  t.add_node("b");
  t.add_link(0, 1, 1e8, 0.001);
  net::Routing r(t);
  const auto& route = r.route(a, a);
  EXPECT_TRUE(route.valid);
  EXPECT_TRUE(route.links.empty());
  EXPECT_DOUBLE_EQ(route.total_latency, 0.0);
}

TEST(Routing, UnreachableIsInvalid) {
  net::Topology t;
  t.add_node("a");
  t.add_node("b");  // no link
  net::Routing r(t);
  EXPECT_FALSE(r.route(0, 1).valid);
}

TEST(Topology, EpochAdvancesOnMutation) {
  net::Topology t;
  const auto e0 = t.epoch();
  t.add_node("a");
  EXPECT_GT(t.epoch(), e0);
  t.add_node("b");
  const auto e1 = t.epoch();
  t.add_link(0, 1, 1e8, 0.001);
  EXPECT_GT(t.epoch(), e1);
}

// Regression: Routing::route() used to return references into a cache built
// from a topology that could keep growing — mutating the topology after the
// first query silently dangled every previously returned Route. The epoch
// check turns that into an immediate assert.
TEST(RoutingDeathTest, TopologyMutationAfterQueryAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "epoch check is assert-based (debug only)";
#else
  net::Topology t;
  t.add_node("a");
  t.add_node("b");
  t.add_node("c");
  t.add_link(0, 1, 1e8, 0.001);
  t.add_link(1, 2, 1e8, 0.001);
  net::Routing r(t);
  ASSERT_TRUE(r.route(0, 1).valid);  // caches + captures the epoch
  t.add_link(0, 2, 1e8, 0.005);     // mutation invalidates cached paths
  EXPECT_DEATH(r.route(0, 2), "Topology mutated after Routing cached routes");
#endif
}

// --- flow-level model --------------------------------------------------

namespace {

struct FlowFixtureResult {
  std::vector<double> completion_times;
};

}  // namespace

TEST(FlowNetwork, SingleFlowLatencyPlusBandwidth) {
  core::Engine eng;
  auto topo = net::Topology::star(2, 1e6, 0.05);  // two hosts via hub: 2 hops
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double done_at = -1;
  fn.start_flow(1, 2, 1e6, [&](net::FlowId) { done_at = eng.now(); });
  eng.run();
  // Route latency 0.1s; 1 MB over two 1 MB/s links (the flow is the only
  // user, so rate = 1 MB/s): 0.1 + 1.0.
  EXPECT_NEAR(done_at, 1.1, 1e-9);
  EXPECT_EQ(fn.flows_completed(), 1u);
  EXPECT_NEAR(fn.total_bytes_delivered(), 1e6, 1.0);
}

TEST(FlowNetwork, EqualSharesOnSharedBottleneck) {
  core::Engine eng;
  auto topo = net::Topology::dumbbell(4, 4, 1e9, 0, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    fn.start_flow(static_cast<net::NodeId>(2 + i), static_cast<net::NodeId>(6 + i), 1e6,
                  [&](net::FlowId) { done.push_back(eng.now()); });
  }
  eng.run();
  ASSERT_EQ(done.size(), 4u);
  const double expect =
      lsds::stats::maxmin_equal_share_completion(1e6, 1e6, 4);
  for (double t : done) EXPECT_NEAR(t, expect, 1e-6);
}

TEST(FlowNetwork, RatesRecomputeOnDeparture) {
  // Two flows share a 1 MB/s link; one is 0.5 MB, the other 1 MB. The short
  // one finishes at t=1 (rate 0.5); the long one then speeds up:
  // remaining 0.5 MB at 1 MB/s -> finishes at 1.5.
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double t_short = -1, t_long = -1;
  fn.start_flow(a, b, 0.5e6, [&](net::FlowId) { t_short = eng.now(); });
  fn.start_flow(a, b, 1e6, [&](net::FlowId) { t_long = eng.now(); });
  eng.run();
  EXPECT_NEAR(t_short, 1.0, 1e-9);
  EXPECT_NEAR(t_long, 1.5, 1e-9);
}

TEST(FlowNetwork, MidStreamArrivalSlowsExisting) {
  // Flow A alone for 1s (moves 1 MB), then B joins: both at 0.5 MB/s.
  // A has 1 MB left -> finishes at 1 + 2 = 3.
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double t_a = -1;
  fn.start_flow(a, b, 2e6, [&](net::FlowId) { t_a = eng.now(); });
  eng.schedule_at(1.0, [&] { fn.start_flow(a, b, 10e6, nullptr); });
  eng.run_until(3.5);
  EXPECT_NEAR(t_a, 3.0, 1e-6);
}

TEST(FlowNetwork, MaxMinUnevenPaths) {
  // Two-link line a-m-b. Flow1: a->b (both links). Flow2: a->m (link0 only),
  // Flow3: m->b (link1 only). Max-min: each link shared by 2 flows -> all
  // rates C/2.
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto m = topo.add_node("m");
  const auto b = topo.add_node("b");
  topo.add_link(a, m, 1e6, 0);
  topo.add_link(m, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  fn.start_flow(a, b, 1e9);
  fn.start_flow(a, m, 1e9);
  fn.start_flow(m, b, 1e9);
  eng.run_until(0.001);  // let activations happen (latency 0)
  EXPECT_NEAR(fn.link_load(0), 1e6, 1.0);
  EXPECT_NEAR(fn.link_load(1), 1e6, 1.0);
  EXPECT_NEAR(fn.link_utilization(0), 1.0, 1e-6);
}

TEST(FlowNetwork, BottleneckRestrictedFlowLeavesSpare) {
  // Flow1 a->b via bottleneck 1 MB/s; Flow2 on a separate fat path keeps
  // its full share: classic max-min (not proportional) behavior.
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const auto c = topo.add_node("c");
  topo.add_link(a, b, 1e6, 0);   // narrow
  topo.add_link(a, c, 4e6, 0);   // fat
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  fn.start_flow(a, b, 1e9);
  fn.start_flow(a, c, 1e9);
  eng.run_until(0.001);
  EXPECT_NEAR(fn.link_load(0), 1e6, 1.0);
  EXPECT_NEAR(fn.link_load(1), 4e6, 1.0);
}

TEST(FlowNetwork, CancelReleasesBandwidth) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double t_done = -1;
  fn.start_flow(a, b, 1e6, [&](net::FlowId) { t_done = eng.now(); });
  const auto victim = fn.start_flow(a, b, 1e6);
  eng.schedule_at(0.5, [&] { EXPECT_TRUE(fn.cancel(victim)); });
  eng.run();
  // Both at 0.5 MB/s until t=0.5 (0.25 MB moved), then full speed:
  // 0.75 MB remaining at 1 MB/s -> done at 1.25.
  EXPECT_NEAR(t_done, 1.25, 1e-6);
  EXPECT_EQ(fn.flows_completed(), 1u);
}

TEST(FlowNetwork, ZeroByteFlowCompletesAfterLatency) {
  core::Engine eng;
  auto topo = net::Topology::star(2, 1e6, 0.05);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double done_at = -1;
  fn.start_flow(1, 2, 0, [&](net::FlowId) { done_at = eng.now(); });
  eng.run();
  EXPECT_NEAR(done_at, 0.1, 1e-12);
}

TEST(FlowNetwork, SameNodeTransferInstant) {
  core::Engine eng;
  auto topo = net::Topology::star(2, 1e6, 0.05);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double done_at = -1;
  fn.start_flow(1, 1, 5e6, [&](net::FlowId) { done_at = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

TEST(FlowNetwork, UnreachableThrows) {
  core::Engine eng;
  net::Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  EXPECT_THROW(fn.start_flow(0, 1, 100), std::invalid_argument);
}

TEST(FlowNetwork, TrackedSeriesRecordsUtilization) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  fn.track_link(0);
  fn.start_flow(a, b, 1e6);
  eng.run();
  const auto& series = fn.link_series(0);
  ASSERT_GE(series.size(), 1u);
  EXPECT_NEAR(series.max_value(), 1.0, 1e-9);
}

// --- argument validation ----------------------------------------------------

namespace {

// One a-b link of 1 MB/s: the smallest network a flow can share.
struct OneLink {
  net::Topology topo;
  net::NodeId a = topo.add_node("a");
  net::NodeId b = topo.add_node("b");
  net::LinkId link = topo.add_link(a, b, 1e6, 0);
};

}  // namespace

TEST(FlowNetwork, NanBytesRejected) {
  core::Engine eng;
  OneLink one;
  net::Routing routing(one.topo);
  net::FlowNetwork fn(eng, routing);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(fn.start_flow(one.a, one.b, nan), std::invalid_argument);
  EXPECT_THROW(fn.start_flow(one.a, one.b, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(fn.start_io(nan, {one.link}, 0, nullptr), std::invalid_argument);
  EXPECT_EQ(fn.active_flows(), 0u);
  eng.run();
  EXPECT_EQ(eng.now(), 0.0);  // a NaN payload used to leave the clock at NaN
}

TEST(FlowNetwork, NonPositiveWeightRejected) {
  core::Engine eng;
  OneLink one;
  net::Routing routing(one.topo);
  net::FlowNetwork fn(eng, routing);
  EXPECT_THROW(fn.start_flow_weighted(one.a, one.b, 1e6, 0.0), std::invalid_argument);
  EXPECT_THROW(fn.start_flow_weighted(one.a, one.b, 1e6, -1.0), std::invalid_argument);
  EXPECT_THROW(
      fn.start_flow_weighted(one.a, one.b, 1e6, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_THROW(
      fn.start_flow_weighted(one.a, one.b, 1e6, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
  eng.run();
  // A zero-weight flow used to stay active forever after run() returned.
  EXPECT_EQ(fn.active_flows(), 0u);
}

TEST(FlowNetwork, NegativeBytesRejected) {
  core::Engine eng;
  OneLink one;
  net::Routing routing(one.topo);
  net::FlowNetwork fn(eng, routing);
  bool completed = false;
  EXPECT_THROW(fn.start_flow(one.a, one.b, -1.0, [&](net::FlowId) { completed = true; }),
               std::invalid_argument);
  eng.run();
  EXPECT_FALSE(completed);  // used to complete silently as an empty payload
  EXPECT_EQ(fn.flows_completed(), 0u);
}

TEST(FlowNetwork, BadExtraLatencyRejected) {
  core::Engine eng;
  OneLink one;
  net::Routing routing(one.topo);
  net::FlowNetwork fn(eng, routing);
  EXPECT_THROW(fn.start_io(1e6, {one.link}, -0.5, nullptr), std::invalid_argument);
  EXPECT_THROW(fn.start_io(1e6, {one.link}, std::numeric_limits<double>::quiet_NaN(), nullptr),
               std::invalid_argument);
  net::FlowNetwork::FlowSpec spec;
  spec.src = one.a;
  spec.dst = one.b;
  spec.bytes = 1e6;
  spec.extra_latency = std::numeric_limits<double>::infinity();
  EXPECT_THROW(fn.start_flow_spec(spec), std::invalid_argument);
  EXPECT_EQ(fn.active_flows(), 0u);
}

TEST(FlowNetwork, ResourceIdsAreBoundsChecked) {
  core::Engine eng;
  OneLink one;
  net::Routing routing(one.topo);
  net::FlowNetwork fn(eng, routing);
  const net::ResourceId disk = fn.add_resource(1e6, "disk");
  ASSERT_EQ(fn.total_resources(), 2u);
  EXPECT_TRUE(fn.resource_up(disk));
  EXPECT_EQ(fn.resource_name(disk), "disk");
  const net::ResourceId bad = 2;
  EXPECT_THROW(fn.set_resource_up(bad, false), std::out_of_range);
  EXPECT_THROW(fn.set_link_up(bad, false), std::out_of_range);
  EXPECT_THROW((void)fn.resource_up(bad), std::out_of_range);
  EXPECT_THROW((void)fn.link_up(bad), std::out_of_range);
  EXPECT_THROW((void)fn.resource_name(bad), std::out_of_range);
  EXPECT_THROW(fn.track_link(bad), std::out_of_range);
  EXPECT_THROW((void)fn.resource_bytes(bad), std::out_of_range);
  EXPECT_THROW((void)fn.resource_bytes(net::kInvalidResource), std::out_of_range);
  EXPECT_THROW(fn.start_io(1e6, {disk, bad}, 0, nullptr), std::out_of_range);
  EXPECT_EQ(fn.active_flows(), 0u);
}

// --- slot recycling -----------------------------------------------------------

TEST(FlowNetwork, RecycledSlotLeavesOldIdDead) {
  core::Engine eng;
  OneLink one;
  net::Routing routing(one.topo);
  net::FlowNetwork fn(eng, routing);
  double first_done = -1, second_done = -1;
  const net::FlowId first =
      fn.start_flow(one.a, one.b, 1e6, [&](net::FlowId) { first_done = eng.now(); });
  net::FlowId second = net::kInvalidFlow;
  eng.schedule_at(2.0, [&] {
    // The first flow finished at t=1: the new one takes over its record.
    second = fn.start_flow(one.a, one.b, 2e6, [&](net::FlowId) { second_done = eng.now(); });
  });
  eng.schedule_at(3.0, [&] {
    EXPECT_FALSE(fn.cancel(first));
    EXPECT_EQ(fn.flow_rate(first), 0.0);
    EXPECT_FALSE(fn.cancel(net::kInvalidFlow));
    EXPECT_FALSE(fn.cancel(second + 1));  // never issued
    EXPECT_EQ(fn.active_flows(), 1u);
    EXPECT_DOUBLE_EQ(fn.flow_rate(second), 1e6);
  });
  eng.run();
  EXPECT_GT(second, first);
  EXPECT_DOUBLE_EQ(first_done, 1.0);
  EXPECT_DOUBLE_EQ(second_done, 4.0);  // untouched by the stale-id calls
  EXPECT_EQ(fn.flows_completed(), 2u);
}

TEST(FlowNetwork, FailStopAfterSlotReuseAbortsInIdOrder) {
  core::Engine eng;
  OneLink one;
  net::Routing routing(one.topo);
  net::FlowNetwork fn(eng, routing);
  fn.set_failure_semantics(core::FailureSemantics::kFailStop);
  std::vector<net::FlowId> errors;
  std::vector<net::FlowId> ids;
  auto start = [&](double bytes) {
    ids.push_back(fn.start_flow_checked(one.a, one.b, bytes, nullptr,
                                        [&](net::FlowId id) { errors.push_back(id); }));
  };
  // Flows 1 and 3 finish early and free their records; flows 5 and 6 reuse
  // them, so record order no longer matches id order.
  start(1e5);
  start(1e12);
  start(1e5);
  start(1e12);
  eng.schedule_at(1.0, [&] {
    EXPECT_EQ(fn.flows_completed(), 2u);
    start(1e12);
    start(1e12);
  });
  eng.schedule_at(2.0, [&] { fn.set_link_up(one.link, false); });
  eng.run();
  ASSERT_EQ(ids.size(), 6u);
  EXPECT_EQ(errors, (std::vector<net::FlowId>{ids[1], ids[3], ids[4], ids[5]}));
  EXPECT_EQ(fn.flows_aborted(), 4u);
  EXPECT_EQ(fn.active_flows(), 0u);
}

TEST(FlowNetwork, LongChurnWithRebuildsMatchesFullSolver) {
  // Hundreds of short flows over three disjoint links, never more than a
  // few dozen at once, so records are recycled throughout; cancels and rate
  // probes keep hitting ids whose records now hold other flows. Every
  // second a fail-stop outage of link 0 aborts a burst of 80 flows at once:
  // that many stale component members force a component rebuild.
  net::Topology topo;
  std::vector<net::NodeId> ends;
  for (int i = 0; i < 6; ++i) ends.push_back(topo.add_node(std::to_string(i)));
  for (int i = 0; i < 3; ++i) topo.add_link(ends[2 * i], ends[2 * i + 1], 1e6, 0.001);
  using Trace = std::vector<std::tuple<char, net::FlowId, std::uint64_t>>;
  const auto bits = [](double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  auto run = [&](bool incremental, std::size_t* peak_active) {
    core::Engine eng;
    net::Routing routing(topo);
    net::FlowNetwork fn(eng, routing, net::FlowNetwork::Config{incremental});
    fn.set_failure_semantics(core::FailureSemantics::kFailStop);
    core::RngStream rng(42);
    Trace trace;
    std::vector<net::FlowId> ids;
    auto start = [&](std::size_t link, double bytes, double weight) {
      ids.push_back(fn.start_flow_weighted(
          ends[2 * link], ends[2 * link + 1], bytes, weight,
          [&](net::FlowId id) { trace.emplace_back('C', id, bits(eng.now())); },
          [&](net::FlowId id) { trace.emplace_back('E', id, bits(eng.now())); }));
    };
    for (int round = 0; round < 4; ++round) {
      const double t0 = 1.0 + round;
      eng.schedule_at(t0, [&] {
        for (int i = 0; i < 80; ++i) start(0, 1e7 + 1e4 * i, 1.0);
      });
      eng.schedule_at(t0 + 0.5, [&] { fn.set_link_up(0, false); });
      eng.schedule_at(t0 + 0.6, [&] { fn.set_link_up(0, true); });
    }
    double t = 0;
    for (int i = 0; i < 600; ++i) {
      t += rng.exponential(0.01);
      const double r = rng.uniform();
      const auto link = static_cast<std::size_t>(rng.uniform_int(0, 2));
      const double bytes = rng.uniform(1e3, 2e4);
      const double weight = rng.uniform(0.5, 3.0);
      const auto pick = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
      eng.schedule_at(t, [&, r, link, bytes, weight, pick] {
        if (r < 0.7 || ids.empty()) {
          start(link, bytes, weight);
        } else if (r < 0.85) {
          const net::FlowId victim = ids[pick % ids.size()];
          trace.emplace_back('X', victim, fn.cancel(victim) ? 1 : 0);
        } else {
          for (net::FlowId id : ids) trace.emplace_back('R', id, bits(fn.flow_rate(id)));
        }
        *peak_active = std::max(*peak_active, fn.active_flows());
      });
    }
    eng.run();
    trace.emplace_back('B', 0, bits(fn.total_bytes_delivered()));
    trace.emplace_back('N', fn.flows_aborted(), fn.flows_completed());
    return trace;
  };
  std::size_t peak_full = 0, peak_inc = 0;
  const Trace full = run(false, &peak_full);
  const Trace inc = run(true, &peak_inc);
  EXPECT_EQ(full, inc);
  const auto count = [&](char kind) {
    return std::count_if(full.begin(), full.end(),
                         [kind](const auto& e) { return std::get<0>(e) == kind; });
  };
  EXPECT_GT(count('C'), 300);
  EXPECT_GE(count('E'), 4 * 64);
  EXPECT_LT(peak_inc, 120u);  // far fewer live records than ids issued
}

// --- completion heap -----------------------------------------------------------

TEST(FlowCompletionHeap, EarlierArmedFlowSurvivesASupersededMinimum) {
  // A is the heap minimum and armed. B's key then moves before A's, so B is
  // armed too, and B is cancelled. A's event must still be in the queue:
  // cancelling it when B took the minimum and pushing its key again after B
  // left would lose it on the queues that keep cancelled records, once
  // another kept record (`late`) outlives A's instant.
  for (core::QueueKind kind : core::kAllQueueKinds) {
    SCOPED_TRACE(core::to_string(kind));
    core::Engine eng({.queue = kind});
    net::Topology topo;
    const net::NodeId a = topo.add_node("a"), b = topo.add_node("b");
    const net::NodeId c = topo.add_node("c"), d = topo.add_node("d");
    topo.add_link(a, b, 1e6, 0);
    topo.add_link(c, d, 1e6, 0);
    net::Routing routing(topo);
    net::FlowNetwork fn(eng, routing);
    std::vector<char> done;
    double a_done = -1;
    fn.start_flow(a, b, 1e7, [&](net::FlowId) {
      done.push_back('A');
      a_done = eng.now();
    });                                          // t = 10, the minimum
    const net::FlowId fc = fn.start_flow(c, d, 1e8, [&](net::FlowId) { done.push_back('C'); });
    const net::FlowId fb = fn.start_flow(c, d, 8e6, [&](net::FlowId) { done.push_back('B'); });
    eng.schedule_at(2.0, [&] {
      EXPECT_TRUE(fn.cancel(fc));  // B speeds up: its key moves to t = 9 < 10
      EXPECT_DOUBLE_EQ(fn.flow_rate(fb), 1e6);
    });
    eng.schedule_at(3.0, [&] { EXPECT_TRUE(fn.cancel(fb)); });
    const core::EventHandle late = eng.schedule_at(50.0, [] {});
    eng.schedule_at(1.0, [&] { EXPECT_TRUE(eng.cancel(late)); });
    eng.run();
    EXPECT_EQ(done, std::vector<char>{'A'});
    EXPECT_DOUBLE_EQ(a_done, 10.0);
    EXPECT_EQ(eng.stats().cancelled, 2u);  // `late` and B's armed event
    EXPECT_EQ(eng.stats().executed + eng.stats().cancelled, eng.stats().scheduled);
    EXPECT_EQ(eng.pending(), 0u);
  }
}

TEST(FlowCompletionHeap, CompletionCarriesTheTagOfItsLastRateChange) {
  core::Engine eng;
  eng.enable_event_tags();
  net::Topology topo;
  const net::NodeId a = topo.add_node("a"), b = topo.add_node("b");
  const net::NodeId c = topo.add_node("c"), d = topo.add_node("d");
  topo.add_link(a, b, 1e6, 0);
  topo.add_link(c, d, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  std::vector<std::pair<char, std::uint32_t>> tags;
  const auto record = [&](char name) {
    return [&, name](net::FlowId) { tags.emplace_back(name, eng.current_tag()); };
  };
  {
    core::TagScope scope(eng, 5);
    fn.start_flow(a, b, 2e6, record('A'));
  }
  {
    core::TagScope scope(eng, 9);
    fn.start_flow(c, d, 1e6, record('B'));  // alone on its link: never re-rated
  }
  eng.schedule_at(0.5, [&] {
    core::TagScope scope(eng, 11);
    fn.start_flow(a, b, 1e7, record('C'));  // re-rates A under tag 11
  });
  eng.run();
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0], (std::pair<char, std::uint32_t>{'B', 9}));
  EXPECT_EQ(tags[1], (std::pair<char, std::uint32_t>{'A', 11}));
  EXPECT_EQ(tags[2], (std::pair<char, std::uint32_t>{'C', 11}));
}

TEST(FlowCompletionHeap, ChurnSchedulesAtMostTwoEventsPerExecutedOne) {
  // Dozens of flows share one bottleneck, so every arrival and departure
  // re-rates all of them; only superseded armed events reach the queue.
  const auto topo = net::Topology::dumbbell(4, 4, 1e9, 0, 1e6, 0);
  std::vector<std::pair<net::FlowId, double>> reference;
  for (core::QueueKind kind : core::kAllQueueKinds) {
    SCOPED_TRACE(core::to_string(kind));
    core::Engine eng({.queue = kind});
    net::Routing routing(topo);
    net::FlowNetwork fn(eng, routing);
    core::RngStream rng(11);
    std::vector<std::pair<net::FlowId, double>> done;
    std::vector<net::FlowId> ids;
    double t = 0;
    for (int i = 0; i < 400; ++i) {
      t += rng.exponential(2.0);
      const auto src = static_cast<net::NodeId>(2 + rng.uniform_int(0, 3));
      const auto dst = static_cast<net::NodeId>(6 + rng.uniform_int(0, 3));
      const double bytes = rng.uniform(1e5, 2e7);
      const bool cancel = rng.bernoulli(0.2);
      const auto pick = static_cast<std::size_t>(rng.uniform_int(0, 1 << 20));
      eng.schedule_at(t, [&, src, dst, bytes, cancel, pick] {
        if (cancel && !ids.empty()) {
          fn.cancel(ids[pick % ids.size()]);
          return;
        }
        ids.push_back(fn.start_flow(src, dst, bytes, [&](net::FlowId id) {
          done.emplace_back(id, eng.now());
        }));
      });
    }
    eng.run();
    EXPECT_GT(done.size(), 250u);
    EXPECT_GT(fn.flows_rerated(), 20 * done.size());
    EXPECT_LE(eng.stats().scheduled, 2 * eng.stats().executed);
    if (reference.empty()) reference = done;
    EXPECT_EQ(done, reference);
  }
}

// Property suite: max-min invariants on randomized scenarios across
// several topologies. Invariants checked at a probe instant:
//  (1) no link carries more than its capacity;
//  (2) every active flow has a saturated link on its path (bottleneck);
//  (3) rates are positive for all sharing flows.
class MaxMinProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinProperty, InvariantsHold) {
  const int seed = GetParam();
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = static_cast<std::uint64_t>(seed)});
  core::RngStream topo_rng(static_cast<std::uint64_t>(seed) * 13 + 1);
  auto topo = net::Topology::random_connected(12, 8, 1e6, 0.0, topo_rng);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  auto& rng = eng.rng("flows");
  std::vector<net::FlowId> ids;
  std::vector<std::vector<net::LinkId>> routes;
  for (int i = 0; i < 30; ++i) {
    const auto s = static_cast<net::NodeId>(rng.uniform_int(0, 11));
    auto d = static_cast<net::NodeId>(rng.uniform_int(0, 10));
    if (d >= s) ++d;
    ids.push_back(fn.start_flow(s, d, 1e12));  // huge: stays active
    routes.push_back(routing.route(s, d).links);
  }
  eng.run_until(0.5);  // all active now

  // (1) capacity respected
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    EXPECT_LE(fn.link_load(l), topo.link(l).bandwidth * (1 + 1e-9));
  }
  // (2)+(3): every flow bottlenecked and positive
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const double r = fn.flow_rate(ids[i]);
    EXPECT_GT(r, 0.0);
    bool saturated = false;
    for (auto l : routes[i]) {
      if (fn.link_load(l) >= topo.link(l).bandwidth * (1 - 1e-6)) saturated = true;
    }
    EXPECT_TRUE(saturated) << "flow " << i << " has no saturated link";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperty, ::testing::Range(1, 11));

// --- transfer service ------------------------------------------------------

TEST(TransferService, StreamLimitQueues) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  net::TransferService::Config cfg;
  cfg.max_streams_per_pair = 1;
  net::TransferService svc(eng, fn, cfg);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    svc.submit(a, b, 1e6, [&](const net::TransferRecord& r) { done.push_back(r.finish_time); });
  }
  eng.run();
  // Serialized: 1s each.
  ASSERT_EQ(done.size(), 3u);
  EXPECT_NEAR(done[0], 1.0, 1e-6);
  EXPECT_NEAR(done[1], 2.0, 1e-6);
  EXPECT_NEAR(done[2], 3.0, 1e-6);
  EXPECT_NEAR(svc.queue_waits().max(), 2.0, 1e-6);
  EXPECT_EQ(svc.completed(), 3u);
  EXPECT_NEAR(svc.bytes_completed(), 3e6, 1.0);
}

TEST(TransferService, UnlimitedSharesBandwidth) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  net::TransferService svc(eng, fn);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    svc.submit(a, b, 1e6, [&](const net::TransferRecord& r) { done.push_back(r.finish_time); });
  }
  eng.run();
  ASSERT_EQ(done.size(), 3u);
  for (double t : done) EXPECT_NEAR(t, 3.0, 1e-6);  // all share: 3x slower
}

TEST(TransferService, RetryBackoffSequenceRespectsCapAndFailsOnce) {
  // Dial-delay sequence is retry_backoff × backoff_factor^k clamped at
  // backoff_cap, and exhausting max_attempts marks the record failed exactly
  // once. With backoff 0.5, factor 2 and cap 1.5 the dead-link dials land at
  // t = 0, 0.5, 1.5 (0.5 + 1.0), 3.0 (+1.5 capped, not +2.0).
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  fn.set_failure_semantics(lsds::core::FailureSemantics::kFailStop);
  fn.set_link_up(0, false);  // dead for the whole run

  net::TransferService::Config cfg;
  cfg.max_attempts = 4;
  cfg.retry_backoff = 0.5;
  cfg.backoff_factor = 2.0;
  cfg.backoff_cap = 1.5;
  net::TransferService svc(eng, fn, cfg);

  int done_calls = 0;
  net::TransferRecord rec;
  svc.submit(a, b, 1e6, [&](const net::TransferRecord& r) {
    ++done_calls;
    rec = r;
  });
  // Each dead dial aborts one flow; probe the abort counter between the
  // expected dial times to pin the whole delay sequence.
  eng.schedule_at(0.25, [&] { EXPECT_EQ(fn.flows_aborted(), 1u); });
  eng.schedule_at(1.0, [&] { EXPECT_EQ(fn.flows_aborted(), 2u); });   // redial at 0.5
  eng.schedule_at(2.0, [&] { EXPECT_EQ(fn.flows_aborted(), 3u); });   // redial at 1.5
  eng.schedule_at(2.9, [&] { EXPECT_EQ(fn.flows_aborted(), 3u); });   // cap: not before 3.0
  eng.run();

  EXPECT_EQ(fn.flows_aborted(), 4u);  // final dial at 3.0
  EXPECT_EQ(done_calls, 1);           // failure reported exactly once
  EXPECT_TRUE(rec.failed);
  EXPECT_EQ(rec.attempts, 4u);
  EXPECT_DOUBLE_EQ(rec.finish_time, 3.0);
  EXPECT_EQ(svc.retries(), 3u);
  EXPECT_EQ(svc.failed(), 1u);
  EXPECT_EQ(svc.completed(), 0u);
  EXPECT_EQ(eng.tombstone_count(), 0u);
}

// --- packet-level model ------------------------------------------------

TEST(PacketNetwork, SingleTransferCompletes) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0.001);
  net::Routing routing(topo);
  net::PacketNetwork pn(eng, routing);
  double done_at = -1;
  pn.start_transfer(a, b, 150000, [&](net::TransferId) { done_at = eng.now(); });
  eng.run();
  EXPECT_GT(done_at, 0.15);  // >= serialization time of 100 packets
  EXPECT_LT(done_at, 1.0);
  EXPECT_EQ(pn.stats().transfers_completed, 1u);
  EXPECT_EQ(pn.stats().packets_delivered, 100u);
  EXPECT_EQ(pn.stats().packets_dropped, 0u);
}

TEST(PacketNetwork, PacketizationRoundsUp) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e8, 0.0001);
  net::Routing routing(topo);
  net::PacketNetwork pn(eng, routing);
  pn.start_transfer(a, b, 1, nullptr);       // 1 byte -> 1 packet
  pn.start_transfer(a, b, 1501, nullptr);    // -> 2 packets
  eng.run();
  EXPECT_EQ(pn.stats().packets_delivered, 3u);
}

TEST(PacketNetwork, CongestionCausesDropsAndRecovery) {
  // Many simultaneous transfers through a slow bottleneck with a tiny queue:
  // drops must occur, and every transfer must still complete (retransmits).
  core::Engine eng;
  auto topo = net::Topology::dumbbell(4, 4, 1e7, 0.0005, 1e6, 0.005);
  net::Routing routing(topo);
  net::PacketNetwork::Config cfg;
  cfg.queue_packets = 10;
  net::PacketNetwork pn(eng, routing, cfg);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    pn.start_transfer(static_cast<net::NodeId>(2 + i), static_cast<net::NodeId>(6 + i), 300000,
                      [&](net::TransferId) { ++completed; });
  }
  eng.run();
  EXPECT_EQ(completed, 4);
  EXPECT_GT(pn.stats().packets_dropped, 0u);
  EXPECT_EQ(pn.stats().retransmits, pn.stats().packets_dropped);
  EXPECT_EQ(pn.active_transfers(), 0u);
}

TEST(PacketNetwork, AgreesWithFlowModelOnUncongestedPath) {
  // On an uncongested single flow the two granularities should agree within
  // ~15% (window ramp-up causes a small slowdown at packet level).
  const double bytes = 1.5e6;
  const double bw = 1e6;
  double t_flow = -1, t_packet = -1;
  {
    core::Engine eng;
    net::Topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    topo.add_link(a, b, bw, 0.001);
    net::Routing routing(topo);
    net::FlowNetwork fn(eng, routing);
    fn.start_flow(a, b, bytes, [&](net::FlowId) { t_flow = eng.now(); });
    eng.run();
  }
  {
    core::Engine eng;
    net::Topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    topo.add_link(a, b, bw, 0.001);
    net::Routing routing(topo);
    net::PacketNetwork pn(eng, routing);
    pn.start_transfer(a, b, bytes, [&](net::TransferId) { t_packet = eng.now(); });
    eng.run();
  }
  ASSERT_GT(t_flow, 0);
  ASSERT_GT(t_packet, 0);
  EXPECT_NEAR(t_packet / t_flow, 1.0, 0.15);
}

TEST(PacketNetwork, PerPacketCostExceedsFlowCost) {
  // The paper's granularity trade-off: count engine events for the same
  // scenario under both models.
  const double bytes = 1.5e6;
  std::uint64_t ev_flow = 0, ev_packet = 0;
  {
    core::Engine eng;
    net::Topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    topo.add_link(a, b, 1e6, 0.001);
    net::Routing routing(topo);
    net::FlowNetwork fn(eng, routing);
    fn.start_flow(a, b, bytes);
    eng.run();
    ev_flow = eng.stats().executed;
  }
  {
    core::Engine eng;
    net::Topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    topo.add_link(a, b, 1e6, 0.001);
    net::Routing routing(topo);
    net::PacketNetwork pn(eng, routing);
    pn.start_transfer(a, b, bytes);
    eng.run();
    ev_packet = eng.stats().executed;
  }
  EXPECT_GT(ev_packet, 100 * ev_flow);
}

TEST(TransferService, RejectsInvalidRetryConfig) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);

  auto make = [&](double backoff, double factor, double cap) {
    net::TransferService::Config cfg;
    cfg.retry_backoff = backoff;
    cfg.backoff_factor = factor;
    cfg.backoff_cap = cap;
    net::TransferService svc(eng, fn, cfg);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  EXPECT_NO_THROW(make(1.0, 2.0, 60.0));
  EXPECT_NO_THROW(make(1e-9, 1.0, 0.0));  // boundary values are legal

  // A zero or negative backoff would re-dial a dead link in a tight loop at
  // the same timestamp — reject at construction, not mid-simulation.
  EXPECT_THROW(make(0.0, 2.0, 60.0), std::invalid_argument);
  EXPECT_THROW(make(-1.0, 2.0, 60.0), std::invalid_argument);
  EXPECT_THROW(make(nan, 2.0, 60.0), std::invalid_argument);

  EXPECT_THROW(make(1.0, 0.5, 60.0), std::invalid_argument);  // shrinking backoff
  EXPECT_THROW(make(1.0, nan, 60.0), std::invalid_argument);

  EXPECT_THROW(make(1.0, 2.0, -1.0), std::invalid_argument);
  EXPECT_THROW(make(1.0, 2.0, inf), std::invalid_argument);
  EXPECT_THROW(make(1.0, 2.0, nan), std::invalid_argument);
}
