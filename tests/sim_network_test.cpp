#include <gtest/gtest.h>

#include "sim/network.hpp"
#include "sim/simulation.hpp"
#include "util/bytes.hpp"

namespace dpnfs::sim {
namespace {

using namespace dpnfs::util::literals;

NodeParams make_node(std::string name, double nic_bps = 100e6,
                     Duration latency = 0) {
  return NodeParams{.name = std::move(name),
                    .nic = NicParams{.bytes_per_sec = nic_bps, .latency = latency},
                    .disk = std::nullopt,
                    .cpu = CpuParams{.cores = 2}};
}

Task<void> do_transfer(Network& net, Node& a, Node& b, uint64_t bytes,
                       Time* done_at = nullptr) {
  co_await net.transfer(a, b, bytes);
  if (done_at != nullptr) *done_at = net.simulation().now();
}

TEST(Network, SingleFlowAchievesLineRate) {
  Simulation sim;
  Network net(sim);
  Node& a = net.add_node(make_node("a"));
  Node& b = net.add_node(make_node("b"));
  sim.spawn(do_transfer(net, a, b, 100'000'000));
  sim.run();
  // 1 second of wire time plus one pipelined chunk on the receive side.
  const double elapsed = to_seconds(sim.now());
  EXPECT_GT(elapsed, 1.0);
  EXPECT_LT(elapsed, 1.05);
}

TEST(Network, LatencyAppliesOnce) {
  Simulation sim;
  Network net(sim);
  Node& a = net.add_node(make_node("a", 100e6, ms(10)));
  Node& b = net.add_node(make_node("b", 100e6, ms(10)));
  sim.spawn(do_transfer(net, a, b, 1));
  sim.run();
  EXPECT_GE(sim.now(), ms(10));
  EXPECT_LT(sim.now(), ms(11));
}

TEST(Network, TwoFlowsShareSenderNic) {
  Simulation sim;
  Network net(sim);
  Node& a = net.add_node(make_node("a"));
  Node& b = net.add_node(make_node("b"));
  Node& c = net.add_node(make_node("c"));
  Time tb = 0, tc = 0;
  sim.spawn(do_transfer(net, a, b, 50'000'000, &tb));
  sim.spawn(do_transfer(net, a, c, 50'000'000, &tc));
  sim.run();
  // 100 MB total leaves a's 100 MB/s NIC in ~1s; both flows finish near the
  // end because they share fairly.
  EXPECT_NEAR(to_seconds(sim.now()), 1.0, 0.07);
  EXPECT_NEAR(to_seconds(tb), to_seconds(tc), 0.05);
}

TEST(Network, TwoFlowsShareReceiverNic) {
  Simulation sim;
  Network net(sim);
  Node& a = net.add_node(make_node("a"));
  Node& b = net.add_node(make_node("b"));
  Node& c = net.add_node(make_node("c"));
  sim.spawn(do_transfer(net, a, c, 50'000'000));
  sim.spawn(do_transfer(net, b, c, 50'000'000));
  sim.run();
  EXPECT_NEAR(to_seconds(sim.now()), 1.0, 0.07);
}

TEST(Network, DisjointFlowsDoNotInterfere) {
  Simulation sim;
  Network net(sim);
  Node& a = net.add_node(make_node("a"));
  Node& b = net.add_node(make_node("b"));
  Node& c = net.add_node(make_node("c"));
  Node& d = net.add_node(make_node("d"));
  Time t1 = 0, t2 = 0;
  sim.spawn(do_transfer(net, a, b, 100'000'000, &t1));
  sim.spawn(do_transfer(net, c, d, 100'000'000, &t2));
  sim.run();
  // A non-blocking switch: each flow gets full line rate.
  EXPECT_LT(to_seconds(sim.now()), 1.05);
}

TEST(Network, LoopbackBypassesNic) {
  Simulation sim;
  Network net(sim);
  Node& a = net.add_node(make_node("a", 1.0 /* crawling NIC */));
  sim.spawn(do_transfer(net, a, a, 100_MiB));
  sim.run();
  // Would take ~100M seconds over the NIC; loopback is memory-speed.
  EXPECT_LT(to_seconds(sim.now()), 1.0);
}

TEST(Network, ZeroByteMessageStillCostsLatency) {
  Simulation sim;
  Network net(sim);
  Node& a = net.add_node(make_node("a", 100e6, us(100)));
  Node& b = net.add_node(make_node("b", 100e6, us(100)));
  sim.spawn(do_transfer(net, a, b, 0));
  sim.run();
  EXPECT_GE(sim.now(), us(100));
}

TEST(Network, AsymmetricRatesBottleneckOnSlowerSide) {
  Simulation sim;
  Network net(sim);
  Node& fast = net.add_node(make_node("fast", 1000e6));
  Node& slow = net.add_node(make_node("slow", 100e6));
  sim.spawn(do_transfer(net, fast, slow, 100'000'000));
  sim.run();
  const double elapsed = to_seconds(sim.now());
  EXPECT_GT(elapsed, 0.99);  // receiver-limited
  EXPECT_LT(elapsed, 1.1);
}

TEST(Network, ManyToOneAggregatesAtReceiverRate) {
  Simulation sim;
  Network net(sim);
  Node& sink = net.add_node(make_node("sink"));
  WaitGroup wg(sim);
  for (int i = 0; i < 4; ++i) {
    Node& src = net.add_node(make_node("src" + std::to_string(i)));
    wg.spawn(do_transfer(net, src, sink, 25'000'000));
  }
  sim.run();
  // 100 MB into a 100 MB/s receiver.
  EXPECT_NEAR(to_seconds(sim.now()), 1.0, 0.08);
}

}  // namespace
}  // namespace dpnfs::sim
