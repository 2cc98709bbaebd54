// The NFS client's data-server circuit breaker on its own: the trip at the
// threshold, the reset on success, the breaker closing again after
// `reset`, and exactly one counted, flight-recorded trip per opening.
#include <gtest/gtest.h>

#include "nfs/ds_health.hpp"
#include "rpc/fabric.hpp"
#include "sim/network.hpp"
#include "util/flight.hpp"

namespace dpnfs::nfs {
namespace {

using sim::Task;

constexpr rpc::RpcAddress kDs{1, rpc::kNfsPort};
constexpr rpc::RpcAddress kOtherDs{2, rpc::kNfsPort};

struct HealthRig {
  sim::Simulation sim;
  sim::Network net{sim};
  rpc::RpcFabric fabric{net};
  obs::FlightRecorder flight;
  uint64_t trips = 0;
  DsHealth health{fabric, "client0", /*threshold=*/3, sim::sec(5), trips};

  HealthRig() { fabric.set_accounting(nullptr, &flight); }

  size_t trip_events() const {
    size_t n = 0;
    for (const auto& e : flight.events()) {
      if (e.kind == "breaker.trip") {
        EXPECT_EQ(e.node, "client0");
        EXPECT_EQ(e.component, "nfs.client");
        ++n;
      }
    }
    return n;
  }
  uint64_t trip_counter() {
    return fabric.metrics()
        .counter("client0", "client.recovery", "breaker_trips")
        .value();
  }
};

TEST(DsHealth, TripsAtTheThresholdOnce) {
  HealthRig r;
  r.health.record(kDs, false);
  r.health.record(kDs, false);
  EXPECT_FALSE(r.health.open(kDs));
  EXPECT_EQ(r.trips, 0u);
  r.health.record(kDs, false);
  EXPECT_TRUE(r.health.open(kDs));
  EXPECT_FALSE(r.health.open(kOtherDs));
  EXPECT_EQ(r.trips, 1u);
  EXPECT_EQ(r.trip_counter(), 1u);
  EXPECT_EQ(r.trip_events(), 1u);
  // Further failures while open are no new trip.
  r.health.record(kDs, false);
  EXPECT_EQ(r.trips, 1u);
  EXPECT_EQ(r.trip_events(), 1u);
}

TEST(DsHealth, SuccessResetsTheCountAndCloses) {
  HealthRig r;
  r.health.record(kDs, false);
  r.health.record(kDs, false);
  r.health.record(kDs, true);
  r.health.record(kDs, false);
  r.health.record(kDs, false);
  EXPECT_FALSE(r.health.open(kDs));  // the success restarted the count
  r.health.record(kDs, false);
  EXPECT_TRUE(r.health.open(kDs));
  r.health.record(kDs, true);
  EXPECT_FALSE(r.health.open(kDs));
  for (int i = 0; i < 3; ++i) r.health.record(kDs, false);
  EXPECT_TRUE(r.health.open(kDs));
  EXPECT_EQ(r.trips, 2u);
  EXPECT_EQ(r.trip_counter(), 2u);
  EXPECT_EQ(r.trip_events(), 2u);
}

TEST(DsHealth, ClosesAgainAfterTheResetPeriod) {
  HealthRig r;
  EXPECT_EQ(r.health.reset(), sim::sec(5));
  r.sim.spawn([](HealthRig& r) -> Task<void> {
    co_await r.sim.delay(sim::sec(1));
    for (int i = 0; i < 3; ++i) r.health.record(kDs, false);
    EXPECT_TRUE(r.health.open(kDs));
    co_await r.sim.delay(sim::sec(5) - 1);
    EXPECT_TRUE(r.health.open(kDs));
    co_await r.sim.delay(1);
    EXPECT_FALSE(r.health.open(kDs));
  }(r));
  r.sim.run();
  EXPECT_EQ(r.trips, 1u);
  EXPECT_EQ(r.trip_events(), 1u);
}

}  // namespace
}  // namespace dpnfs::nfs
