// Data-server health as one NFS client sees it: a consecutive-failure
// circuit breaker per server address.  `threshold` failed slices in a row
// open a server's breaker for `reset`, during which the client routes that
// server's slices around it (surviving redundancy or the MDS); one success
// closes it again (see docs/failures.md).
#pragma once

#include <map>
#include <string>

#include "rpc/fabric.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace dpnfs::nfs {

class DsHealth {
 public:
  /// Trips land in `trips` (the owner's ClientStats field) and in the
  /// node's "client.recovery" breaker_trips counter.
  DsHealth(rpc::RpcFabric& fabric, std::string node, uint32_t threshold,
           sim::Duration reset, uint64_t& trips)
      : fabric_(fabric),
        node_(std::move(node)),
        threshold_(threshold),
        reset_(reset),
        trips_(trips),
        m_trips_(&fabric.metrics().counter(node_, "client.recovery",
                                           "breaker_trips")) {}

  /// True while `addr`'s breaker is open.
  bool open(const rpc::RpcAddress& addr) const {
    const auto it = breakers_.find(addr);
    return it != breakers_.end() &&
           fabric_.simulation().now() < it->second.open_until;
  }

  /// Records one slice outcome against `addr`.  The threshold-th failure in
  /// a row trips the breaker: counted, logged and flight-recorded once.
  void record(const rpc::RpcAddress& addr, bool ok) {
    Breaker& b = breakers_[addr];
    if (ok) {
      b = Breaker{};
      return;
    }
    if (++b.consecutive_failures != threshold_) return;
    const sim::Time now = fabric_.simulation().now();
    b.open_until = now + reset_;
    ++trips_;
    m_trips_->add(1);
    util::logf(util::LogLevel::kWarn, "nfs.client", now,
               "circuit breaker opened for DS node %u port %u", addr.node_id,
               static_cast<unsigned>(addr.port));
    if (obs::FlightRecorder* flight = fabric_.flight()) {
      flight->record(now, node_, "nfs.client", "breaker.trip",
                     util::sformat("ds node %u port %u until %lld ns",
                                   addr.node_id,
                                   static_cast<unsigned>(addr.port),
                                   static_cast<long long>(b.open_until)));
    }
  }

  /// How long a tripped breaker stays open.
  sim::Duration reset() const noexcept { return reset_; }

 private:
  struct Breaker {
    uint32_t consecutive_failures = 0;
    sim::Time open_until = 0;
  };

  rpc::RpcFabric& fabric_;
  std::string node_;
  uint32_t threshold_;
  sim::Duration reset_;
  uint64_t& trips_;
  obs::Counter* m_trips_;
  std::map<rpc::RpcAddress, Breaker> breakers_;
};

}  // namespace dpnfs::nfs
