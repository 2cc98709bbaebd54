// End-to-end failure recovery under scripted fault injection (part of the
// `faults` ctest label).  Scenarios: an NFS data-server daemon crashing
// mid-write (the client must finish via transport retries, same-DS slice
// retries, layout re-fetch, and MDS fallback — with byte-identical data),
// RPC deadlines that expire instead of hanging, retries appearing as child
// spans of one trace, whole-node crash + revive, a layout recall racing
// in-flight recovery, disk faults surfacing as I/O errors, the recovery
// ladder pinned rung by rung for READ, WRITE and COMMIT, and the MDS's
// down-mark on a storage daemon cleared by its first reply after a restart.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/adapters.hpp"
#include "core/deployment.hpp"
#include "lfs/object_store.hpp"
#include "nfs/client.hpp"
#include "nfs/local_backend.hpp"
#include "nfs/server.hpp"
#include "rpc/fabric.hpp"
#include "sim/fault.hpp"
#include "sim/network.hpp"
#include "util/bytes.hpp"
#include "util/obs.hpp"

namespace dpnfs {
namespace {

using namespace dpnfs::util::literals;
using rpc::Payload;
using sim::Task;

/// Deterministic content for [offset, offset+length): every byte is a
/// function of its absolute file offset, so reassembled reads are checkable
/// regardless of which path (DS or MDS) served them.
Payload pattern_payload(uint64_t offset, uint64_t length) {
  std::vector<std::byte> v(length);
  for (uint64_t i = 0; i < length; ++i) {
    const uint64_t o = offset + i;
    v[i] = static_cast<std::byte>((o * 131 + (o >> 12) * 7 + 13) & 0xFF);
  }
  return Payload::inline_bytes(std::move(v));
}

// ---------------------------------------------------------------------------
// DS daemon crash mid-write on Direct-pNFS -> MDS fallback, correct data
// ---------------------------------------------------------------------------

struct RecoveryOutcome {
  sim::Time finished = 0;
  nfs::ClientStats writer{};
  bool data_ok = false;
  bool export_has_recovery = false;
  std::set<uint32_t> tripped_nodes;  ///< DS nodes whose breaker opened
};

/// One storage node's NFS daemon (port 2049) crashes at kCrashAt — after the
/// first half of the file is written — while the PVFS I/O daemon on the same
/// node keeps serving.  The write must complete through the MDS and the file
/// must read back byte-identical (the MDS path reaches the same stripe
/// objects through the parallel FS).
RecoveryOutcome run_ds_crash_scenario() {
  constexpr sim::Time kCrashAt = sim::sec(1);
  constexpr uint64_t kHalf = 8_MiB;

  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 4;
  cfg.clients = 2;
  // The deadline sits above healthy queueing for the 8 MiB writes, so only
  // the crashed DS fails (LadderMatrix uses the same 250 ms).
  cfg.nfs_client.ds_timeout = sim::ms(250);
  cfg.nfs_client.ds_rpc_retries = 1;
  cfg.nfs_client.slice_retries = 1;
  cfg.nfs_client.breaker_threshold = 2;
  cfg.nfs_client.breaker_reset = sim::sec(60);
  // Storage nodes get ids 0..3; kill the NFS DS daemon on storage1 only.
  cfg.faults.crash_service(1, rpc::kNfsPort, kCrashAt);

  core::Deployment d(cfg);
  RecoveryOutcome out;
  d.simulation().spawn([](core::Deployment& d, RecoveryOutcome& out,
                          sim::Time crash_at, uint64_t half) -> Task<void> {
    co_await d.mount_all();
    auto f = co_await d.client(0).open("/f", true);
    co_await f->write(0, pattern_payload(0, half));
    co_await f->fsync();

    // Second half lands after the scripted crash.
    auto& sim = d.simulation();
    if (sim.now() <= crash_at) co_await sim.delay(crash_at + sim::ms(1) - sim.now());
    co_await f->write(half, pattern_payload(half, half));
    co_await f->fsync();
    co_await f->close();

    // Read back through the second client: its DS-bound READs recover too.
    auto g = co_await d.client(1).open_read("/f");
    Payload back = co_await g->read(0, 2 * half);
    Payload want = pattern_payload(0, half);
    want.append(pattern_payload(half, half));
    out.data_ok = back == want;
    co_await g->close();
    out.finished = sim.now();
  }(d, out, kCrashAt, kHalf));
  d.simulation().run();

  out.writer =
      dynamic_cast<core::NfsFileSystemClient&>(d.client(0)).native().stats();
  out.export_has_recovery =
      d.metrics_json().find("client.recovery") != std::string::npos;
  for (const auto& e : d.flight().events()) {
    unsigned node = 0;
    if (e.kind == "breaker.trip" &&
        std::sscanf(e.detail.c_str(), "ds node %u", &node) == 1) {
      out.tripped_nodes.insert(node);
    }
  }
  return out;
}

TEST(FaultRecovery, DsCrashMidWriteRecoversViaMdsFallback) {
  const RecoveryOutcome out = run_ds_crash_scenario();
  EXPECT_TRUE(out.data_ok);
  EXPECT_GT(out.finished, sim::sec(1));
  EXPECT_GT(out.writer.recovery_retries, 0u);
  EXPECT_GT(out.writer.mds_fallbacks, 0u);
  EXPECT_GE(out.writer.breaker_trips, 1u);
  EXPECT_GT(out.writer.layout_refetches, 0u);
  EXPECT_TRUE(out.export_has_recovery);
  // Only the crashed storage1 trips a breaker; storage0/2/3 stay healthy.
  EXPECT_EQ(out.tripped_nodes, std::set<uint32_t>{1});
}

TEST(FaultRecovery, DsCrashScenarioIsDeterministic) {
  const RecoveryOutcome a = run_ds_crash_scenario();
  const RecoveryOutcome b = run_ds_crash_scenario();
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.data_ok, b.data_ok);
  EXPECT_EQ(a.writer.recovery_retries, b.writer.recovery_retries);
  EXPECT_EQ(a.writer.mds_fallbacks, b.writer.mds_fallbacks);
  EXPECT_EQ(a.writer.breaker_trips, b.writer.breaker_trips);
  EXPECT_EQ(a.writer.layout_refetches, b.writer.layout_refetches);
  EXPECT_EQ(a.tripped_nodes, b.tripped_nodes);
}

// ---------------------------------------------------------------------------
// The recovery ladder, rung by rung: {READ, WRITE, COMMIT} x MDS fallback
// ---------------------------------------------------------------------------

enum class LadderOp { kRead, kWrite, kCommit };

struct LadderOutcome {
  std::string result;  ///< "ok", "corrupt", or the NfsError's status name
  sim::Time finished = 0;
  nfs::ClientStats stats{};  ///< of the client that ran the op
  std::string kinds;         ///< "kind=count ..." of nfs.client flight events
};

/// Non-redundant Direct-pNFS with storage1's NFS daemon dead from 1 s on.
/// Client 0 writes 8 MiB (one 2 MiB stripe chunk per DS) before the crash --
/// closed for READ, committed for WRITE, left unstable for COMMIT; then,
/// after the crash:
///   READ   -- client 1 reads the file back cold;
///   WRITE  -- client 0 rewrites the file and fsyncs;
///   COMMIT -- client 0 fsyncs the still-unstable first write.
LadderOutcome run_ladder_case(LadderOp op, bool mds_fallback) {
  constexpr sim::Time kCrashAt = sim::sec(1);
  constexpr uint64_t kBytes = 8_MiB;
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 4;
  cfg.clients = 2;
  // The deadline sits above healthy queueing: only the dead DS fails.
  cfg.nfs_client.ds_timeout = sim::ms(250);
  cfg.nfs_client.ds_rpc_retries = 1;
  cfg.nfs_client.slice_retries = 1;
  cfg.nfs_client.breaker_threshold = 2;
  cfg.nfs_client.breaker_reset = sim::sec(60);
  cfg.nfs_client.wb_commit_backlog = 0;  // fsync is the only COMMIT source
  cfg.nfs_client.mds_fallback = mds_fallback;
  cfg.faults.crash_service(1, rpc::kNfsPort, kCrashAt);

  core::Deployment d(cfg);
  LadderOutcome out;
  d.simulation().spawn([](core::Deployment& d, LadderOp op, LadderOutcome& out,
                          sim::Time crash_at, uint64_t bytes) -> Task<void> {
    auto& sim = d.simulation();
    co_await d.mount_all();
    auto f = co_await d.client(0).open("/f", true);
    co_await f->write(0, pattern_payload(0, bytes));
    if (op == LadderOp::kWrite) co_await f->fsync();
    if (op == LadderOp::kRead) co_await f->close();
    if (sim.now() >= crash_at) {
      out.result = "setup outlasted the crash";
      co_return;
    }
    co_await sim.delay(crash_at + sim::ms(10) - sim.now());
    try {
      switch (op) {
        case LadderOp::kRead: {
          auto g = co_await d.client(1).open_read("/f");
          Payload back = co_await g->read(0, bytes);
          out.result = back == pattern_payload(0, bytes) ? "ok" : "corrupt";
          break;
        }
        case LadderOp::kWrite:
          co_await f->write(0, pattern_payload(0, bytes));
          co_await f->fsync();
          out.result = "ok";
          break;
        case LadderOp::kCommit:
          co_await f->fsync();
          out.result = "ok";
          break;
      }
    } catch (const nfs::NfsError& e) {
      out.result = nfs::status_name(e.status());
    }
    out.finished = sim.now();
  }(d, op, out, kCrashAt, kBytes));
  d.simulation().run();

  out.stats = dynamic_cast<core::NfsFileSystemClient&>(
                  d.client(op == LadderOp::kRead ? 1 : 0))
                  .native()
                  .stats();
  std::map<std::string, int> kinds;
  for (const auto& e : d.flight().events()) {
    if (e.component == "nfs.client") ++kinds[e.kind];
  }
  for (const auto& [kind, n] : kinds) {
    out.kinds += (out.kinds.empty() ? "" : " ") + kind + "=" + std::to_string(n);
  }
  return out;
}

TEST(FaultRecovery, LadderMatrix) {
  struct Case {
    LadderOp op;
    bool mds_fallback;
    const char* result;
    sim::Time finished;
    uint64_t retries, fallbacks, trips, refetches;
    const char* kinds;
  };
  const Case cases[] = {
      // Retry, trip, re-fetch, then the MDS serves the bytes.
      {LadderOp::kRead, true, "ok", 2358209969, 1, 1, 1, 1,
       "breaker.trip=1 layout.refetch=1 log.warn=1"},
      {LadderOp::kRead, false, "CLIENT_TIMED_OUT", 2262008808, 1, 0, 1, 0,
       "breaker.trip=1 log.warn=1"},
      {LadderOp::kWrite, true, "ok", 2529232870, 1, 1, 1, 1,
       "breaker.trip=1 layout.refetch=1 log.warn=1"},
      // fsync re-drives the failed write-back until its round budget runs out.
      {LadderOp::kWrite, false, "NFS4ERR_IO", 9111320512, 1, 0, 1, 0,
       "breaker.trip=1 log.warn=1"},
      // COMMIT falls back without a re-fetch; the MDS verifier never matches,
      // so the retained chunk replays -- through the MDS, the breaker open.
      {LadderOp::kCommit, true, "ok", 2414656481, 1, 2, 1, 0,
       "breaker.trip=1 log.warn=2 mds.fallback=1 wb.replay=1"},
      {LadderOp::kCommit, false, "CLIENT_TIMED_OUT", 8638314152, 1, 0, 1, 0,
       "breaker.trip=1 log.warn=1"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "op " << static_cast<int>(c.op) << " mds_fallback "
                 << c.mds_fallback);
    const LadderOutcome out = run_ladder_case(c.op, c.mds_fallback);
    EXPECT_EQ(out.result, c.result);
    EXPECT_EQ(out.finished, c.finished);
    EXPECT_EQ(out.stats.recovery_retries, c.retries);
    EXPECT_EQ(out.stats.mds_fallbacks, c.fallbacks);
    EXPECT_EQ(out.stats.breaker_trips, c.trips);
    EXPECT_EQ(out.stats.layout_refetches, c.refetches);
    EXPECT_EQ(out.kinds, c.kinds);
  }
}

// ---------------------------------------------------------------------------
// Shared device liveness across a storage-daemon restart
// ---------------------------------------------------------------------------

TEST(FaultRecovery, RestartedDaemonIsClearedAndUnflagged) {
  // EC(4+2): storage1's PVFS I/O daemon is down from 1 s to 1.5 s.  A
  // GETATTR at 1.01 s makes the MDS's size gather time out and mark it
  // down.  At 2 s the daemon is back but the MDS has sent it nothing, so a
  // cold open still gets the device flagged.  Past the probe hold, the next
  // gather probes it; that first successful reply clears the mark, and the
  // layout granted in the same OPEN names no device.
  constexpr uint32_t kVictim = 1;
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 6;
  cfg.clients = 4;
  cfg.stripe_unit = 256_KiB;
  cfg.distribution = pvfs::DistKind::kErasure;
  cfg.ec_k = 4;
  cfg.ec_m = 2;
  core::fail_fast_on_loss(cfg);
  cfg.faults.crash_service(kVictim, rpc::kPvfsIoPort, sim::sec(1),
                           sim::ms(1500));
  core::Deployment d(cfg);
  struct Outcome {
    uint64_t down_after_gather = 0;
    size_t flagged_while_unprobed = 0;
    uint64_t up_before_probe = 0;
    uint64_t up_after_probe = 0;
    size_t flagged_after_probe = 99;
  } out;
  const auto counter = [&d](const char* name) {
    const obs::Counter* c = d.metrics().find_counter("storage0", "mds.liveness",
                                                     name);
    return c == nullptr ? uint64_t{0} : c->value();
  };
  d.simulation().spawn([](core::Deployment& d, Outcome& out,
                          auto counter) -> Task<void> {
    auto& sim = d.simulation();
    const auto native = [&d](size_t i) -> nfs::NfsClient& {
      return dynamic_cast<core::NfsFileSystemClient&>(d.client(i)).native();
    };
    co_await d.mount_all();
    auto f = co_await d.client(0).open("/f", true);
    co_await f->write(0, pattern_payload(0, 2_MiB));
    co_await f->close();
    co_await sim.delay(sim::ms(1010) - sim.now());
    co_await d.client(1).stat_size("/f");
    out.down_after_gather = counter("daemons_marked_down");

    co_await sim.delay(sim::sec(2) - sim.now());
    auto g = co_await native(2).open("/f", false, true);
    out.flagged_while_unprobed = g->layout->unavailable.size();
    co_await native(2).close(g);
    out.up_before_probe = counter("daemons_marked_up");

    co_await sim.delay(sim::sec(8) - sim.now());
    auto h = co_await native(3).open("/f", false, true);
    out.up_after_probe = counter("daemons_marked_up");
    out.flagged_after_probe = h->layout->unavailable.size();
    co_await native(3).close(h);
  }(d, out, counter));
  d.simulation().run();
  EXPECT_EQ(out.down_after_gather, 1u);
  EXPECT_EQ(out.flagged_while_unprobed, 1u);
  EXPECT_EQ(out.up_before_probe, 0u);
  EXPECT_EQ(out.up_after_probe, 1u);
  EXPECT_EQ(out.flagged_after_probe, 0u);
  const std::string flight = d.flight_json();
  EXPECT_NE(flight.find("daemon.down"), std::string::npos);
  EXPECT_NE(flight.find("daemon.up"), std::string::npos);
}

// ---------------------------------------------------------------------------
// RPC-level deadlines, retries, and trace shape
// ---------------------------------------------------------------------------

struct RpcRig {
  sim::Simulation sim;
  sim::Network net{sim};
  rpc::RpcFabric fabric{net};
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  std::unique_ptr<sim::FaultInjector> injector;

  RpcRig() { fabric.set_observability(&metrics, &tracer); }

  sim::Node& add_node(const std::string& name, bool with_disk = false) {
    return net.add_node(sim::NodeParams{
        .name = name,
        .nic = sim::NicParams{.bytes_per_sec = 100e6, .latency = sim::us(10)},
        .disk = with_disk ? std::optional<sim::DiskParams>(sim::DiskParams{})
                          : std::nullopt,
        .cpu = sim::CpuParams{.cores = 2}});
  }

  void inject(sim::FaultPlan plan) {
    injector = std::make_unique<sim::FaultInjector>(std::move(plan));
    net.set_fault_injector(injector.get());
  }
};

rpc::RpcService echo_handler() {
  return [](const rpc::CallContext&, rpc::XdrDecoder&,
            rpc::XdrEncoder& out) -> Task<void> {
    out.put_u32(42);
    co_return;
  };
}

TEST(FaultRecovery, DeadlineExpiryProducesTimedOutNotHang) {
  RpcRig r;
  auto& client_node = r.add_node("client");
  auto& server_node = r.add_node("server");
  rpc::RpcServer server(r.fabric, server_node, rpc::kNfsPort, 2,
                        echo_handler());
  server.start();
  // Daemon down forever: every attempt must expire at its deadline.
  r.inject(sim::FaultPlan{}.crash_service(server_node.id(), rpc::kNfsPort, 0));

  rpc::RpcClient client(r.fabric, client_node, "t@SIM");
  bool done = false;
  rpc::RpcClient::Reply reply;
  r.sim.spawn([](rpc::RpcClient& c, rpc::RpcAddress to, bool& done,
                 rpc::RpcClient::Reply& reply) -> Task<void> {
    reply = co_await c.call(to, rpc::Program::kNfs, 4, 1, rpc::XdrEncoder{},
                            rpc::CallOptions{.timeout = sim::ms(10),
                                             .max_retries = 2,
                                             .backoff = sim::ms(5)});
    done = true;
  }(client, server.address(), done, reply));
  r.sim.run();

  ASSERT_TRUE(done);  // the simulation drained: no hung coroutine
  EXPECT_EQ(reply.transport, rpc::Status::kTimedOut);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(client.retries(), 2u);
  EXPECT_EQ(client.timeouts(), 3u);
  // 3 attempts x 10 ms + backoffs: bounded, far below the 2 s drop fallback.
  EXPECT_LT(r.sim.now(), sim::ms(200));
}

TEST(FaultRecovery, DroppedCallWithoutDeadlineUsesFabricDropTimeout) {
  RpcRig r;
  auto& client_node = r.add_node("client");
  auto& server_node = r.add_node("server");
  rpc::RpcServer server(r.fabric, server_node, rpc::kNfsPort, 2,
                        echo_handler());
  server.start();
  r.inject(sim::FaultPlan{}.crash_service(server_node.id(), rpc::kNfsPort, 0));

  rpc::RpcClient client(r.fabric, client_node, "t@SIM");
  bool done = false;
  rpc::RpcClient::Reply reply;
  r.sim.spawn([](rpc::RpcClient& c, rpc::RpcAddress to, bool& done,
                 rpc::RpcClient::Reply& reply) -> Task<void> {
    reply = co_await c.call(to, rpc::Program::kNfs, 4, 1, rpc::XdrEncoder{});
    done = true;
  }(client, server.address(), done, reply));
  r.sim.run();

  ASSERT_TRUE(done);
  EXPECT_EQ(reply.transport, rpc::Status::kTimedOut);
  EXPECT_GE(r.sim.now(), r.fabric.drop_timeout());
}

TEST(FaultRecovery, RetriedCallsAreChildSpansOfOneTrace) {
  RpcRig r;
  auto& client_node = r.add_node("client");
  auto& server_node = r.add_node("server");
  rpc::RpcServer server(r.fabric, server_node, rpc::kNfsPort, 2,
                        echo_handler());
  server.start();
  // Down long enough to kill attempt 1, back up for the retry.
  r.inject(sim::FaultPlan{}.crash_service(server_node.id(), rpc::kNfsPort, 0,
                                          sim::ms(12)));

  rpc::RpcClient client(r.fabric, client_node, "t@SIM");
  rpc::RpcClient::Reply reply;
  r.sim.spawn([](rpc::RpcClient& c, rpc::RpcAddress to,
                 rpc::RpcClient::Reply& reply) -> Task<void> {
    reply = co_await c.call(to, rpc::Program::kNfs, 4, 1, rpc::XdrEncoder{},
                            rpc::CallOptions{.timeout = sim::ms(10),
                                             .max_retries = 3,
                                             .backoff = sim::ms(4)});
  }(client, server.address(), reply));
  r.sim.run();

  EXPECT_TRUE(reply.ok());
  EXPECT_GE(client.retries(), 1u);
  EXPECT_EQ(r.tracer.traces_started(), 1u);

  std::vector<obs::Span> attempts;
  for (const obs::Span& s : r.tracer.spans()) {
    if (s.kind == obs::SpanKind::kClientCall) attempts.push_back(s);
  }
  ASSERT_GE(attempts.size(), 2u);
  // Attempt 1 anchors the trace; every retry is its child in the same trace.
  const obs::Span& anchor = attempts.front();
  EXPECT_EQ(anchor.parent_span_id, 0u);
  EXPECT_NE(anchor.name.find(" timeout"), std::string::npos);
  EXPECT_EQ(anchor.bytes_in, 0u);
  for (size_t i = 1; i < attempts.size(); ++i) {
    EXPECT_EQ(attempts[i].trace_id, anchor.trace_id);
    EXPECT_EQ(attempts[i].parent_span_id, anchor.span_id);
  }
  EXPECT_EQ(attempts.back().name.find(" timeout"), std::string::npos);
}

TEST(FaultRecovery, NodeCrashAndReviveRecoversWithRetries) {
  RpcRig r;
  auto& client_node = r.add_node("client");
  auto& server_node = r.add_node("server");
  rpc::RpcServer server(r.fabric, server_node, rpc::kNfsPort, 2,
                        echo_handler());
  server.start();
  // The whole machine is unreachable for 50 ms, then comes back.
  r.inject(sim::FaultPlan{}.crash_node(server_node.id(), 0, sim::ms(50)));

  rpc::RpcClient client(r.fabric, client_node, "t@SIM");
  rpc::RpcClient::Reply reply;
  r.sim.spawn([](rpc::RpcClient& c, rpc::RpcAddress to,
                 rpc::RpcClient::Reply& reply) -> Task<void> {
    reply = co_await c.call(to, rpc::Program::kNfs, 4, 1, rpc::XdrEncoder{},
                            rpc::CallOptions{.timeout = sim::ms(20),
                                             .max_retries = 5,
                                             .backoff = sim::ms(10)});
  }(client, server.address(), reply));
  r.sim.run();

  EXPECT_TRUE(reply.ok());
  EXPECT_GE(client.retries(), 1u);
  EXPECT_GE(r.sim.now(), sim::ms(50));  // only succeeded after the revive
}

// ---------------------------------------------------------------------------
// Layout recall racing in-flight recovery
// ---------------------------------------------------------------------------

TEST(FaultRecovery, LayoutRecallDuringRetryCompletes) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 4;
  cfg.clients = 2;
  cfg.nfs_client.ds_timeout = sim::ms(20);
  cfg.nfs_client.ds_rpc_retries = 1;
  cfg.nfs_client.slice_retries = 1;
  cfg.nfs_client.breaker_threshold = 2;
  cfg.nfs_client.breaker_reset = sim::sec(60);
  // storage1's DS daemon is down from the start; client 0's writes to it
  // spend a long time in the retry ladder.
  cfg.faults.crash_service(1, rpc::kNfsPort, 0, sim::sec(30));

  core::Deployment d(cfg);
  bool writer_done = false;
  bool truncator_done = false;
  sim::Latch fsync_started(d.simulation());
  d.simulation().spawn([](core::Deployment& d, bool& writer_done,
                          bool& truncator_done,
                          sim::Latch& fsync_started) -> Task<void> {
    co_await d.mount_all();
    sim::WaitGroup wg(d.simulation());
    wg.spawn([](core::Deployment& d, bool& done,
                sim::Latch& fsync_started) -> Task<void> {
      auto f = co_await d.client(0).open("/f", true);
      co_await f->write(0, pattern_payload(0, 8_MiB));
      fsync_started.set();
      co_await f->fsync();  // retries against dead storage1 -> MDS fallback
      co_await f->close();
      done = true;
    }(d, writer_done, fsync_started));
    wg.spawn([](core::Deployment& d, bool& done,
                sim::Latch& fsync_started) -> Task<void> {
      // Land the SETATTR (and the layout recall it triggers) while client 0
      // is inside the retry ladder: the first WRITE to the dead DS spends
      // >= 40 ms in transport timeouts before the first slice retry.
      co_await fsync_started.wait();
      co_await d.simulation().delay(sim::ms(25));
      auto& peer =
          dynamic_cast<core::NfsFileSystemClient&>(d.client(1)).native();
      co_await peer.truncate("/f", 1_MiB);
      done = true;
    }(d, truncator_done, fsync_started));
    co_await wg.wait();
  }(d, writer_done, truncator_done, fsync_started));
  d.simulation().run();

  EXPECT_TRUE(writer_done);
  EXPECT_TRUE(truncator_done);
  const auto& stats =
      dynamic_cast<core::NfsFileSystemClient&>(d.client(0)).native().stats();
  EXPECT_GT(stats.recovery_retries + stats.mds_fallbacks, 0u);
}

// ---------------------------------------------------------------------------
// Boot-instance boundaries: replies queued before a crash never surface
// ---------------------------------------------------------------------------

TEST(FaultRecovery, QueuedReplyDroppedAcrossServiceRestart) {
  RpcRig r;
  auto& client_node = r.add_node("client");
  auto& server_node = r.add_node("server");
  int runs = 0;
  // Each execution stamps its run number into the reply after a 30 ms think
  // time, so a reply computed by boot instance 1 but sent after the revive
  // is distinguishable from a fresh execution.
  rpc::RpcServer server(
      r.fabric, server_node, rpc::kNfsPort, 2,
      [&r, &runs](const rpc::CallContext&, rpc::XdrDecoder&,
                  rpc::XdrEncoder& out) -> Task<void> {
        const uint32_t run = static_cast<uint32_t>(++runs);
        co_await r.sim.delay(sim::ms(30));
        out.put_u32(run);
      });
  server.start();
  // The service dies at 10 ms — while execution #1 is in flight — and is
  // back at 20 ms.  The reply straddles the boot boundary and must be
  // dropped, not delivered late to the retrying client.
  r.inject(sim::FaultPlan{}.crash_service(server_node.id(), rpc::kNfsPort,
                                          sim::ms(10), sim::ms(20)));

  rpc::RpcClient client(r.fabric, client_node, "t@SIM");
  rpc::RpcClient::Reply reply;
  r.sim.spawn([](rpc::RpcClient& c, rpc::RpcAddress to,
                 rpc::RpcClient::Reply& reply) -> Task<void> {
    reply = co_await c.call(to, rpc::Program::kNfs, 4, 1, rpc::XdrEncoder{},
                            rpc::CallOptions{.timeout = sim::ms(40),
                                             .max_retries = 2,
                                             .backoff = sim::ms(5)});
  }(client, server.address(), reply));
  r.sim.run();

  ASSERT_TRUE(reply.ok());
  auto body = reply.body();
  EXPECT_EQ(body.get_u32(), 2u);  // the answer came from the NEW instance
  EXPECT_EQ(runs, 2);             // old execution ran but its reply vanished
  EXPECT_GE(client.timeouts(), 1u);
  EXPECT_EQ(r.injector->boot_instance(server_node.id(), rpc::kNfsPort,
                                      r.sim.now()),
            2u);
}

// ---------------------------------------------------------------------------
// Write verifiers: clean restart between WRITE and COMMIT
// ---------------------------------------------------------------------------

/// Direct-pNFS rig for the verifier tests: 2 DSes, streaming unstable
/// write-back with background COMMITs disabled so data is guaranteed to sit
/// uncommitted in server memory across the scripted restart window.
core::ClusterConfig verifier_rig_config() {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 2;
  cfg.clients = 2;
  cfg.nfs_client.wb_commit_backlog = 0;  // fsync is the only COMMIT source
  return cfg;
}

TEST(FaultRecovery, CommitAfterCleanRestartMismatchesExactlyOnce) {
  core::ClusterConfig cfg = verifier_rig_config();
  // storage1's DS daemon restarts cleanly (no request in flight) in the gap
  // between the streamed WRITEs and the explicit fsync.
  cfg.faults.crash_service(1, rpc::kNfsPort, sim::ms(500), sim::ms(520));

  core::Deployment d(cfg);
  bool data_ok = false;
  d.simulation().spawn([](core::Deployment& d, bool& data_ok) -> Task<void> {
    co_await d.mount_all();
    auto f = co_await d.client(0).open("/f", true);
    // 4 MiB = one full 2 MiB stripe chunk per DS; both stream out as
    // UNSTABLE WRITEs immediately and then sit uncommitted.
    co_await f->write(0, pattern_payload(0, 4_MiB));
    co_await d.simulation().delay(sim::ms(600) - d.simulation().now());
    // First COMMIT to the revived DS returns the new boot verifier: the
    // client must detect the mismatch once and replay the lost extent.
    co_await f->fsync();
    // A second fsync must be a no-op: the replayed data was committed
    // under the new verifier.
    co_await f->fsync();
    co_await f->close();

    auto g = co_await d.client(1).open_read("/f");
    Payload back = co_await g->read(0, 4_MiB);
    data_ok = back == pattern_payload(0, 4_MiB);
    co_await g->close();
  }(d, data_ok));
  d.simulation().run();

  EXPECT_TRUE(data_ok);
  const auto& stats =
      dynamic_cast<core::NfsFileSystemClient&>(d.client(0)).native().stats();
  EXPECT_EQ(stats.verifier_mismatches, 1u);  // exactly once, not per retry
  EXPECT_GE(stats.replayed_extents, 1u);
  EXPECT_EQ(stats.replayed_bytes, 2_MiB);  // only the crashed DS's chunk
  EXPECT_EQ(stats.mds_fallbacks, 0u);      // replay, not proxy degradation
}

TEST(FaultRecovery, ReplayIsIdempotentAcrossRepeatedRestarts) {
  core::ClusterConfig cfg = verifier_rig_config();
  // The same DS restarts twice; the same byte range is replayed each time.
  cfg.faults.crash_service(1, rpc::kNfsPort, sim::ms(500), sim::ms(520));
  cfg.faults.crash_service(1, rpc::kNfsPort, sim::ms(1500), sim::ms(1520));

  core::Deployment d(cfg);
  bool round_ok[2] = {false, false};
  d.simulation().spawn([](core::Deployment& d, bool* round_ok) -> Task<void> {
    co_await d.mount_all();
    auto f = co_await d.client(0).open("/f", true);
    for (int round = 0; round < 2; ++round) {
      // Identical bytes at identical offsets each round: the second replay
      // re-sends extents the object already holds.
      co_await f->write(0, pattern_payload(0, 4_MiB));
      const sim::Time quiet = sim::ms(600 + 1000 * round);
      co_await d.simulation().delay(quiet - d.simulation().now());
      co_await f->fsync();
      auto g = co_await d.client(1).open_read("/f");
      Payload back = co_await g->read(0, 4_MiB);
      round_ok[round] = back == pattern_payload(0, 4_MiB);
      co_await g->close();
      d.client(1).drop_caches();
    }
    co_await f->close();
  }(d, round_ok));
  d.simulation().run();

  // Double replay of the same extents leaves the object byte-identical.
  EXPECT_TRUE(round_ok[0]);
  EXPECT_TRUE(round_ok[1]);
  const auto& stats =
      dynamic_cast<core::NfsFileSystemClient&>(d.client(0)).native().stats();
  EXPECT_EQ(stats.verifier_mismatches, 2u);
  EXPECT_EQ(stats.replayed_bytes, 4_MiB);  // 2 MiB lost per restart
}

// ---------------------------------------------------------------------------
// MDS restart: grace period, session recovery, one layout re-fetch per file
// ---------------------------------------------------------------------------

TEST(FaultRecovery, MdsRestartRefetchesLayoutOncePerOpenFile) {
  core::ClusterConfig cfg;
  cfg.architecture = core::Architecture::kDirectPnfs;
  cfg.storage_nodes = 2;
  cfg.clients = 1;
  cfg.nfs_client.mds_timeout = sim::ms(500);
  cfg.mds_grace_period = sim::ms(50);  // revived MDS answers GRACE first
  // The MDS service (not the co-located DS daemon) restarts at 500 ms.
  cfg.faults.crash_service(0, core::kMdsPort, sim::ms(500), sim::ms(520));

  core::Deployment d(cfg);
  uint64_t refetches_before = 0;
  uint64_t refetches_after_two = 0;
  bool data_ok = false;
  d.simulation().spawn([](core::Deployment& d, uint64_t& before,
                          uint64_t& after_two, bool& data_ok) -> Task<void> {
    co_await d.mount_all();
    auto& nc = dynamic_cast<core::NfsFileSystemClient&>(d.client(0)).native();
    auto a = co_await d.client(0).open("/a", true);
    auto b = co_await d.client(0).open("/b", true);
    co_await a->write(0, pattern_payload(0, 2_MiB));
    co_await a->fsync();
    co_await b->write(0, pattern_payload(1_GiB, 2_MiB));
    co_await b->fsync();
    before = nc.stats().layout_refetches;

    // Land the first post-revive op *inside* the 50 ms grace window: the
    // client must absorb NFS4ERR_GRACE retries, then re-establish the
    // session — which invalidates every held layout (the new boot instance
    // knows nothing of them).
    co_await d.simulation().delay(sim::ms(530) - d.simulation().now());
    co_await a->write(2_MiB, pattern_payload(2_MiB, 2_MiB));
    co_await a->fsync();  // LAYOUTCOMMIT hits the restarted MDS
    // Each open file re-fetches its layout exactly once, on its next I/O.
    co_await b->write(2_MiB, pattern_payload(1_GiB + 2_MiB, 2_MiB));
    co_await b->fsync();
    co_await a->write(4_MiB, pattern_payload(4_MiB, 2_MiB));
    co_await a->fsync();
    after_two = nc.stats().layout_refetches;

    // Further I/O on already-refreshed layouts must not re-fetch again.
    co_await a->write(6_MiB, pattern_payload(6_MiB, 2_MiB));
    co_await a->fsync();
    co_await b->write(4_MiB, pattern_payload(1_GiB + 4_MiB, 2_MiB));
    co_await b->fsync();
    co_await a->close();
    co_await b->close();

    auto ra = co_await d.client(0).open_read("/a");
    Payload back = co_await ra->read(0, 8_MiB);
    Payload want = pattern_payload(0, 8_MiB);
    data_ok = back == want;
    co_await ra->close();
  }(d, refetches_before, refetches_after_two, data_ok));
  d.simulation().run();

  const auto& stats =
      dynamic_cast<core::NfsFileSystemClient&>(d.client(0)).native().stats();
  EXPECT_TRUE(data_ok);
  // Exactly one LAYOUTGET per open file with a layout, no more.
  EXPECT_EQ(refetches_after_two - refetches_before, 2u);
  EXPECT_EQ(stats.layout_refetches, refetches_after_two);
  EXPECT_GE(stats.session_recoveries, 1u);
}

// ---------------------------------------------------------------------------
// Disk faults
// ---------------------------------------------------------------------------

TEST(FaultRecovery, DiskFaultSurfacesAsIoErrorThenHeals) {
  RpcRig r;
  auto& server_node = r.add_node("server", /*with_disk=*/true);
  auto& client_node = r.add_node("client");
  lfs::ObjectStore store(server_node);
  nfs::LocalBackend backend(store);
  nfs::NfsServer server(r.fabric, server_node, rpc::kNfsPort, backend);
  server.start();
  // Disk dead until t = 100 ms; commits in that window must fail cleanly.
  r.inject(sim::FaultPlan{}.fail_disk(server_node.id(), 0, sim::ms(100)));

  nfs::NfsClient client(r.fabric, client_node, server.address(), "t@SIM",
                        nfs::ClientConfig{.pnfs_enabled = false});
  bool failed_during_fault = false;
  bool healed = false;
  r.sim.spawn([](nfs::NfsClient& c, sim::Simulation& sim,
                 bool& failed_during_fault, bool& healed) -> Task<void> {
    co_await c.mount();
    auto f = co_await c.open("/f", true);
    co_await c.write(f, 0, Payload::virtual_bytes(64_KiB));
    try {
      co_await c.fsync(f);  // COMMIT -> flush -> DiskFailedError -> kIo
    } catch (const nfs::NfsError&) {
      failed_during_fault = true;
    }
    co_await sim.delay(sim::ms(150) - sim.now());
    co_await c.write(f, 64_KiB, Payload::virtual_bytes(64_KiB));
    co_await c.fsync(f);  // disk healed: must succeed
    healed = true;
    co_await c.close(f);
  }(client, r.sim, failed_during_fault, healed));
  r.sim.run();

  EXPECT_TRUE(failed_during_fault);
  EXPECT_TRUE(healed);
}

}  // namespace
}  // namespace dpnfs
