// Cluster deployments for the five access architectures of the evaluation.
//
// All five share the same back end — N storage nodes running the PVFS2-like
// storage daemons, one doubling as metadata manager — and differ only in the
// access path (paper §6.1 keeps nodes and disks constant):
//
//   kDirectPnfs  — NFSv4.1 data server on *every* storage node exporting the
//                  local stripe objects directly; MDS co-located with the
//                  PVFS metadata manager; exact layouts via LayoutTranslator.
//   kNativePvfs  — clients run the native PVFS2-like client.
//   kPnfs2Tier   — file-layout pNFS data servers on the storage nodes, but
//                  each proxies the whole file system through a PVFS client
//                  (no placement knowledge: SyntheticLayoutSource).
//   kPnfs3Tier   — 3 dedicated NFS data servers in front of 3 storage nodes
//                  (disks consolidated: fewer spindles behind faster nodes).
//   kPlainNfs    — one NFSv4 server exporting the PVFS client; no pNFS.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/adapters.hpp"
#include "core/aggregation_drivers.hpp"
#include "core/conduit_backend.hpp"
#include "core/pvfs_backend.hpp"
#include "core/translator.hpp"
#include "lfs/object_store.hpp"
#include "nfs/client.hpp"
#include "nfs/local_backend.hpp"
#include "nfs/server.hpp"
#include "core/rebuild.hpp"
#include "pvfs/meta_server.hpp"
#include "pvfs/storage_server.hpp"
#include "sim/fault.hpp"
#include "util/flight.hpp"
#include "util/log.hpp"
#include "util/obs_analysis.hpp"
#include "util/tenant.hpp"

namespace dpnfs::core {

enum class Architecture {
  kDirectPnfs,
  kNativePvfs,
  kPnfs2Tier,
  kPnfs3Tier,
  kPlainNfs,
};

const char* architecture_name(Architecture a);

/// Well-known service ports, public so fault plans can target a specific
/// service on a node (e.g. crash the MDS but not the co-located storage
/// daemon).  Data servers listen on rpc::kNfsPort (2049); the PVFS daemons
/// on rpc::kPvfsMetaPort / rpc::kPvfsIoPort.
inline constexpr uint16_t kMdsPort = 2050;

/// Every knob of the testbed.  Defaults reproduce the paper's setup:
/// 6 storage nodes (+1 metadata double-duty), gigabit Ethernet with jumbo
/// frames, 2 MB stripes, 2 MB rsize/wsize, 8 nfsd threads.
struct ClusterConfig {
  Architecture architecture = Architecture::kDirectPnfs;
  uint32_t storage_nodes = 6;
  uint32_t clients = 8;
  uint32_t three_tier_data_servers = 3;
  /// 3-tier consolidates 6 disks behind 3 nodes; two disks per node do not
  /// double bandwidth (paper §6.2) — this factor models the shortfall.
  double three_tier_disk_scale = 1.6;

  sim::NicParams nic{.bytes_per_sec = 117e6, .latency = sim::us(60)};
  sim::NetworkParams network{};

  /// Seeded per-client start stagger: client i sleeps uniform
  /// [0, start_stagger) — drawn from fork(i) of start_stagger_seed — before
  /// its first op, so closed-loop sweeps measure steady state instead of a
  /// lockstep convoy.  0 disables.
  sim::Duration start_stagger = sim::ms(20);
  uint64_t start_stagger_seed = 0x57a66e12;
  sim::DiskParams disk{.bytes_per_sec = 23e6,
                       .positioning = sim::ms(3),
                       .per_request = sim::us(100)};
  sim::CpuParams server_cpu{.cores = 2};
  sim::CpuParams client_cpu{.cores = 2};

  /// Extra per-byte CPU for *server-side* PVFS clients: an NFS server box
  /// that re-exports the parallel FS pays for a second full data copy
  /// through the kernel/daemon boundary on the same machine.  This is the
  /// per-box ceiling that makes the 2-/3-tier data servers and the plain
  /// NFSv4 server CPU-limited in the paper — and that Direct-pNFS bypasses
  /// by serving stripe objects locally.
  double proxy_extra_cpu_ns_per_byte = 24.0;

  /// Model the prototype's loopback conduit on Direct-pNFS data servers
  /// (Figure 5: the PVFS2 client ferries data between the NFSv4 server and
  /// the local storage daemon through a fixed buffer pool).
  bool direct_ds_conduit = true;
  ConduitParams conduit{};

  /// The 2-/3-tier data servers re-export PVFS through the *kernel* client:
  /// every data op funnels through the pvfs2 kernel module's single upcall
  /// queue to the user-level client daemon, and an nfsd thread's synchronous
  /// VFS write pins that crossing for the full (mostly remote) PVFS round
  /// trip.  One buffer models the serialized traversal — the intermediate
  /// file system overhead §6.2 blames for pNFS-2tier losing half its
  /// bandwidth on a slow network, and which Direct-pNFS eliminates.
  ConduitParams vfs_conduit{.buffers = 1};

  /// Scripted failures (node/service crashes, link faults, disk faults)
  /// injected into the cluster's network.  Empty by default: fault-free
  /// runs build no injector and pay nothing.
  sim::FaultPlan faults{};

  /// Grace window the MDS opens after a restart: sessions unknown to the
  /// new boot instance get NFS4ERR_GRACE (retryable) instead of
  /// BADSESSION while state is re-established.  Data servers stay at 0
  /// (stateless data path; see nfs::ServerConfig::grace_period).
  sim::Duration mds_grace_period = 0;

  /// Simulated-time interval between utilization samples once
  /// `start_sampling()` runs (run_workload starts/stops it around the timed
  /// phase).  0 disables sampling.
  sim::Duration sample_interval = sim::ms(100);
  /// Span-detail retention for the tracer (hop *accounting* is always
  /// exact).  Raise it when exporting full timelines (`--trace-out`).
  size_t trace_span_capacity = 4096;
  /// Head-sampling rate for span detail in [0, 1]: the fraction of traces
  /// whose spans are retained.  Aggregate counters and the SLO digests stay
  /// exact for all traffic at any rate.  1.0 keeps today's always-on
  /// behavior.
  double trace_sample_rate = 1.0;
  /// Seed for the deterministic per-trace sampling verdict; the same seed
  /// and schedule sample the same trace ids (chaos runs stay reproducible).
  uint64_t trace_sample_seed = 0x9e1ddca7;
  /// Root-span latency SLO: unsampled traces ending slower than this (or
  /// with an error) are tail-promoted with full span detail.  0 disables
  /// the slow-trace trigger.
  sim::Duration trace_slo_threshold = 0;

  /// Tenant mix: NFS/PVFS clients are assigned tenant ids 1..tenants
  /// round-robin by client index.  0 disables tenant stamping entirely —
  /// the wire stays byte-identical to the pre-tenant layout.
  uint32_t tenants = 0;
  /// Capacity of the Space-Saving heavy-hitter tracker behind per-tenant
  /// accounting: memory stays O(tenant_topk) at thousands of tenants, and
  /// counts are exact while distinct tenants fit.
  uint32_t tenant_topk = 64;
  /// Bounded structured-event ring (recovery ladder, restarts, WARN+ log
  /// lines) dumped as JSON on faults or on demand.
  size_t flight_capacity = 4096;
  /// Per-node RPC queue depth (summed over the daemons a node hosts) at or
  /// above which the health evaluator reports the node "degraded".
  size_t health_queue_threshold = 64;

  uint64_t stripe_unit = 2ull << 20;

  /// File distribution for new files (copied into pvfs_meta at build time):
  /// kStripe (default, no redundancy), kMirror (`replicas` full copies), or
  /// kErasure (RS `ec_k`+`ec_m`).  Redundant distributions surface to pNFS
  /// clients as the replicated / erasure-coded layout aggregations, whose
  /// degraded read and write paths survive data-server loss without MDS
  /// fallback (docs/failures.md).
  pvfs::DistKind distribution = pvfs::DistKind::kStripe;
  uint32_t replicas = 2;
  uint32_t ec_k = 4;
  uint32_t ec_m = 2;
  /// Trailing storage nodes held out of new distributions as rebuild
  /// spares (copied into pvfs_meta).
  uint32_t spare_nodes = 0;

  /// Background rebuild service on the MDS node (Direct-pNFS only): when a
  /// storage daemon stays continuously unreachable past
  /// `rebuild.dead_threshold`, its dfiles are re-materialized onto a spare
  /// from replicas/parity while foreground traffic continues.  Requires a
  /// fault injector (the monitor reads its liveness view) — fault-free
  /// runs never start the loop.
  bool rebuild_enabled = false;
  RebuildConfig rebuild{};

  /// List I/O: clients fold multiple regions for the same data server or
  /// storage daemon into one vectored request (kReadv/kWritev on the PVFS
  /// wire, READV/WRITEV in NFS compounds).  Copied into the NFS and PVFS
  /// client configs at build time.
  bool listio_enabled = true;
  uint32_t listio_max_regions = 64;

  lfs::ObjectStoreParams store{};
  nfs::ServerConfig nfs_server{};
  nfs::ClientConfig nfs_client{};
  pvfs::MetaServerConfig pvfs_meta{};
  pvfs::StorageServerConfig pvfs_storage{};
  pvfs::PvfsClientConfig pvfs_client{};
};

/// One assembled cluster: simulation, nodes, servers, and per-client-node
/// FileSystemClient handles.
class Deployment {
 public:
  explicit Deployment(ClusterConfig config);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  sim::Simulation& simulation() noexcept { return sim_; }
  const ClusterConfig& config() const noexcept { return config_; }
  Architecture architecture() const noexcept { return config_.architecture; }

  size_t client_count() const noexcept { return fs_clients_.size(); }
  FileSystemClient& client(size_t i) { return *fs_clients_.at(i); }

  /// Mounts every client (must run inside the simulation).
  sim::Task<void> mount_all();

  /// Back-end object stores (one per storage node).
  std::vector<lfs::ObjectStore*> stores();
  void drop_all_server_caches();

  /// Aggregate bytes the back-end disks absorbed.
  uint64_t disk_write_bytes() const;
  uint64_t disk_read_bytes() const;

  /// Bytes moved by the storage/server-node NICs.  Inter-server forwarding
  /// shows up here: with exact layouts, servers transmit ~nothing during a
  /// write workload; the 2-/3-tier proxies re-send everything they receive.
  uint64_t server_tx_bytes() const;
  uint64_t server_rx_bytes() const;

  /// Prints a per-node traffic/disk table (bench `--verbose` support).
  void print_traffic_report() const;

  /// Per-node metric registry; every RPC server/client in the deployment
  /// resolved its counter handles from this at construction.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  obs::Tracer& tracer() noexcept { return tracer_; }
  const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// Deployment-global per-tenant resource ledger (always on; traffic with
  /// no tenant is exported under "none", so per-tenant sums equal the
  /// aggregate counters exactly while nothing has been evicted).
  obs::TenantLedger& tenant_ledger() noexcept { return tenants_ledger_; }
  const obs::TenantLedger& tenant_ledger() const noexcept {
    return tenants_ledger_;
  }

  /// Flight recorder: bounded ring of recovery-ladder events, restarts,
  /// breaker trips, replay, grace transitions, and WARN+ log lines.
  obs::FlightRecorder& flight() noexcept { return flight_; }
  const obs::FlightRecorder& flight() const noexcept { return flight_; }
  std::string flight_json() { return flight_.to_json(); }
  /// Writes `flight_json()` to `path`; false on I/O failure.
  bool write_flight(const std::string& path);

  /// Folds queue/restart/breaker/fault-injection signals into per-node
  /// `ok|degraded|critical` states and returns the JSON "health" section
  /// (also embedded in `metrics_json`; the sampler adds a per-node numeric
  /// 0/1/2 "health" series to the timeseries).
  std::string health_json();

  /// Full observability export: architecture, per-node metrics (with NIC
  /// and object-store snapshots folded in as "node" gauges — this is what
  /// carries per-storage-node bytes even for Direct-pNFS, whose data path
  /// bypasses the PVFS I/O daemons), the trace aggregate, and — when the
  /// sampler ran — the utilization time series.
  std::string metrics_json();

  /// Starts the periodic utilization sampler (NIC/disk utilization, RPC
  /// queue depths, dirty bytes) on `config().sample_interval`.  Must run
  /// while the simulation is live; call `stop_sampling()` before expecting
  /// `Simulation::run()` to drain, or the sampler keeps the event queue
  /// alive forever.
  void start_sampling();
  void stop_sampling();
  const obs::TimeSeries& samples() const noexcept { return samples_; }

  /// Chrome/Perfetto trace_event JSON of all retained spans plus sampled
  /// counter tracks; load in ui.perfetto.dev.
  std::string trace_json();
  /// Writes `trace_json()` to `path`; false on I/O failure.
  bool write_trace(const std::string& path);

  /// Human-readable per-node metric + trace report.
  void print_metrics_report();

  /// The Direct-pNFS layout translator (null for other architectures).
  LayoutTranslator* translator() noexcept { return translator_.get(); }

  /// The fault injector driving `config().faults` (null when the plan is
  /// empty).
  sim::FaultInjector* fault_injector() noexcept { return fault_injector_.get(); }

  /// The background rebuild service (null unless `rebuild_enabled` and the
  /// architecture hosts one).  `start_rebuild()` spawns its monitor loop;
  /// call `stop_rebuild()` before expecting `Simulation::run()` to drain.
  RebuildManager* rebuild() noexcept { return rebuild_.get(); }
  void start_rebuild() {
    if (rebuild_) rebuild_->start();
  }
  void stop_rebuild() {
    if (rebuild_) rebuild_->stop();
  }

 private:
  void build_backend_cluster(uint32_t storage_count, double disk_scale);
  void build_direct_pnfs();
  void build_native_pvfs();
  void build_pnfs_2tier();
  void build_pnfs_3tier();
  void build_plain_nfs();

  sim::Node& add_client_node(const std::string& name);
  std::vector<rpc::RpcAddress> storage_addresses() const;
  std::unique_ptr<pvfs::PvfsClient> make_pvfs_client(sim::Node& node,
                                                     const std::string& who,
                                                     bool proxy,
                                                     uint32_t tenant = 0);
  void add_nfs_clients(rpc::RpcAddress mds, bool pnfs_enabled);

  /// Folds current NIC/disk/object-store totals into "node" gauges so
  /// exports see resource usage regardless of which software path moved
  /// the bytes.
  void snapshot_resource_gauges();

  /// Per-node RPC queue depth, summed over the daemons each node hosts.
  std::map<std::string, double> rpc_queue_depths();

  /// Re-evaluates per-node health states from the current signals.
  void evaluate_health();

  sim::Task<void> sampler_loop();

  /// config_.nfs_server with the MDS grace window applied.
  nfs::ServerConfig mds_server_config() const;

  ClusterConfig config_;
  sim::Simulation sim_;
  sim::Network net_;
  std::unique_ptr<sim::FaultInjector> fault_injector_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  obs::TenantLedger tenants_ledger_;
  obs::FlightRecorder flight_;
  rpc::RpcFabric fabric_;
  obs::TimeSeries samples_;
  bool sampling_ = false;
  bool sampler_stop_ = false;
  util::LogSink prev_log_sink_;

  struct NodeHealth {
    int level = 0;  ///< 0 ok, 1 degraded, 2 critical
    std::string reason = "ok";
  };
  std::map<std::string, NodeHealth> health_;
  std::map<std::string, uint64_t> health_prev_restarts_;
  std::map<std::string, uint64_t> health_prev_breakers_;
  /// (node name, client) pairs for breaker/error health signals.
  std::vector<std::pair<std::string, const nfs::NfsClient*>> health_clients_;

  std::vector<sim::Node*> storage_nodes_;
  std::vector<sim::Node*> client_nodes_;
  std::vector<std::unique_ptr<lfs::ObjectStore>> stores_;
  std::vector<std::unique_ptr<pvfs::PvfsStorageServer>> pvfs_storage_;
  std::unique_ptr<pvfs::PvfsMetaServer> pvfs_meta_;
  std::unique_ptr<RebuildManager> rebuild_;

  std::shared_ptr<FhRegistry> registry_;
  std::shared_ptr<const nfs::AggregationRegistry> aggregations_;
  std::vector<std::unique_ptr<pvfs::PvfsClient>> server_pvfs_clients_;
  std::vector<std::unique_ptr<nfs::Backend>> backends_;
  std::unique_ptr<LayoutTranslator> translator_;
  std::unique_ptr<SyntheticLayoutSource> synthetic_layouts_;
  std::vector<std::unique_ptr<nfs::NfsServer>> nfs_servers_;

  std::vector<std::unique_ptr<FileSystemClient>> fs_clients_;
};

}  // namespace dpnfs::core
