// The benchmark's four workloads, driven through the public client API
// (core::Deployment, core::FileSystemClient / core::File) and the open-loop
// arrival generator (workload::generate_arrivals).  Every application call
// goes through the Recorder, so failures are counted and each call is a
// span in simulated time.
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "core/adapters.hpp"
#include "rpc/fabric.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"
#include "workload/openloop.hpp"

namespace perfbench {

using namespace dpnfs;
using Clock = std::chrono::steady_clock;
using rpc::Payload;

const char* op_name(Op op) {
  switch (op) {
    case Op::kOpen:
      return "open";
    case Op::kWrite:
      return "write";
    case Op::kRead:
      return "read";
    case Op::kFsync:
      return "fsync";
    case Op::kClose:
      return "close";
    default:
      return "?";
  }
}

// --- DurationHistogram -------------------------------------------------------

void DurationHistogram::add(int64_t ns) {
  ++total_;
  if (ns == kFailedNs) return;
  const uint64_t v = static_cast<uint64_t>(std::max<int64_t>(ns, 0));
  size_t bucket = v;
  if (v >= (uint64_t{1} << kSubBits)) {
    const int shift = 63 - __builtin_clzll(v) - kSubBits;
    bucket = (static_cast<size_t>(shift + 1) << kSubBits) +
             ((v >> shift) & ((uint64_t{1} << kSubBits) - 1));
  }
  ++counts_[bucket];
}

int64_t DurationHistogram::percentile(double p) const {
  if (total_ == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(total_) + 0.999999);
  rank = std::clamp<uint64_t>(rank, 1, total_);
  uint64_t seen = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen < rank) continue;
    if (b < (size_t{1} << kSubBits)) return static_cast<int64_t>(b);
    const int shift = static_cast<int>(b >> kSubBits) - 1;
    const uint64_t mantissa = (b & ((size_t{1} << kSubBits) - 1)) | (uint64_t{1} << kSubBits);
    return static_cast<int64_t>(((mantissa + 1) << shift) - 1);
  }
  return kFailedNs;
}

// --- Recorder ----------------------------------------------------------------

void Recorder::phase_begin() {
  in_phase_ = true;
  slice_t0_ = Clock::now();
  calls_in_slice_ = 0;
}

void Recorder::phase_end() {
  slices_.push_back(since(slice_t0_));
  in_phase_ = false;
}

int64_t Recorder::begin() {
  if (in_phase_ && ++calls_in_slice_ > slice_calls_) {
    const auto now = Clock::now();
    slices_.push_back(std::chrono::duration<double>(now - slice_t0_).count());
    slice_t0_ = now;
    calls_in_slice_ = 1;
  }
  ++attempted_;
  depth_sum_ += sim_.queue_depth();
  ++depth_samples_;
  return sim_.now();
}

void Recorder::end(Op op, uint32_t client, int64_t start, bool ok) {
  const int64_t dur = sim_.now() - start;
  if (!ok) ++failed_;
  per_op_[static_cast<size_t>(op)].add(ok ? dur : kFailedNs);
  if (keep_spans_) spans_.push_back(Call{start, dur, client, op, ok});
}

Task<std::unique_ptr<core::File>> Recorder::open(core::FileSystemClient& c,
                                                 uint32_t client,
                                                 const std::string& path,
                                                 bool create, bool read_only) {
  const int64_t t0 = begin();
  std::unique_ptr<core::File> f;
  try {
    if (read_only) {
      f = co_await c.open_read(path);
    } else {
      f = co_await c.open(path, create);
    }
  } catch (const std::exception&) {
    f.reset();
  }
  end(Op::kOpen, client, t0, f != nullptr);
  co_return f;
}

Task<bool> Recorder::write(core::File& f, uint32_t client, uint64_t offset,
                           Payload data) {
  const uint64_t n = data.size();
  req_write_ += n;
  const int64_t t0 = begin();
  bool ok = true;
  try {
    co_await f.write(offset, std::move(data));
  } catch (const std::exception&) {
    ok = false;
  }
  end(Op::kWrite, client, t0, ok);
  if (ok) written_ += n;
  co_return ok;
}

Task<std::optional<Payload>> Recorder::read(core::File& f, uint32_t client,
                                            uint64_t offset, uint64_t length) {
  req_read_ += length;
  const int64_t t0 = begin();
  std::optional<Payload> got;
  try {
    got = co_await f.read(offset, length);
  } catch (const std::exception&) {
    got.reset();
  }
  end(Op::kRead, client, t0, got.has_value());
  if (got) read_ += got->size();
  co_return got;
}

Task<bool> Recorder::fsync(core::File& f, uint32_t client) {
  const int64_t t0 = begin();
  bool ok = true;
  try {
    co_await f.fsync();
  } catch (const std::exception&) {
    ok = false;
  }
  end(Op::kFsync, client, t0, ok);
  co_return ok;
}

constexpr uint64_t kMiB = 1 << 20;

void Recorder::stream_progress(int64_t& mib_start, uint64_t end_offset) {
  if (end_offset % kMiB != 0) return;
  mibs_.push_back(sim_.now() - mib_start);
  mib_start = sim_.now();
}

void Recorder::stream_failed(uint64_t done, uint64_t total) {
  for (uint64_t mib = done / kMiB; mib < (total + kMiB - 1) / kMiB; ++mib) {
    mibs_.push_back(kFailedNs);
  }
}

Task<bool> Recorder::close(core::File& f, uint32_t client) {
  const int64_t t0 = begin();
  bool ok = true;
  try {
    co_await f.close();
  } catch (const std::exception&) {
    ok = false;
  }
  end(Op::kClose, client, t0, ok);
  co_return ok;
}

namespace {

// --- Shared testbed -----------------------------------------------------------

// Spans the traced run retains: enough for every span of every workload
// here, so the phase ledger's base is all traffic, not a sample.
constexpr size_t kTracedSpanCapacity = size_t{1} << 22;
// Seeded per-client start stagger at the top of each closed-loop phase.
constexpr uint64_t kStaggerNs = 20'000'000;

// The paper testbed (6 storage nodes, gigabit, 2 MB stripes; 1 GiB client
// and 1.5 GiB per-node server caches are the ClusterConfig defaults).
core::ClusterConfig testbed(core::Architecture arch, uint32_t clients,
                            const Options& opt) {
  core::ClusterConfig cfg;
  cfg.architecture = arch;
  cfg.storage_nodes = 6;
  cfg.clients = clients;
  if (opt.traced) {
    cfg.trace_sample_rate = 1.0;
    cfg.trace_span_capacity = kTracedSpanCapacity;
  }
  return cfg;
}

// Mounts every client and runs the workload's untimed `prepare`, timing both
// into the set-up record; false (with the failure recorded) if either throws.
Task<bool> set_up(core::Deployment& d, Task<void> (*prepare)(core::Deployment&),
                  RunOutput& out) {
  std::string error;
  try {
    auto c = Clock::now();
    co_await d.mount_all();
    out.mount_s = since(c);
    c = Clock::now();
    co_await prepare(d);
    out.prep_s = since(c);
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (!error.empty()) out.failures.push_back("setup: " + error);
  co_return error.empty();
}

std::unique_ptr<core::Deployment> deploy(const core::ClusterConfig& cfg,
                                         const Options& opt, RunOutput& out,
                                         bool sampled_when_untraced = false) {
  const auto t0 = Clock::now();
  auto d = std::make_unique<core::Deployment>(cfg);
  out.deploy_s = since(t0);
  if (!opt.traced && !sampled_when_untraced) d->tracer().set_enabled(false);
  return d;
}

Task<void> stagger(core::Deployment& d, const Options& opt, uint64_t phase,
                   size_t client) {
  const uint64_t ns = util::Rng(opt.seed)
                          .fork(phase * 1024 + client)
                          .below(kStaggerNs);
  co_await d.simulation().delay(static_cast<sim::Duration>(ns));
}

// Opens the timed window: the traced run snapshots the counters first (so
// the snapshot is outside the host timing), both runs sample utilization.
void open_window(core::Deployment& d, const Options& opt, RunOutput& out) {
  if (opt.traced) out.metrics_begin = d.metrics_json();
  out.events_open = d.simulation().events_processed();
  d.start_sampling();
}

double series_mean(const std::vector<obs::TimeSeries::Sample>& s) {
  if (s.empty()) return 0;
  double sum = 0;
  for (const auto& x : s) sum += x.value;
  return sum / static_cast<double>(s.size());
}

void close_window(core::Deployment& d, const Options& opt, RunOutput& out) {
  d.stop_sampling();
  out.events_close = d.simulation().events_processed();
  uint32_t disks = 0;
  for (const auto& [node, series] : d.samples().series()) {
    for (const char* nic : {"nic_tx_util", "nic_rx_util"}) {
      if (auto it = series.find(nic); it != series.end()) {
        out.nic_util_max = std::max(out.nic_util_max, series_mean(it->second));
      }
    }
    if (auto it = series.find("disk_util"); it != series.end()) {
      out.disk_util_mean += series_mean(it->second);
      ++disks;
    }
  }
  if (disks > 0) out.disk_util_mean /= disks;
  if (opt.traced) out.metrics_end = d.metrics_json();
}

uint64_t mds_fallbacks(core::Deployment& d) {
  uint64_t n = 0;
  for (size_t i = 0; i < d.client_count(); ++i) {
    if (auto* c = dynamic_cast<core::NfsFileSystemClient*>(&d.client(i))) {
      n += c->native().stats().mds_fallbacks;
    }
  }
  return n;
}

// Checks common to every workload: bytes moved equal bytes requested, the
// file-system clients' own byte counters agree with the benchmark's, and
// no slice was degraded to the MDS.
void common_checks(core::Deployment& d, const Recorder& rec,
                   uint64_t expect_write, uint64_t expect_read,
                   uint64_t client_written0, uint64_t client_read0,
                   RunOutput& out) {
  auto fail = [&](const std::string& what) { out.failures.push_back(what); };
  if (rec.requested_write() != expect_write) fail("write bytes requested");
  if (rec.requested_read() != expect_read) fail("read bytes requested");
  if (rec.written() != rec.requested_write()) fail("write bytes moved");
  if (rec.read_bytes() != rec.requested_read()) fail("read bytes moved");
  uint64_t cw = 0, cr = 0;
  for (size_t i = 0; i < d.client_count(); ++i) {
    cw += d.client(i).bytes_written();
    cr += d.client(i).bytes_read();
  }
  if (cw - client_written0 != rec.written()) fail("client write counter");
  if (cr - client_read0 != rec.read_bytes()) fail("client read counter");
  if (const uint64_t n = mds_fallbacks(d); n != 0) {
    fail("mds_fallbacks=" + std::to_string(n));
  }
}

// --- ior-stream-2tier ---------------------------------------------------------

// Closed loop on pNFS-2tier (clients reach the PVFS storage daemons through
// the NFS data servers), 8 clients, one file each, 8 KB application calls.
// 10 GiB in total: each client's 1.25 GiB exceeds its 1 GiB cache, and each
// storage node's 1.67 GiB share exceeds its 1.5 GiB cache.
constexpr uint32_t kIorClients = 8;
constexpr uint64_t kIorBytesPerClient = 1280ull << 20;
constexpr uint64_t kIorCall = 8 << 10;
// Closed-loop latency limit: each MiB of a client's stream within 50 ms, a
// 20 MB/s floor.  Single calls make a poor unit: 99% of 8 KB calls cost
// exactly the client's copy time, and the few that stall vary chaotically.
constexpr int64_t kMibSloNs = 50'000'000;
// Host-timing slice: ~3 ms of host time (~640 slices a run).
constexpr uint64_t kIorSliceCalls = 4096;

Task<void> ior_client(core::Deployment& d, Recorder& rec, const Options& opt,
                      size_t i, bool write) {
  const sim::Time due = d.simulation().now();
  co_await stagger(d, opt, write ? 0 : 1, i);
  const uint32_t c = static_cast<uint32_t>(i);
  auto f = co_await rec.open(d.client(i), c, "/ior/f" + std::to_string(i),
                             /*create=*/write, /*read_only=*/!write);
  bool ok = f != nullptr;
  uint64_t done = 0;
  if (f) {
    int64_t mib_start = d.simulation().now();
    for (; done < kIorBytesPerClient; done += kIorCall) {
      if (write) {
        ok = co_await rec.write(*f, c, done, Payload::virtual_bytes(kIorCall));
      } else {
        ok = (co_await rec.read(*f, c, done, kIorCall)).has_value();
      }
      if (!ok) break;
      rec.stream_progress(mib_start, done + kIorCall);
    }
    if (write) ok = co_await rec.fsync(*f, c) && ok;
    ok = co_await rec.close(*f, c) && ok;
  }
  if (done < kIorBytesPerClient) rec.stream_failed(done, kIorBytesPerClient);
  rec.add_unit(d.simulation().now() - due, ok);
}

Task<void> ior_prepare(core::Deployment& d) {
  co_await d.client(0).mkdir("/ior");
}

Task<void> ior_phases(core::Deployment& d, Recorder& rec, const Options& opt,
                      RunOutput& out, bool& done) {
  if (!co_await set_up(d, ior_prepare, out)) co_return;
  open_window(d, opt, out);
  for (const bool write : {true, false}) {
    if (!write) {
      for (size_t i = 0; i < d.client_count(); ++i) d.client(i).drop_caches();
    }
    rec.phase_begin();
    const sim::Time s0 = d.simulation().now();
    const uint64_t wb0 = rec.written(), rb0 = rec.read_bytes();
    sim::WaitGroup wg(d.simulation());
    for (size_t i = 0; i < d.client_count(); ++i) {
      wg.spawn(ior_client(d, rec, opt, i, write));
    }
    co_await wg.wait();
    rec.phase_end();
    Phase p;
    p.name = write ? "write" : "read";
    p.sim_ns = d.simulation().now() - s0;
    p.write_bytes = rec.written() - wb0;
    p.read_bytes = rec.read_bytes() - rb0;
    out.phases.push_back(p);
  }
  close_window(d, opt, out);
  done = true;
}

void run_ior(const Options& opt, RunOutput& out,
             std::unique_ptr<core::Deployment>& dp,
             std::unique_ptr<Recorder>& rp) {
  dp = deploy(testbed(core::Architecture::kPnfs2Tier, kIorClients, opt), opt,
              out);
  core::Deployment& d = *dp;
  rp = std::make_unique<Recorder>(d.simulation(), opt.traced, kIorSliceCalls);
  bool done = false;
  d.simulation().spawn(ior_phases(d, *rp, opt, out, done));
  d.simulation().run();
  if (!done) out.failures.push_back("ior-stream-2tier did not finish");
  out.unit = "pass";
  out.slo_per_mib = true;
  out.slo_ns = kMibSloNs;
  out.data_rpc_bytes = d.config().nfs_client.wsize;
  const uint64_t total = kIorClients * kIorBytesPerClient;
  common_checks(d, *rp, total, total, 0, 0, out);
}

// --- openloop-churn ---------------------------------------------------------

// Open loop on the paper testbed: Poisson sessions at a fixed rate below
// the simulated knee (~330/s), 4-tenant mix, each session OPEN, 4 x 64 KiB
// random I/O (half reads), fsync, CLOSE against its client node's 16 MiB
// file — the whole working set fits in every cache.
constexpr uint32_t kOlClients = 8;
constexpr double kOlRate = 250.0;
// 50 s of arrivals (~12.5k sessions, ~1.3 s of host time): shorter
// repetitions give run.py's per-slice minimum more samples in a run.
constexpr int64_t kOlWindowNs = 50'000'000'000;
constexpr uint32_t kOlOps = 4;
constexpr uint64_t kOlOpBytes = 64 << 10;
constexpr uint64_t kOlFileBytes = 16ull << 20;
// Session sojourn limit (scheduled arrival to completion).
constexpr int64_t kSessionSloNs = 40'000'000;
// Host-timing slice: ~1.2 ms of host time (~1400 slices a run).
constexpr uint64_t kOlSliceCalls = 64;

std::string ol_file(size_t node) { return "/openloop/f" + std::to_string(node); }

struct OpenLoop {
  core::Deployment& d;
  Recorder& rec;
  sim::Time t0 = 0;
  sim::Time last_done = 0;
  uint64_t completed = 0;
  std::vector<uint64_t> rr;  // [0] global, [t] per-tenant round-robin
};

// Tenant-labelled sessions land on a client node stamped with the same
// tenant (nodes carry tenant 1 + i % tenants), so the ledger bills the mix.
size_t pick_node(OpenLoop& ol, uint32_t tenant) {
  const size_t n = ol.d.client_count();
  const uint32_t tenants = ol.d.config().tenants;
  if (tenant != 0 && tenant <= tenants) {
    const size_t stride = (n - (tenant - 1) + tenants - 1) / tenants;
    return (tenant - 1) + (ol.rr[tenant]++ % stride) * tenants;
  }
  return ol.rr[0]++ % n;
}

Task<void> ol_session(OpenLoop& ol, workload::Arrival a, size_t node) {
  util::Rng rng(a.session_seed);
  const uint32_t c = static_cast<uint32_t>(node);
  bool ok = false;
  auto f = co_await ol.rec.open(ol.d.client(node), c, ol_file(node), false);
  if (f) {
    ok = true;
    const uint64_t slots = kOlFileBytes / kOlOpBytes;
    for (uint32_t op = 0; op < kOlOps && ok; ++op) {
      const uint64_t offset = rng.below(slots) * kOlOpBytes;
      if (rng.chance(0.5)) {
        ok = (co_await ol.rec.read(*f, c, offset, kOlOpBytes)).has_value();
      } else {
        ok = co_await ol.rec.write(*f, c, offset,
                                   Payload::virtual_bytes(kOlOpBytes));
      }
    }
    if (ok) ok = co_await ol.rec.fsync(*f, c);
    ok = co_await ol.rec.close(*f, c) && ok;
  }
  const sim::Time now = ol.d.simulation().now();
  ol.rec.add_unit(now - (ol.t0 + a.at), ok);
  ol.last_done = std::max(ol.last_done, now);
  ++ol.completed;
}

// One working-set file per client node.
Task<void> ol_prepare(core::Deployment& d) {
  co_await d.client(0).mkdir("/openloop");
  for (size_t i = 0; i < d.client_count(); ++i) {
    auto f = co_await d.client(i).open(ol_file(i), true);
    for (uint64_t off = 0; off < kOlFileBytes; off += 4 << 20) {
      co_await f->write(off, Payload::virtual_bytes(4 << 20));
    }
    co_await f->close();
  }
}

Task<void> ol_phases(OpenLoop& ol, const Options& opt,
                     std::vector<workload::Arrival> arrivals, RunOutput& out,
                     bool& done) {
  core::Deployment& d = ol.d;
  if (!co_await set_up(d, ol_prepare, out)) co_return;
  open_window(d, opt, out);
  ol.rec.phase_begin();
  const uint64_t wb0 = ol.rec.written(), rb0 = ol.rec.read_bytes();
  ol.t0 = d.simulation().now();
  ol.last_done = ol.t0;
  sim::Duration late = 0;
  sim::WaitGroup wg(d.simulation());
  for (const workload::Arrival& a : arrivals) {
    const sim::Time target = ol.t0 + a.at;
    if (target > d.simulation().now()) {
      co_await d.simulation().delay(target - d.simulation().now());
    }
    late = std::max(late, d.simulation().now() - target);
    wg.spawn(ol_session(ol, a, pick_node(ol, a.tenant)));
  }
  co_await wg.wait();
  ol.rec.phase_end();
  // The generator only ever sleeps until the next arrival, so it can never
  // run late in simulated time; a nonzero lag would mean sessions were
  // offered later than scheduled and the sojourns would understate backlog.
  if (late != 0) out.failures.push_back("generator ran late");
  Phase p;
  p.name = "sessions";
  p.sim_ns = ol.last_done - ol.t0;
  p.write_bytes = ol.rec.written() - wb0;
  p.read_bytes = ol.rec.read_bytes() - rb0;
  out.phases.push_back(p);
  close_window(d, opt, out);
  done = true;
}

void run_openloop(const Options& opt, RunOutput& out,
                  std::unique_ptr<core::Deployment>& dp,
                  std::unique_ptr<Recorder>& rp) {
  core::ClusterConfig cfg =
      testbed(core::Architecture::kDirectPnfs, kOlClients, opt);
  cfg.tenants = 4;
  if (!opt.traced) {
    // Production sampled tracing, as an operator would run it.
    cfg.trace_sample_rate = 0.01;
    cfg.trace_slo_threshold = sim::ms(500);
  }
  workload::OpenLoopConfig ol_cfg;
  ol_cfg.seed = opt.seed;
  ol_cfg.rate_per_sec = kOlRate;
  ol_cfg.duration = kOlWindowNs;
  ol_cfg.tenant_weights = {4, 3, 2, 1};
  std::vector<workload::Arrival> arrivals = workload::generate_arrivals(ol_cfg);

  dp = deploy(cfg, opt, out, /*sampled_when_untraced=*/true);
  core::Deployment& d = *dp;
  rp = std::make_unique<Recorder>(d.simulation(), opt.traced, kOlSliceCalls);
  OpenLoop ol{d, *rp, 0, 0, 0, std::vector<uint64_t>(2 + cfg.tenants, 0)};
  const size_t scheduled = arrivals.size();
  bool done = false;
  d.simulation().spawn(
      ol_phases(ol, opt, std::move(arrivals), out, done));
  d.simulation().run();
  if (!done) out.failures.push_back("openloop-churn did not finish");
  if (ol.completed != scheduled) out.failures.push_back("sessions lost");
  out.unit = "session";
  out.slo_ns = kSessionSloNs;
  out.data_rpc_bytes = kOlOpBytes;
  // Every session op moves exactly kOlOpBytes in one direction.
  const uint64_t moved = rp->requested_write() + rp->requested_read();
  if (moved != static_cast<uint64_t>(scheduled) * kOlOps * kOlOpBytes) {
    out.failures.push_back("session bytes requested");
  }
  common_checks(d, *rp, rp->requested_write(), rp->requested_read(),
                kOlClients * kOlFileBytes, 0, out);
}

// --- ec-degraded --------------------------------------------------------------

// Direct-pNFS over Reed-Solomon EC(4+2): 4 writers populate one 16 MiB file
// each with real bytes, 4 cold clients read them back healthy, one storage
// node (both its data server and its storage daemon) is killed for good,
// and 4 more cold clients read the same files back degraded.
constexpr uint32_t kEcFiles = 4;
constexpr uint64_t kEcBytes = 16ull << 20;
constexpr uint64_t kEcCall = 128 << 10;
constexpr uint32_t kVictim = 1;  // never node 0: it hosts the MDS
constexpr sim::Time kKillAt = sim::sec(10);
// Host-timing slice: ~3 ms of host time (~400 slices a run); each call
// codes or reconstructs real bytes.
constexpr uint64_t kEcSliceCalls = 4;

std::string ec_file(size_t i) { return "/ec/f" + std::to_string(i); }

struct ErasureRun {
  core::Deployment& d;
  Recorder& rec;
  uint64_t mismatches = 0;
};

// The contents of one application call's chunk of file `file`, from the
// seed alone: writers generate it, readers regenerate it to compare, so no
// copy of the files stays resident beside the simulator.
std::vector<std::byte> ec_chunk(uint64_t seed, size_t file, uint64_t offset) {
  util::Rng rng = util::Rng(seed).fork(0xEC00 + file).fork(offset / kEcCall);
  std::vector<std::byte> chunk(kEcCall);
  for (uint64_t off = 0; off < kEcCall; off += 8) {
    const uint64_t v = rng.next();
    std::memcpy(chunk.data() + off, &v, 8);
  }
  return chunk;
}

Task<void> ec_writer(ErasureRun& r, const Options& opt, size_t i) {
  const sim::Time due = r.d.simulation().now();
  co_await stagger(r.d, opt, 0, i);
  const uint32_t c = static_cast<uint32_t>(i);
  auto f = co_await r.rec.open(r.d.client(i), c, ec_file(i), true);
  bool ok = f != nullptr;
  uint64_t done = 0;
  if (f) {
    int64_t mib_start = r.d.simulation().now();
    for (; done < kEcBytes; done += kEcCall) {
      ok = co_await r.rec.write(
          *f, c, done, Payload::inline_bytes(ec_chunk(opt.seed, i, done)));
      if (!ok) break;
      r.rec.stream_progress(mib_start, done + kEcCall);
    }
    ok = co_await r.rec.fsync(*f, c) && ok;
    ok = co_await r.rec.close(*f, c) && ok;
  }
  if (done < kEcBytes) r.rec.stream_failed(done, kEcBytes);
  r.rec.add_unit(r.d.simulation().now() - due, ok);
}

Task<void> ec_reader(ErasureRun& r, const Options& opt, uint64_t phase,
                     size_t client, size_t file) {
  const sim::Time due = r.d.simulation().now();
  co_await stagger(r.d, opt, phase, client);
  const uint32_t c = static_cast<uint32_t>(client);
  auto f = co_await r.rec.open(r.d.client(client), c, ec_file(file), false,
                               /*read_only=*/true);
  bool ok = f != nullptr;
  uint64_t done = 0;
  if (f) {
    int64_t mib_start = r.d.simulation().now();
    for (; done < kEcBytes; done += kEcCall) {
      auto got = co_await r.rec.read(*f, c, done, kEcCall);
      ok = got.has_value();
      if (!ok) break;
      r.rec.stream_progress(mib_start, done + kEcCall);
      const auto span = got->data();
      const std::vector<std::byte> want = ec_chunk(opt.seed, file, done);
      if (span.size() != kEcCall ||
          std::memcmp(span.data(), want.data(), kEcCall) != 0) {
        ++r.mismatches;
      }
    }
    ok = co_await r.rec.close(*f, c) && ok;
  }
  if (done < kEcBytes) r.rec.stream_failed(done, kEcBytes);
  r.rec.add_unit(r.d.simulation().now() - due, ok);
}

Task<void> ec_prepare(core::Deployment& d) { co_await d.client(0).mkdir("/ec"); }

Task<void> ec_phases(ErasureRun& r, const Options& opt, RunOutput& out,
                     bool& done) {
  core::Deployment& d = r.d;
  sim::Simulation& sim = d.simulation();
  if (!co_await set_up(d, ec_prepare, out)) co_return;
  open_window(d, opt, out);
  // Phase 0 populates with clients 0..3, phase 1 reads healthy with cold
  // clients 4..7, phase 2 reads degraded with cold clients 8..11.
  const char* names[] = {"write", "read", "degraded_read"};
  for (uint64_t phase = 0; phase < 3; ++phase) {
    if (phase == 2) {
      if (sim.now() >= kKillAt) {
        out.failures.push_back("healthy phases overran the kill time");
        break;
      }
      co_await sim.delay(kKillAt + sim::ms(500) - sim.now());
    }
    r.rec.phase_begin();
    const sim::Time s0 = sim.now();
    const uint64_t wb0 = r.rec.written(), rb0 = r.rec.read_bytes();
    sim::WaitGroup wg(sim);
    for (size_t i = 0; i < kEcFiles; ++i) {
      if (phase == 0) {
        wg.spawn(ec_writer(r, opt, i));
      } else {
        wg.spawn(ec_reader(r, opt, phase, phase * kEcFiles + i, i));
      }
    }
    co_await wg.wait();
    r.rec.phase_end();
    Phase p;
    p.name = names[phase];
    p.sim_ns = sim.now() - s0;
    p.write_bytes = r.rec.written() - wb0;
    p.read_bytes = r.rec.read_bytes() - rb0;
    out.phases.push_back(p);
  }
  close_window(d, opt, out);
  done = true;
}

void run_ec(const Options& opt, RunOutput& out,
            std::unique_ptr<core::Deployment>& dp,
            std::unique_ptr<Recorder>& rp) {
  core::ClusterConfig cfg =
      testbed(core::Architecture::kDirectPnfs, 3 * kEcFiles, opt);
  cfg.distribution = pvfs::DistKind::kErasure;
  cfg.ec_k = 4;
  cfg.ec_m = 2;
  // Fast-failure client posture for a node that never comes back (as
  // `simulate --fault-ds-kill` sets it): bounded deadlines, a breaker that
  // trips quickly and stays open, fast-failing storage-daemon gathers.
  cfg.nfs_client.ds_timeout = sim::ms(200);
  cfg.nfs_client.ds_rpc_retries = 2;
  cfg.nfs_client.slice_retries = 1;
  cfg.nfs_client.breaker_threshold = 2;
  cfg.nfs_client.breaker_reset = sim::sec(600);
  cfg.nfs_client.mds_timeout = sim::ms(3000);
  cfg.pvfs_client.io_timeout = sim::ms(200);
  cfg.pvfs_client.io_retries = 1;
  cfg.faults.crash_service(kVictim, rpc::kNfsPort, kKillAt, sim::kNever);
  cfg.faults.crash_service(kVictim, rpc::kPvfsIoPort, kKillAt, sim::kNever);

  dp = deploy(cfg, opt, out);
  core::Deployment& d = *dp;
  rp = std::make_unique<Recorder>(d.simulation(), opt.traced, kEcSliceCalls);
  ErasureRun r{d, *rp, 0};
  bool done = false;
  d.simulation().spawn(ec_phases(r, opt, out, done));
  d.simulation().run();
  if (!done) out.failures.push_back("ec-degraded did not finish");
  if (r.mismatches != 0) {
    out.failures.push_back("read-back not byte-identical: " +
                           std::to_string(r.mismatches) + " calls");
  }
  out.unit = "pass";
  out.slo_per_mib = true;
  out.slo_ns = kMibSloNs;
  out.data_rpc_bytes = d.config().nfs_client.wsize;
  out.inline_payload = true;
  out.ec_k = cfg.ec_k;
  out.ec_m = cfg.ec_m;
  out.stripe_unit = cfg.stripe_unit;
  out.kill_at_ns = kKillAt;
  common_checks(d, *rp, kEcFiles * kEcBytes, 2 * kEcFiles * kEcBytes, 0, 0,
                out);
}

}  // namespace

void run_workload(const Options& opt, RunOutput& out,
                  std::unique_ptr<core::Deployment>& deployment,
                  std::unique_ptr<Recorder>& recorder) {
  if (opt.workload == "ior-stream-2tier") {
    run_ior(opt, out, deployment, recorder);
  } else if (opt.workload == "openloop-churn") {
    run_openloop(opt, out, deployment, recorder);
  } else if (opt.workload == "ec-degraded") {
    run_ec(opt, out, deployment, recorder);
  } else {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }
}

}  // namespace perfbench
