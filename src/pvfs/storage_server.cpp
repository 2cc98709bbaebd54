#include "pvfs/storage_server.hpp"

#include "sim/fault.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace dpnfs::pvfs {

using rpc::XdrDecoder;
using rpc::XdrEncoder;
using sim::Task;

namespace {
/// Disk region for the daemon's synchronous journal/metadata updates.
constexpr uint64_t kJournalPosition = 1ull << 50;
constexpr uint32_t kBuffers = 8;  ///< bounded transfer-buffer pool
constexpr sim::Duration kCpuPerRequest = sim::us(450);
constexpr double kCpuNsPerByte = 2.2;

/// CPU charged for one request moving `bytes` of data.
sim::Duration cpu_cost(uint64_t bytes) {
  return kCpuPerRequest +
         static_cast<sim::Duration>(kCpuNsPerByte * static_cast<double>(bytes));
}
}  // namespace

PvfsStorageServer::PvfsStorageServer(rpc::RpcFabric& fabric, sim::Node& node,
                                     uint16_t port, lfs::ObjectStore& store)
    : fabric_(fabric), node_(node), port_(port), store_(store) {
  obs::MetricsRegistry& reg = fabric.metrics();
  const std::string& n = node.name();
  m_requests_ = &reg.counter(n, "pvfs.io", "requests");
  m_bytes_read_ = &reg.counter(n, "pvfs.io", "bytes_read");
  m_bytes_written_ = &reg.counter(n, "pvfs.io", "bytes_written");
  m_commits_ = &reg.counter(n, "pvfs.io", "commits");
  tracer_ = fabric.tracer();
  rpc_server_ = std::make_unique<rpc::RpcServer>(
      fabric, node, port, kBuffers,
      [this](const rpc::CallContext& ctx, XdrDecoder& args,
             XdrEncoder& results) -> Task<void> {
        return serve(ctx, args, results);
      });
}

void PvfsStorageServer::trace_store_op(const rpc::CallContext& ctx,
                                       const char* op, int64_t start,
                                       uint64_t bytes_in, uint64_t bytes_out,
                                       int64_t disk_ns) const {
  if (tracer_ == nullptr || !ctx.trace.valid()) return;
  obs::Span span;
  span.trace_id = ctx.trace.trace_id;
  span.span_id = tracer_->begin(ctx.trace).span_id;
  span.parent_span_id = ctx.trace.span_id;
  span.kind = obs::SpanKind::kInternal;
  span.name = std::string("store/") + op;
  span.node = node_.name();
  span.start = start;
  span.end = node_.simulation().now();
  span.bytes_out = bytes_out;
  span.bytes_in = bytes_in;
  span.disk = disk_ns;
  tracer_->record(std::move(span));
}

void PvfsStorageServer::account_store_op(const rpc::CallContext& ctx,
                                         uint64_t read_bytes,
                                         uint64_t write_bytes,
                                         int64_t disk_ns) const {
  obs::TenantLedger* tenants = fabric_.tenants();
  if (tenants == nullptr) return;
  tenants->account_data(ctx.trace.tenant, read_bytes, write_bytes);
  tenants->account_disk(ctx.trace.tenant, disk_ns);
}

void PvfsStorageServer::check_restart(sim::Time now) {
  const sim::FaultInjector* faults = fabric_.network().faults();
  const uint64_t instance =
      faults ? faults->boot_instance(node_.id(), port_, now) : 1;
  if (instance == boot_instance_) return;
  const bool first_sight = boot_instance_ == 0;
  boot_instance_ = instance;
  boot_verifier_ =
      faults ? faults->boot_verifier(node_.id(), port_, now)
             : (0x9E3779B97F4A7C15ull ^ ((uint64_t{node_.id()} << 16) | port_));
  if (first_sight) return;  // initial adoption, nothing was lost
  // Buffered (uncommitted) writes lived in the dead daemon's memory; the
  // journal preserved object existence and committed bytes.
  store_.drop_dirty();
  store_.drop_caches();
  ++restarts_;
  util::logf(util::LogLevel::kInfo, "pvfs.io", now,
             "%s:%u storage daemon restarted (instance %llu, verifier %016llx)",
             node_.name().c_str(), static_cast<unsigned>(port_),
             static_cast<unsigned long long>(instance),
             static_cast<unsigned long long>(boot_verifier_));
  if (obs::FlightRecorder* flight = fabric_.flight()) {
    flight->record(now, node_.name(), "pvfs.io", "restart",
                   util::sformat("port %u instance %llu verifier %016llx",
                                 static_cast<unsigned>(port_),
                                 static_cast<unsigned long long>(instance),
                                 static_cast<unsigned long long>(
                                     boot_verifier_)));
  }
}

Task<void> PvfsStorageServer::serve(const rpc::CallContext& ctx,
                                    XdrDecoder& args, XdrEncoder& results) {
  check_restart(node_.simulation().now());
  const auto proc = static_cast<IoProc>(ctx.header.proc);
  m_requests_->inc();
  switch (proc) {
    case IoProc::kRead: {
      const uint64_t oid = args.get_u64();
      const uint64_t offset = args.get_u64();
      const uint64_t length = args.get_u64();
      co_await node_.cpu().execute(cpu_cost(length));
      results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
      if (!store_.exists(oid)) {
        results.put_payload(rpc::Payload{});
      } else {
        const int64_t start = node_.simulation().now();
        const uint64_t disk0 = store_.stats().disk_time_ns;
        rpc::Payload data = co_await store_.read(oid, offset, length);
        const auto disk_ns =
            static_cast<int64_t>(store_.stats().disk_time_ns - disk0);
        trace_store_op(ctx, "read", start, 0, data.size(), disk_ns);
        account_store_op(ctx, data.size(), 0, disk_ns);
        m_bytes_read_->add(data.size());
        results.put_payload(data);
      }
      co_return;
    }
    case IoProc::kWrite: {
      const uint64_t oid = args.get_u64();
      const uint64_t offset = args.get_u64();
      rpc::Payload data = args.get_payload();
      co_await node_.cpu().execute(cpu_cost(data.size()));
      m_bytes_written_->add(data.size());
      const uint64_t len = data.size();
      const int64_t start = node_.simulation().now();
      const uint64_t disk0 = store_.stats().disk_time_ns;
      co_await store_.write(oid, offset, std::move(data), /*stable=*/false);
      {
        const auto disk_ns =
            static_cast<int64_t>(store_.stats().disk_time_ns - disk0);
        trace_store_op(ctx, "write", start, len, 0, disk_ns);
        account_store_op(ctx, 0, len, disk_ns);
      }
      results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
      // Buffered write: the verifier tells the client which daemon
      // incarnation holds the volatile bytes (see protocol.hpp).
      results.put_u64(boot_verifier_);
      co_return;
    }
    case IoProc::kReadv: {
      const uint64_t oid = args.get_u64();
      const uint32_t n = args.get_u32();
      if (n == 0 || n > (1u << 20)) {
        results.put_u32(static_cast<uint32_t>(PvfsStatus::kInval));
        co_return;
      }
      std::vector<std::pair<uint64_t, uint64_t>> regions;
      regions.reserve(n);
      uint64_t total = 0, lo = UINT64_MAX, hi = 0;
      for (uint32_t i = 0; i < n; ++i) {
        const uint64_t off = args.get_u64();
        const uint64_t len = args.get_u64();
        regions.emplace_back(off, len);
        total += len;
        lo = std::min(lo, off);
        hi = std::max(hi, off + len);
      }
      co_await node_.cpu().execute(cpu_cost(total));
      results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
      if (!store_.exists(oid)) {
        for (uint32_t i = 0; i < n; ++i) results.put_payload(rpc::Payload{});
        co_return;
      }
      // List I/O's disk-side win: one covering span, one disk pass, sliced
      // per region — instead of one seek-and-read per region.
      const int64_t start = node_.simulation().now();
      const uint64_t disk0 = store_.stats().disk_time_ns;
      rpc::Payload span = co_await store_.read(oid, lo, hi - lo);
      uint64_t out_bytes = 0;
      for (const auto& [off, len] : regions) {
        const uint64_t skip = off - lo;
        const uint64_t avail =
            span.size() > skip ? std::min(len, span.size() - skip) : 0;
        out_bytes += avail;
        results.put_payload(span.slice(skip, avail));
      }
      {
        const auto disk_ns =
            static_cast<int64_t>(store_.stats().disk_time_ns - disk0);
        trace_store_op(ctx, "readv", start, 0, out_bytes, disk_ns);
        account_store_op(ctx, out_bytes, 0, disk_ns);
      }
      m_bytes_read_->add(out_bytes);
      co_return;
    }
    case IoProc::kWritev: {
      const uint64_t oid = args.get_u64();
      const uint32_t n = args.get_u32();
      if (n == 0 || n > (1u << 20)) {
        results.put_u32(static_cast<uint32_t>(PvfsStatus::kInval));
        co_return;
      }
      std::vector<std::pair<uint64_t, uint64_t>> regions;
      regions.reserve(n);
      uint64_t total = 0;
      for (uint32_t i = 0; i < n; ++i) {
        const uint64_t off = args.get_u64();
        const uint64_t len = args.get_u64();
        regions.emplace_back(off, len);
        total += len;
      }
      rpc::Payload data = args.get_payload();
      if (data.size() != total) {
        results.put_u32(static_cast<uint32_t>(PvfsStatus::kInval));
        co_return;
      }
      co_await node_.cpu().execute(cpu_cost(total));
      m_bytes_written_->add(total);
      const int64_t start = node_.simulation().now();
      const uint64_t disk0 = store_.stats().disk_time_ns;
      uint64_t pos = 0;
      for (const auto& [off, len] : regions) {
        co_await store_.write(oid, off, data.slice(pos, len),
                              /*stable=*/false);
        pos += len;
      }
      {
        const auto disk_ns =
            static_cast<int64_t>(store_.stats().disk_time_ns - disk0);
        trace_store_op(ctx, "writev", start, total, 0, disk_ns);
        account_store_op(ctx, 0, total, disk_ns);
      }
      results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
      // One verifier covers every region: they live or die with this
      // daemon incarnation together (see protocol.hpp).
      results.put_u64(boot_verifier_);
      co_return;
    }
    case IoProc::kCommit: {
      const uint64_t oid = args.get_u64();
      m_commits_->inc();
      co_await node_.cpu().execute(kCpuPerRequest);
      const int64_t start = node_.simulation().now();
      const uint64_t disk0 = store_.stats().disk_time_ns;
      co_await store_.commit(oid);
      // The daemon's bstream fdatasync touches the disk even when the
      // object is clean (journal/metadata update).
      const int64_t j0 = node_.simulation().now();
      co_await node_.disk().io(kJournalPosition, 4096);
      {
        const int64_t disk_ns =
            static_cast<int64_t>(store_.stats().disk_time_ns - disk0) +
            (node_.simulation().now() - j0);
        trace_store_op(ctx, "commit", start, 0, 0, disk_ns);
        account_store_op(ctx, 0, 0, disk_ns);
      }
      results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
      // Equal to the verifier of every kWrite it covers iff no restart
      // intervened (mirrors NFS COMMIT semantics).
      results.put_u64(boot_verifier_);
      co_return;
    }
    case IoProc::kGetSize: {
      const uint64_t oid = args.get_u64();
      co_await node_.cpu().execute(kCpuPerRequest);
      results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
      results.put_u64(store_.exists(oid) ? store_.size(oid) : 0);
      co_return;
    }
    case IoProc::kRemove: {
      const uint64_t oid = args.get_u64();
      co_await node_.cpu().execute(kCpuPerRequest);
      if (store_.exists(oid)) store_.remove(oid);
      results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
      co_return;
    }
    case IoProc::kCreate: {
      const uint64_t oid = args.get_u64();
      co_await node_.cpu().execute(kCpuPerRequest);
      if (!store_.exists(oid)) store_.create(oid);
      // Creating a dfile is a synchronous metadata update on the daemon.
      co_await node_.disk().io(kJournalPosition, 4096);
      results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
      co_return;
    }
    case IoProc::kTruncate: {
      const uint64_t oid = args.get_u64();
      const uint64_t size = args.get_u64();
      co_await node_.cpu().execute(kCpuPerRequest);
      if (!store_.exists(oid)) store_.create(oid);
      store_.truncate(oid, size);
      results.put_u32(static_cast<uint32_t>(PvfsStatus::kOk));
      co_return;
    }
  }
  results.put_u32(static_cast<uint32_t>(PvfsStatus::kInval));
}

}  // namespace dpnfs::pvfs
