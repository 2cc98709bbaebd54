#include "nfs/client.hpp"

#include <algorithm>
#include <cassert>
#include <cstdarg>

#include "nfs/compound_reply.hpp"
#include "nfs/writeback.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
#include "util/reed_solomon.hpp"

namespace dpnfs::nfs {

using rpc::Payload;
using sim::Task;

namespace {

constexpr uint32_t kNfsVersion = 4;
constexpr uint16_t kBackchannelPortBase = 4044;

/// Slots this client asks for in CREATE_SESSION.
constexpr uint32_t kSessionSlots = 64;
/// Fixed client CPU per COMPOUND sent.
constexpr sim::Duration kCpuPerRpc = sim::us(8);
/// Client copy/checksum cost, charged once at the syscall boundary and once
/// per RPC carrying data.  Calibrated so one client box sustains ~64 MB/s on
/// the read path (the paper's P3 clients: 8 of them cap warm-cache reads at
/// ~510-530 MB/s aggregate).
constexpr double kCpuNsPerByte = 15.5;
/// Sequential readahead depth, in rsize units.
constexpr uint64_t kReadaheadWindow = 4;

uint64_t round_down(uint64_t v, uint64_t m) { return v / m * m; }
uint64_t round_up(uint64_t v, uint64_t m) { return (v + m - 1) / m * m; }

/// Pads a short READ with `missing` zero bytes: a hole at end-of-file reads
/// as zeros.  Virtual content stays virtual.
void zero_fill(Payload& p, uint64_t missing) {
  if (p.size() == 0 || p.is_inline()) {
    p.append(Payload::inline_bytes(std::vector<std::byte>(missing, std::byte{0})));
  } else {
    p.append(Payload::virtual_bytes(missing));
  }
}

/// The target-space regions `slices` cover, in order.
std::vector<IoRegion> regions_of(std::span<const IoSlice> slices) {
  std::vector<IoRegion> out;
  out.reserve(slices.size());
  for (const IoSlice& s : slices) {
    out.push_back({s.target_offset, static_cast<uint32_t>(s.length)});
  }
  return out;
}

/// Splits "/a/b/c" into ("/a/b", "c").  The parent of "/x" is "/".
std::pair<std::string, std::string> split_parent(const std::string& path) {
  if (path.empty() || path[0] != '/' || path == "/") {
    throw NfsError(Status::kInval, "bad path: " + path);
  }
  const size_t slash = path.find_last_of('/');
  std::string dir = (slash == 0) ? "/" : path.substr(0, slash);
  return {std::move(dir), path.substr(slash + 1)};
}

std::vector<std::string> path_components(const std::string& path) {
  std::vector<std::string> out;
  size_t pos = 1;
  while (pos < path.size()) {
    const size_t next = path.find('/', pos);
    const size_t end = (next == std::string::npos) ? path.size() : next;
    if (end > pos) out.push_back(path.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

}  // namespace

NfsClient::NfsClient(rpc::RpcFabric& fabric, sim::Node& node,
                     rpc::RpcAddress mds, std::string principal,
                     ClientConfig config,
                     std::shared_ptr<const AggregationRegistry> aggregations)
    : fabric_(fabric),
      node_(node),
      mds_(mds),
      rpc_(fabric, node, std::move(principal)),
      config_(config),
      aggregations_(std::move(aggregations)),
      health_(fabric, node.name(), config_.breaker_threshold,
              config_.breaker_reset, stats_.breaker_trips),
      wb_(std::make_unique<WritebackScheduler>(
          fabric, node, mds, config_, stats_,
          [this](WbDispatch& d) { return write_back(d); })) {
  rpc_.set_tenant(config_.tenant_id);
  if (!aggregations_) {
    aggregations_ = std::make_shared<const AggregationRegistry>(
        AggregationRegistry::with_standard_drivers());
  }
  const auto counter = [&](const char* component, const char* name) {
    return &fabric.metrics().counter(node.name(), component, name);
  };
  m_hit_bytes_ = counter("client.cache", "hit_bytes");
  m_miss_bytes_ = counter("client.cache", "miss_bytes");
  m_read_bytes_ = counter("client.cache", "read_bytes");
  m_write_bytes_ = counter("client.cache", "write_bytes");
  m_readahead_fetches_ = counter("client.cache", "readahead_fetches");
  m_rpcs_ = counter("client.cache", "rpcs");
  m_retries_ = counter("client.recovery", "retries");
  m_fallbacks_ = counter("client.recovery", "fallbacks");
  m_layout_refetches_ = counter("client.recovery", "layout_refetches");
  m_rpc_retries_ = counter("client.recovery", "rpc_retries");
  m_devices_flagged_ = counter("client.recovery", "devices_flagged");
  m_verifier_mismatches_ = counter("client.replay", "verifier_mismatches");
  m_replayed_extents_ = counter("client.replay", "replayed_extents");
  m_replayed_bytes_ = counter("client.replay", "replayed_bytes");
  m_session_recoveries_ = counter("client.replay", "session_recoveries");
  m_replica_reroutes_ = counter("client.redundancy", "replica_reroutes");
  m_degraded_reads_ = counter("client.redundancy", "degraded_reads");
  m_degraded_read_bytes_ = counter("client.redundancy", "degraded_read_bytes");
  m_ec_reconstructions_ = counter("client.redundancy", "ec_reconstructions");
  m_degraded_writes_ = counter("client.redundancy", "degraded_writes");
  m_degraded_commits_ = counter("client.redundancy", "degraded_commits");
  // Transport-level retries surface under this client's recovery component.
  rpc_.set_retry_counter(m_rpc_retries_);
}

NfsClient::~NfsClient() = default;

// ---------------------------------------------------------------------------
// Sessions and compound plumbing
// ---------------------------------------------------------------------------

Task<std::shared_ptr<NfsClient::Session>> NfsClient::session_for(
    rpc::RpcAddress addr) {
  while (true) {
    if (auto it = sessions_.find(addr); it != sessions_.end()) {
      co_return it->second;
    }
    if (auto it = session_creating_.find(addr); it != session_creating_.end()) {
      auto latch = it->second;
      co_await latch->wait();
      continue;  // re-check
    }
    auto latch = std::make_shared<sim::Latch>(fabric_.simulation());
    session_creating_.emplace(addr, latch);

    try {
      CompoundBuilder b;
      b.add(OpCode::kExchangeId, ExchangeIdArgs{rpc_.principal()});
      auto raw = co_await rpc_.call(addr, rpc::Program::kNfs, kNfsVersion,
                                    kProcCompound, std::move(b).finish(),
                                    call_options(addr));
      tally(stats_.rpcs, m_rpcs_);
      CompoundReply r1(std::move(raw));
      const auto eid = r1.expect<ExchangeIdRes>(OpCode::kExchangeId);

      // Bind the backchannel to the MDS session only: layouts (the things a
      // server recalls) are granted there.
      uint32_t cb_port = 0;
      if (addr == mds_ && config_.enable_backchannel) {
        start_backchannel();
        if (backchannel_) cb_port = backchannel_->address().port;
      }
      CompoundBuilder b2;
      b2.add(OpCode::kCreateSession,
             CreateSessionArgs{eid.client_id, kSessionSlots, cb_port});
      auto raw2 = co_await rpc_.call(addr, rpc::Program::kNfs, kNfsVersion,
                                     kProcCompound, std::move(b2).finish(),
                                     call_options(addr));
      tally(stats_.rpcs, m_rpcs_);
      CompoundReply r2(std::move(raw2));
      const auto cs = r2.expect<CreateSessionRes>(OpCode::kCreateSession);

      auto session = std::make_shared<Session>();
      session->id = cs.session;
      session->slots = std::make_unique<sim::Semaphore>(
          fabric_.simulation(), std::max<uint32_t>(1, cs.max_slots));
      sessions_[addr] = session;
      session_creating_.erase(addr);
      latch->set();
      co_return session;
    } catch (...) {
      // Wake anyone parked on the latch; they retry (and likely fail the
      // same way) instead of hanging forever on a dead server.
      session_creating_.erase(addr);
      latch->set();
      throw;
    }
  }
}

/// Call policy for `addr`: its deadline (`mds_timeout` for the MDS,
/// `ds_timeout` otherwise; 0 leaves calls unbounded), the transport retry
/// budget, and a backoff of a quarter deadline.
rpc::CallOptions NfsClient::call_options(const rpc::RpcAddress& addr) const {
  rpc::CallOptions opts;
  const sim::Duration t =
      addr == mds_ ? config_.mds_timeout : config_.ds_timeout;
  if (t > 0) {
    opts.timeout = t;
    opts.max_retries = config_.ds_rpc_retries;
    opts.backoff = t / 4;
  }
  return opts;
}

void NfsClient::session_lost(const rpc::RpcAddress& addr,
                             const SessionId& sid) {
  if (auto it = sessions_.find(addr);
      it != sessions_.end() && it->second->id == sid) {
    sessions_.erase(it);
  }
  tally(stats_.session_recoveries, m_session_recoveries_);
  if (addr == mds_) {
    // The MDS restarted: layouts and open stateids it granted died with it.
    // Layouts are re-fetched once per file at the next data-path entry;
    // opens degrade to the anonymous stateid (the revived server holds no
    // open state to match, and CLOSE would only earn a BAD_STATEID).
    for (auto& [ino, f] : files_) {
      if (f->layout) f->layout_stale = true;
      f->server_opens = 0;
      f->open_stateids.clear();
    }
  }
  util::logf(util::LogLevel::kInfo, "nfs.client", fabric_.simulation().now(),
             "session %llu to node %u port %u lost (server restart); "
             "re-establishing",
             static_cast<unsigned long long>(sid.id), addr.node_id,
             static_cast<unsigned>(addr.port));
  note_flight("session.lost", "session %llu node %u port %u",
              static_cast<unsigned long long>(sid.id), addr.node_id,
              static_cast<unsigned>(addr.port));
}

void NfsClient::note_flight(const char* kind, const char* fmt, ...) {
  obs::FlightRecorder* flight = fabric_.flight();
  if (flight == nullptr) return;
  va_list args;
  va_start(args, fmt);
  const std::string detail = util::vsformat(fmt, args);
  va_end(args);
  flight->record(fabric_.simulation().now(), node_.name(), "nfs.client", kind,
                 detail);
}

Task<CompoundReply> NfsClient::call(rpc::RpcAddress addr, Compound compound,
                                    uint64_t data_bytes,
                                    obs::TraceContext trace_parent) {
  // Attempts to revive a session against a restarted server before the
  // BADSESSION/GRACE answer surfaces to the caller as an error.
  constexpr uint32_t kSessionRetries = 3;
  const bool putfh = compound.putfh;
  rpc::XdrEncoder encoded = std::move(compound).finish();
  for (uint32_t attempt = 0;; ++attempt) {
    std::shared_ptr<Session> s = co_await session_for(addr);
    // Every compound starts with SEQUENCE, so the session id sits at a fixed
    // offset: [0,4) op count, [4,8) opcode, [8,16) session id.  Patching it
    // here lets a re-established session re-send the identical compound.
    rpc::XdrEncoder msg = encoded;
    msg.patch_u32(8, static_cast<uint32_t>(s->id.id >> 32));
    msg.patch_u32(12, static_cast<uint32_t>(s->id.id & 0xFFFFFFFFu));
    co_await s->slots->acquire();
    const auto cpu = kCpuPerRpc +
                     static_cast<sim::Duration>(kCpuNsPerByte *
                                                static_cast<double>(data_bytes));
    co_await node_.cpu().execute(cpu);
    tally(stats_.rpcs, m_rpcs_);
    rpc::CallOptions opts = call_options(addr);
    opts.parent = trace_parent;
    auto reply = co_await rpc_.call(addr, rpc::Program::kNfs, kNfsVersion,
                                    kProcCompound, std::move(msg), opts);
    s->slots->release();
    CompoundReply r(std::move(reply));
    const Status seq = r.try_next(OpCode::kSequence);
    if (attempt < kSessionRetries &&
        (seq == Status::kBadSession || seq == Status::kGrace)) {
      session_lost(addr, s->id);
      continue;
    }
    if (seq != Status::kOk) throw NfsError(seq, opcode_name(OpCode::kSequence));
    if (putfh) r.expect(OpCode::kPutFh);
    co_return std::move(r);
  }
}

NfsClient::Compound NfsClient::sequenced(std::optional<FileHandle> fh) {
  Compound b;
  b.add(OpCode::kSequence, SequenceArgs{});  // call() patches in the session
  if (fh) b.add(OpCode::kPutFh, PutFhArgs{*fh});
  b.putfh = fh.has_value();
  return b;
}

// ---------------------------------------------------------------------------
// Mount and path resolution
// ---------------------------------------------------------------------------

Task<void> NfsClient::mount() {
  if (mounted_) co_return;

  Compound b = sequenced();
  b.add(OpCode::kPutRootFh);
  b.add(OpCode::kGetFh);
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  r.expect(OpCode::kPutRootFh);
  root_fh_ = r.expect<GetFhRes>(OpCode::kGetFh).fh;
  dentry_cache_["/"] = root_fh_;

  if (config_.pnfs_enabled) {
    Compound b2 = sequenced();
    b2.add(OpCode::kPutRootFh);
    b2.add(OpCode::kGetDeviceList);
    CompoundReply r2(co_await call(mds_, std::move(b2), 0));
    r2.expect(OpCode::kPutRootFh);
    if (r2.try_next(OpCode::kGetDeviceList) == Status::kOk) {
      const auto res = GetDeviceListRes::decode(r2.dec());
      for (const auto& d : res.devices) {
        devices_[d.device] = rpc::RpcAddress{d.node_id, d.port};
      }
    }
  }
  mounted_ = true;
}

Task<FileHandle> NfsClient::resolve(const std::string& path) {
  if (auto it = dentry_cache_.find(path); it != dentry_cache_.end()) {
    co_return it->second;
  }
  // Deepest cached ancestor.
  const auto comps = path_components(path);
  std::string cur = "/";
  FileHandle cur_fh = root_fh_;
  size_t start = 0;
  {
    std::string probe = "";
    for (size_t i = 0; i < comps.size(); ++i) {
      probe += "/" + comps[i];
      auto it = dentry_cache_.find(probe);
      if (it == dentry_cache_.end()) break;
      cur = probe;
      cur_fh = it->second;
      start = i + 1;
    }
  }
  if (start == comps.size()) co_return cur_fh;

  Compound b = sequenced(cur_fh);
  for (size_t i = start; i < comps.size(); ++i) {
    b.add(OpCode::kLookup, LookupArgs{comps[i]});
    b.add(OpCode::kGetFh);
  }
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  std::string walked = (cur == "/") ? "" : cur;
  FileHandle fh = cur_fh;
  for (size_t i = start; i < comps.size(); ++i) {
    r.expect(OpCode::kLookup);
    fh = r.expect<GetFhRes>(OpCode::kGetFh).fh;
    walked += "/" + comps[i];
    dentry_cache_[walked] = fh;
  }
  co_return fh;
}

void NfsClient::invalidate_dentries(const std::string& prefix) {
  auto it = dentry_cache_.lower_bound(prefix);
  while (it != dentry_cache_.end() && it->first.rfind(prefix, 0) == 0) {
    it = dentry_cache_.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Namespace operations
// ---------------------------------------------------------------------------

void NfsClient::start_backchannel() {
  if (backchannel_) return;
  // Pick the first free port in the backchannel range (several clients may
  // share one simulated node in tests).
  for (uint16_t port = kBackchannelPortBase; port < kBackchannelPortBase + 256;
       ++port) {
    try {
      backchannel_ = std::make_unique<rpc::RpcServer>(
          fabric_, node_, port, /*workers=*/2,
          [this](const rpc::CallContext& ctx, rpc::XdrDecoder& args,
                 rpc::XdrEncoder& results) -> Task<void> {
            return serve_callback(ctx, args, results);
          });
      backchannel_->start();
      return;
    } catch (const std::logic_error&) {
      continue;  // port taken
    }
  }
  util::logf(util::LogLevel::kWarn, "nfs.client", fabric_.simulation().now(),
             "no free backchannel port; layout recalls disabled");
}

Task<void> NfsClient::serve_callback(const rpc::CallContext& ctx,
                                     rpc::XdrDecoder& args,
                                     rpc::XdrEncoder& results) {
  (void)results;
  switch (ctx.header.proc) {
    case kProcCbLayoutRecall: {
      const auto a = CbLayoutRecallArgs::decode(args);
      ++recalls_served_;
      // Flush everything that went through this layout, then drop it;
      // further I/O flows through the MDS (or re-fetches a layout at the
      // next open).  Snapshot the FilePtr before suspending: the flush
      // co_awaits, and a concurrent close + drop_caches can erase map
      // entries out from under a live files_ iterator.
      if (FilePtr file = find_file(a.fh); file && file->layout) {
        for (int round = 0; round < 4; ++round) {
          co_await flush_dirty(file, /*only_full_chunks=*/false, /*wait=*/true);
          co_await commit_unstable(*file);
          if (file->dirty.empty() && file->unstable_targets.empty()) break;
        }
        file->layout.reset();
        util::logf(util::LogLevel::kInfo, "nfs.client",
                   fabric_.simulation().now(), "layout for fileid %llu recalled",
                   static_cast<unsigned long long>(file->attr.fileid));
      }
      co_return;
    }
    case kProcCbRecallDelegation: {
      const auto a = CbRecallDelegationArgs::decode(args);
      ++delegation_recalls_served_;
      if (FilePtr file = find_file(a.fh); file && file->read_delegation) {
        file->read_delegation = false;
        util::logf(util::LogLevel::kInfo, "nfs.client",
                   fabric_.simulation().now(),
                   "read delegation for fileid %llu recalled",
                   static_cast<unsigned long long>(file->attr.fileid));
      }
      co_return;
    }
    default:
      throw NfsError(Status::kNotSupp, "unknown callback procedure");
  }
}

Task<void> NfsClient::truncate(const std::string& path, uint64_t size) {
  const FileHandle fh = co_await resolve(path);
  // Write-back still queued for the file would land after the SETATTR and
  // regrow it: flush and wait first, as Linux nfs_setattr does for a size
  // change.
  if (FilePtr file = find_file(fh)) {
    co_await flush_dirty(file, /*only_full_chunks=*/false, /*wait=*/true);
  }
  Compound b = sequenced(fh);
  b.add(OpCode::kSetattr, SetattrArgs{true, size});
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  r.expect(OpCode::kSetattr);
  // Our own cached view of the file, if any, must shrink too.
  FilePtr file = find_file(fh);
  if (!file) co_return;
  if (size < file->size) {
    const uint64_t valid_before = file->valid.total_length();
    file->valid.subtract(size, ~0ull);
    claim_dirty(*file, size, ~0ull);
    file->content.drop(size, ~0ull);
    // Truncated bytes need no replay either.
    for (auto& [idx, t] : file->commit_targets) {
      t.uncommitted.subtract(size, ~0ull);
    }
    account_valid_delta(
        -static_cast<int64_t>(valid_before - file->valid.total_length()));
  }
  file->size = size;
}

NfsClient::FilePtr NfsClient::find_file(const FileHandle& fh) const {
  for (const auto& [ino, f] : files_) {
    if (f->fh == fh) return f;
  }
  return nullptr;
}

Task<void> NfsClient::mkdir(const std::string& path) {
  const auto [dir, name] = split_parent(path);
  const FileHandle parent = co_await resolve(dir);
  Compound b = sequenced(parent);
  b.add(OpCode::kCreate, CreateArgs{name});
  b.add(OpCode::kGetFh);
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  r.expect(OpCode::kCreate);
  dentry_cache_[path] = r.expect<GetFhRes>(OpCode::kGetFh).fh;
}

Task<void> NfsClient::remove(const std::string& path) {
  const auto [dir, name] = split_parent(path);
  const FileHandle parent = co_await resolve(dir);
  Compound b = sequenced(parent);
  b.add(OpCode::kRemove, RemoveArgs{name});
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  r.expect(OpCode::kRemove);
  invalidate_dentries(path);
}

Task<void> NfsClient::rename(const std::string& from, const std::string& to) {
  const auto [src_dir, old_name] = split_parent(from);
  const auto [dst_dir, new_name] = split_parent(to);
  const FileHandle src = co_await resolve(src_dir);
  const FileHandle dst = co_await resolve(dst_dir);
  Compound b = sequenced(src);
  b.add(OpCode::kSaveFh);
  b.add(OpCode::kPutFh, PutFhArgs{dst});
  b.add(OpCode::kRename, RenameArgs{old_name, new_name});
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  r.expect(OpCode::kSaveFh);
  r.expect(OpCode::kPutFh);
  r.expect(OpCode::kRename);
  invalidate_dentries(from);
  invalidate_dentries(to);
}

Task<std::vector<DirEntry>> NfsClient::readdir(const std::string& path) {
  const FileHandle dir = co_await resolve(path);
  Compound b = sequenced(dir);
  b.add(OpCode::kReaddir);
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  co_return r.expect<ReaddirRes>(OpCode::kReaddir).entries;
}

Task<Fattr> NfsClient::stat(const std::string& path) {
  const FileHandle fh = co_await resolve(path);
  Compound b = sequenced(fh);
  b.add(OpCode::kGetattr);
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  co_return r.expect<GetattrRes>(OpCode::kGetattr).attr;
}

// ---------------------------------------------------------------------------
// Open / close
// ---------------------------------------------------------------------------

bool NfsClient::layout_usable(const FileLayout& l) const {
  // Usable only when the aggregation scheme and every device are known.
  bool ok = l.valid() && aggregations_->find(l.aggregation) != nullptr;
  for (const auto& d : l.devices) ok = ok && devices_.contains(d);
  return ok;
}

Task<NfsClient::FilePtr> NfsClient::open(const std::string& path, bool create,
                                         bool read_only) {
  // Delegation fast path: a held read delegation makes re-opens purely
  // local — no RPC, guaranteed-fresh cache.
  if (!create && read_only) {
    if (auto it = dentry_cache_.find(path); it != dentry_cache_.end()) {
      if (FilePtr f = find_file(it->second); f && f->read_delegation) {
        ++f->open_count;
        f->last_use = ++lru_clock_;
        co_return f;
      }
    }
  }

  const auto [dir, name] = split_parent(path);
  const FileHandle parent = co_await resolve(dir);
  Compound b = sequenced(parent);
  b.add(OpCode::kOpen,
        OpenArgs{name, create,
                 read_only ? ShareAccess::kRead : ShareAccess::kBoth});
  b.add(OpCode::kGetFh);
  if (config_.pnfs_enabled) {
    b.add(OpCode::kLayoutGet,
          LayoutGetArgs{read_only ? LayoutIoMode::kRead
                                  : LayoutIoMode::kReadWrite,
                        0, ~0ull});
  }
  CompoundReply r(co_await call(mds_, std::move(b), 0));
  const auto open_res = r.expect<OpenRes>(OpCode::kOpen);
  const FileHandle fh = r.expect<GetFhRes>(OpCode::kGetFh).fh;

  std::optional<FileLayout> layout;
  if (config_.pnfs_enabled && r.try_next(OpCode::kLayoutGet) == Status::kOk) {
    FileLayout l = LayoutGetRes::decode(r.dec()).layout;
    if (layout_usable(l)) {
      note_layout_flags(open_res.attr.fileid, l);
      layout = std::move(l);
    } else {
      util::logf(util::LogLevel::kWarn, "nfs.client",
                 fabric_.simulation().now(),
                 "layout for %s unusable (driver/devices); falling back to MDS I/O",
                 path.c_str());
    }
  }

  auto it = files_.find(open_res.attr.fileid);
  if (it == files_.end()) {
    auto state = std::make_shared<FileState>();
    state->fh = fh;
    state->stateid = open_res.stateid;
    state->attr = open_res.attr;
    state->size = open_res.attr.size;
    state->layout = std::move(layout);
    state->open_count = 1;
    // server_opens incremented below, with the reopen path.
    it = files_.emplace(open_res.attr.fileid, std::move(state)).first;
  } else {
    FileState& st = *it->second;
    // Close-to-open consistency: cached data from a previous open stays
    // valid only if the server-side file is unchanged.  A held read
    // delegation guarantees freshness without the comparison.
    if (st.open_count == 0 && !st.read_delegation &&
        (open_res.attr.change != st.attr.change ||
         open_res.attr.size != st.size)) {
      invalidate_clean(st);
      st.size = open_res.attr.size;
    }
    st.attr = open_res.attr;
    ++st.open_count;
    st.stateid = open_res.stateid;
    if (!st.layout) st.layout = std::move(layout);
  }
  ++it->second->server_opens;
  it->second->open_stateids.push_back(open_res.stateid);
  if (open_res.delegation == DelegationType::kRead) {
    it->second->read_delegation = true;
  }
  it->second->path = path;
  dentry_cache_[path] = fh;
  co_return it->second;
}

bool NfsClient::file_has_delegation(const FilePtr& file) const {
  return file->read_delegation;
}

Task<void> NfsClient::close(FilePtr file) {
  co_await fsync(file);

  if (file->open_count > 0) --file->open_count;
  // Delegation-elided opens have no server stateid; send CLOSE only while
  // the server holds more opens than we have handles left.
  Fattr fresh = file->attr;
  if (file->server_opens > file->open_count) {
    // Retire the newest still-live OPEN stateid (LIFO).  With concurrent
    // handles on one file the server holds one stateid per OPEN; presenting
    // the same one twice earns NFS4ERR_BAD_STATEID.
    Stateid closing = file->stateid;
    if (!file->open_stateids.empty()) {
      closing = file->open_stateids.back();
      file->open_stateids.pop_back();
      file->stateid =
          file->open_stateids.empty() ? closing : file->open_stateids.back();
    }
    Compound b = sequenced(file->fh);
    b.add(OpCode::kGetattr);  // refresh change/size for close-to-open caching
    b.add(OpCode::kClose, CloseArgs{closing});
    CompoundReply r(co_await call(mds_, std::move(b), 0));
    fresh = r.expect<GetattrRes>(OpCode::kGetattr).attr;
    r.expect(OpCode::kClose);
    --file->server_opens;
  }

  if (file->open_count == 0) {
    // The page cache survives close (Linux semantics): clean data stays for
    // the next open, subject to close-to-open revalidation against these
    // freshly fetched attributes, and to LRU eviction.  If the attributes
    // already show someone else's changes, drop the cache now.
    if (!file->read_delegation && (fresh.change != file->attr.change ||
                                   fresh.size != file->size)) {
      invalidate_clean(*file);
    }
    file->attr = fresh;
    file->size = fresh.size;
    file->expected_seq_offset = 0;
    file->readahead_high = 0;
  }
}

void NfsClient::invalidate_clean(FileState& st) {
  // Pinned ranges (dirty + retained uncommitted writes) survive: dropping a
  // retained range would discard the only copy a restart replay needs.
  const util::IntervalSet pin = st.pinned();
  account_valid_delta(
      -static_cast<int64_t>(st.valid.total_length() - pin.total_length()));
  for (const auto& iv : st.valid.intervals()) {
    for (const auto& clean : pin.gaps(iv.start, iv.end)) {
      st.content.drop(clean.start, clean.end);
    }
  }
  st.valid = pin;
  st.readahead_high = 0;
}

uint64_t NfsClient::file_size(const FilePtr& file) const { return file->size; }

void NfsClient::drop_caches() {
  for (auto it = files_.begin(); it != files_.end();) {
    FileState& st = *it->second;
    if (st.open_count == 0 && st.pinned().empty()) {
      account_valid_delta(-static_cast<int64_t>(st.valid.total_length()));
      dirty_bytes_ -= st.dirty.total_length();
      it = files_.erase(it);
      continue;
    }
    drop_clean(st);
    ++it;
  }
}

bool NfsClient::file_has_layout(const FilePtr& file) const {
  return file->layout.has_value();
}

// ---------------------------------------------------------------------------
// I/O routing
// ---------------------------------------------------------------------------

IoSlice NfsClient::mds_slice(const FileState& f, uint64_t offset,
                             uint64_t length) const {
  // Under a delegation-elided open there is no server-side open stateid;
  // reads ride the anonymous stateid (the delegation stateid, in effect).
  return IoSlice{IoSlice::kMds, mds_, f.fh,
                 f.server_opens > 0 ? f.stateid : kAnonymousStateid, offset,
                 offset, length};
}

IoSlice NfsClient::device_slice(const FileState& f, size_t dev,
                                uint64_t target_offset, uint64_t file_offset,
                                uint64_t length) const {
  return IoSlice{dev, devices_.at(f.layout->devices[dev]), f.layout->fhs[dev],
                 kDataServerStateid, target_offset, file_offset, length};
}

std::vector<IoSlice> NfsClient::route(FileState& f, uint64_t offset,
                                      uint64_t length, bool for_write) {
  std::vector<IoSlice> out;
  if (f.layout) {
    const AggregationDriver* driver = aggregations_->find(f.layout->aggregation);
    assert(driver != nullptr);  // checked at open
    const auto segments = for_write
                              ? driver->map_write(*f.layout, offset, length)
                              : driver->map_read(*f.layout, offset, length);
    out.reserve(segments.size());
    const bool redundant = redundant_aggregation(f.layout->aggregation);
    for (const auto& seg : segments) {
      const uint64_t end = seg.file_offset + seg.length;
      IoSlice slice = device_slice(f, seg.device_index, seg.dev_offset,
                                   seg.file_offset, seg.length);
      slice.parity = seg.parity;
      if (!for_write && redundant &&
          device_unhealthy(f, seg.device_index, seg.file_offset, end,
                           /*reading=*/true)) {
        // Health-aware replica selection: route the read to a surviving
        // copy up front instead of burning retries on a sick device.
        // Erasure-coded layouts have no same-bytes replica; their slices go
        // out unchanged and reconstruct in the ladder's redundant rung.
        size_t step = 1;
        const size_t alt =
            next_replica(f, seg.device_index, &step, seg.file_offset, end);
        if (alt != IoSlice::kMds) {
          slice = device_slice(f, alt, seg.dev_offset, seg.file_offset,
                               seg.length);
          tally(stats_.replica_reroutes, m_replica_reroutes_);
        }
      } else if (config_.mds_fallback && !redundant && !slice.parity &&
                 health_.open(slice.addr)) {
        // Open breaker: don't even try the sick DS, proxy through the MDS.
        // Redundant layouts never take this path — their surviving copies
        // or parity serve the bytes via the degraded rungs instead.
        slice = mds_slice(f, seg.file_offset, seg.length);
        tally(stats_.mds_fallbacks, m_fallbacks_);
        note_flight("mds.fallback", "fileid %llu dev %zu %llu+%llu",
                    static_cast<unsigned long long>(f.attr.fileid),
                    seg.device_index,
                    static_cast<unsigned long long>(seg.file_offset),
                    static_cast<unsigned long long>(seg.length));
      }
      out.push_back(slice);
    }
    return out;
  }
  out.push_back(mds_slice(f, offset, length));
  return out;
}

// ---------------------------------------------------------------------------
// Data-server health and failure recovery
// ---------------------------------------------------------------------------

void NfsClient::note_layout_flags(uint64_t fileid, const FileLayout& l) {
  if (l.unavailable.empty()) return;
  tally(stats_.devices_flagged, m_devices_flagged_, l.unavailable.size());
  std::string ids;
  for (const DeviceId& d : l.unavailable) {
    ids += (ids.empty() ? "" : ",") + std::to_string(d.id);
  }
  note_flight("layout.flagged", "fileid %llu unavailable devices %s",
              static_cast<unsigned long long>(fileid), ids.c_str());
}

Task<void> NfsClient::refetch_layout(FileState& f, bool force) {
  if (!config_.pnfs_enabled || !f.layout) co_return;
  const sim::Time now = fabric_.simulation().now();
  if (!force && f.layout_refetched_at >= 0 &&
      now - f.layout_refetched_at < health_.reset()) {
    co_return;  // refreshed recently; don't hammer the MDS per failed slice
  }
  f.layout_refetched_at = now;
  tally(stats_.layout_refetches, m_layout_refetches_);
  note_flight("layout.refetch", "fileid %llu%s",
              static_cast<unsigned long long>(f.attr.fileid),
              force ? " forced" : "");
  try {
    Compound b = sequenced(f.fh);
    b.add(OpCode::kLayoutGet,
          LayoutGetArgs{LayoutIoMode::kReadWrite, 0, ~0ull});
    CompoundReply r(co_await call(mds_, std::move(b), 0));
    if (r.try_next(OpCode::kLayoutGet) == Status::kOk) {
      FileLayout l = LayoutGetRes::decode(r.dec()).layout;
      if (layout_usable(l)) {
        note_layout_flags(f.attr.fileid, l);
        f.layout = std::move(l);
      }
    }
  } catch (const NfsError&) {
    // Keep the stale layout; per-slice fallback still makes progress.
  }
}

Task<void> NfsClient::ensure_layout_fresh(FileState& f) {
  if (!f.layout_stale) co_return;
  // Exactly one LAYOUTGET per stale file, even if the refresh fails (the
  // stale layout then keeps serving; per-slice recovery handles fallout).
  f.layout_stale = false;
  co_await refetch_layout(f, /*force=*/true);
}

void NfsClient::note_unstable_write(FileState& f, const IoSlice& slice,
                                    uint64_t verifier) {
  f.unstable_targets.insert(slice.device_index);
  auto& t = f.commit_targets[slice.device_index];
  if (t.verifier_known && t.verifier != verifier) {
    // The target restarted between two of our WRITEs: everything retained
    // under the old verifier sat in volatile memory of the dead incarnation.
    // Re-dirty it now — minus the range this WRITE just (re)covered.
    t.uncommitted.subtract(slice.file_offset,
                           slice.file_offset + slice.length);
    redirty_lost(f, slice.device_index);
  }
  t.verifier_known = true;
  t.verifier = verifier;
  t.uncommitted.add(slice.file_offset, slice.file_offset + slice.length);
}

void NfsClient::redirty_lost(FileState& f, size_t target) {
  auto it = f.commit_targets.find(target);
  tally(stats_.verifier_mismatches, m_verifier_mismatches_);
  if (it == f.commit_targets.end() || it->second.uncommitted.empty()) return;
  uint64_t bytes = 0;
  uint64_t extents = 0;
  for (const auto& iv : it->second.uncommitted.intervals()) {
    mark_dirty(f, iv.start, iv.end);
    bytes += iv.length();
    ++extents;
  }
  it->second.uncommitted.clear();
  tally(stats_.replayed_extents, m_replayed_extents_, extents);
  tally(stats_.replayed_bytes, m_replayed_bytes_, bytes);
  if (obs::Tracer* tracer = fabric_.tracer(); tracer && tracer->enabled()) {
    obs::TraceContext ctx = tracer->begin({});
    obs::Span span;
    span.trace_id = ctx.trace_id;
    span.span_id = ctx.span_id;
    span.kind = obs::SpanKind::kInternal;
    span.name = "wb.replay/" +
                (target == IoSlice::kMds ? std::string("mds")
                                         : "dev" + std::to_string(target));
    span.node = node_.name();
    span.start = fabric_.simulation().now();
    span.end = fabric_.simulation().now();
    span.bytes_out = bytes;
    tracer->record(std::move(span));
  }
  note_flight("wb.replay", "fileid %llu target %lld %llu bytes %llu extents",
              static_cast<unsigned long long>(f.attr.fileid),
              static_cast<long long>(static_cast<int64_t>(target)),
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(extents));
  util::logf(util::LogLevel::kWarn, "nfs.client", fabric_.simulation().now(),
             "write verifier changed for fileid %llu target %lld: replaying "
             "%llu bytes in %llu extents",
             static_cast<unsigned long long>(f.attr.fileid),
             static_cast<long long>(static_cast<int64_t>(target)),
             static_cast<unsigned long long>(bytes),
             static_cast<unsigned long long>(extents));
}

// ---------------------------------------------------------------------------
// Redundancy: replica reroute, degraded reads, erasure reconstruction
// ---------------------------------------------------------------------------

namespace {

/// The contiguous device-index span [base, base+count) holding the same
/// bytes as device `avoid` under a mirror-style layout.  False for layouts
/// without same-bytes replicas (erasure coding reconstructs instead).
bool replica_span(const FileLayout& l, size_t avoid, size_t* base,
                  size_t* count) {
  switch (l.aggregation) {
    case AggregationType::kReplicated:
      *base = 0;
      *count = l.devices.size();
      return true;
    case AggregationType::kNested: {
      if (l.params.empty() || l.params[0] == 0) return false;
      const size_t g = static_cast<size_t>(l.params[0]);
      *base = avoid / g * g;
      *count = g;
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

bool NfsClient::device_unhealthy(const FileState& f, size_t device,
                                 uint64_t start, uint64_t end,
                                 bool reading) const {
  if (!f.layout || device >= f.layout->devices.size()) return false;
  const DeviceId id = f.layout->devices[device];
  const auto it = devices_.find(id);
  if (it == devices_.end()) return true;
  if (health_.open(it->second)) return true;
  const auto& down = f.layout->unavailable;
  if (reading && std::find(down.begin(), down.end(), id) != down.end()) {
    return true;
  }
  const auto d = f.degraded.find(device);
  return d != f.degraded.end() && d->second.intersects(start, end);
}

size_t NfsClient::next_replica(const FileState& f, size_t home, size_t* step,
                               uint64_t start, uint64_t end) const {
  size_t base = 0;
  size_t count = 0;
  if (!f.layout || !replica_span(*f.layout, home, &base, &count)) {
    return IoSlice::kMds;
  }
  // Rotate from the home device so concurrent degraded readers spread
  // across the surviving copies.  Replicas hold the same bytes at the same
  // device offset.  Health is judged as the walk reaches each candidate.
  while (*step < count) {
    const size_t cand = base + ((home - base) + (*step)++) % count;
    if (cand < f.layout->devices.size() &&
        !device_unhealthy(f, cand, start, end, /*reading=*/true)) {
      return cand;
    }
  }
  return IoSlice::kMds;
}

Task<bool> NfsClient::ec_reconstruct_block(FileState& f, const IoSlice& slice,
                                           Payload& block) {
  const auto geo = EcGeometry::from(*f.layout);
  if (!geo) co_return false;
  const uint64_t stripe = slice.file_offset / geo->su;
  const uint64_t grp = stripe / geo->k;

  // Reed-Solomon codes each byte position of a stripe group on its own, so
  // the slice's bytes decode from the same byte range of k other shards.
  // Every shard of group g — data and parity alike — sits at device offset
  // g*su; short reads zero-fill, matching the zero padding the writer
  // encoded over.  k fetchers run at once, each walking the devices in
  // order from a shared cursor and moving on only when its read fails: at
  // most k shards are held, and they are the first k devices that answer —
  // the set a one-at-a-time walk gathers.
  struct Gather {
    size_t want = 0;
    uint64_t grp_start = 0;
    uint64_t in_block = 0;
    size_t next_dev = 0;
    uint64_t have = 0;
    std::vector<std::optional<std::vector<std::byte>>> shards;
  } g;
  g.want = static_cast<size_t>(stripe % geo->k);
  g.grp_start = grp * geo->group_bytes();
  g.in_block = slice.file_offset % geo->su;
  g.shards.resize(static_cast<size_t>(geo->k + geo->m));
  sim::WaitGroup wg(fabric_.simulation());
  for (uint64_t i = 0; i < geo->k; ++i) {
    wg.spawn([](NfsClient& self, FileState& f, EcGeometry geo, uint64_t grp,
                uint64_t len, Gather& g) -> Task<void> {
      while (g.next_dev < g.shards.size()) {
        const size_t dev = g.next_dev++;
        if (dev == g.want ||
            self.device_unhealthy(f, dev, g.grp_start,
                                  g.grp_start + geo.group_bytes(),
                                  /*reading=*/true)) {
          continue;
        }
        const uint64_t shard_file_offset =
            dev < geo.k ? g.grp_start + dev * geo.su : g.grp_start;
        const IoSlice sh =
            self.device_slice(f, dev, grp * geo.su + g.in_block,
                              shard_file_offset + g.in_block, len);
        try {
          Payload p;
          co_await self.read_slice_op(sh, p);
          self.health_.record(sh.addr, true);
          // Virtual payloads carry no bytes: they code as zeros.
          const auto span = p.data();
          std::vector<std::byte> bytes(static_cast<size_t>(len), std::byte{0});
          std::copy(span.begin(), span.end(), bytes.begin());
          g.shards[dev] = std::move(bytes);
          ++g.have;
          co_return;
        } catch (const NfsError&) {
          self.health_.record(sh.addr, false);
        }
      }
    }(*this, f, *geo, grp, slice.length, g));
  }
  co_await wg.wait();
  if (g.have < geo->k) co_return false;

  util::ReedSolomon rs(static_cast<uint32_t>(geo->k),
                       static_cast<uint32_t>(geo->m));
  if (!rs.reconstruct(&g.shards) || !g.shards[g.want]) co_return false;
  block = Payload::inline_bytes(std::move(*g.shards[g.want]));
  tally(stats_.ec_reconstructions, m_ec_reconstructions_);
  co_return true;
}

Task<bool> NfsClient::degraded_read(FileState& f, IoSlice slice, Payload& out) {
  if (!f.layout || !redundant_aggregation(f.layout->aggregation)) {
    co_return false;
  }
  const size_t home = slice.device_index;
  bool served = false;
  if (f.layout->aggregation == AggregationType::kErasureCoded) {
    // Reconstruct su-block by su-block: a merged slice can span several
    // stripes of the home device.
    const auto geo = EcGeometry::from(*f.layout);
    if (!geo) co_return false;
    Payload assembled;
    uint64_t pos = slice.file_offset;
    const uint64_t end = pos + slice.length;
    while (pos < end) {
      const uint64_t take = std::min(geo->su - pos % geo->su, end - pos);
      IoSlice sub = slice;
      sub.file_offset = pos;
      sub.length = take;
      Payload piece;
      if (!co_await ec_reconstruct_block(f, sub, piece)) co_return false;
      assembled.append(std::move(piece));
      pos += take;
    }
    out = std::move(assembled);
    served = true;
  } else {
    const uint64_t end = slice.file_offset + slice.length;
    size_t step = 1;
    while (!served) {
      const size_t cand =
          next_replica(f, home, &step, slice.file_offset, end);
      if (cand == IoSlice::kMds) break;
      const IoSlice alt = device_slice(f, cand, slice.target_offset,
                                       slice.file_offset, slice.length);
      try {
        co_await read_slice_op(alt, out);
        health_.record(alt.addr, true);
        served = true;
      } catch (const NfsError&) {
        health_.record(alt.addr, false);
      }
    }
  }
  if (!served) co_return false;
  tally(stats_.degraded_reads, m_degraded_reads_);
  tally(stats_.degraded_read_bytes, m_degraded_read_bytes_, slice.length);
  note_flight("degraded.read", "fileid %llu dev %zu %llu+%llu",
              static_cast<unsigned long long>(f.attr.fileid), home,
              static_cast<unsigned long long>(slice.file_offset),
              static_cast<unsigned long long>(slice.length));
  co_return true;
}

uint64_t NfsClient::covered_end(const FileState& f, const IoSlice& slice) {
  uint64_t span = slice.length;
  if (slice.parity && f.layout) {
    if (const auto geo = EcGeometry::from(*f.layout)) span *= geo->k;
  }
  return slice.file_offset + span;
}

void NfsClient::note_degraded_write(FileState& f, const IoSlice& slice) {
  // A lost parity block degrades the whole stripe group it covers: any
  // reconstruction sourcing this device over those file bytes would mix
  // stale parity with fresh data.
  const uint64_t end = covered_end(f, slice);
  f.degraded[slice.device_index].add(slice.file_offset, end);
  tally(stats_.degraded_writes, m_degraded_writes_);
  note_flight("degraded.write", "fileid %llu dev %zu %llu+%llu%s",
              static_cast<unsigned long long>(f.attr.fileid),
              slice.device_index,
              static_cast<unsigned long long>(slice.file_offset),
              static_cast<unsigned long long>(end - slice.file_offset),
              slice.parity ? " parity" : "");
  util::logf(util::LogLevel::kWarn, "nfs.client", fabric_.simulation().now(),
             "degraded write: fileid %llu dev %zu [%llu, %llu) absorbed by "
             "surviving redundancy",
             static_cast<unsigned long long>(f.attr.fileid),
             slice.device_index,
             static_cast<unsigned long long>(slice.file_offset),
             static_cast<unsigned long long>(end));
}

void NfsClient::note_degraded_commit(FileState& f, size_t device_index) {
  if (auto it = f.commit_targets.find(device_index);
      it != f.commit_targets.end()) {
    for (const auto& iv : it->second.uncommitted.intervals()) {
      f.degraded[device_index].add(iv.start, iv.end);
    }
    f.commit_targets.erase(it);
  }
  tally(stats_.degraded_commits, m_degraded_commits_);
  note_flight("degraded.commit", "fileid %llu dev %zu",
              static_cast<unsigned long long>(f.attr.fileid), device_index);
}

Task<void> NfsClient::read_slice_op(const IoSlice& slice, Payload& out) {
  // A short reply means one of two things, and they need opposite handling:
  // EOF on the stripe object (a hole — the missing tail genuinely reads as
  // zeros) vs. a mid-object short READ (the server returned fewer bytes than
  // exist — re-issue for the missing tail, never fabricate zeros).
  Payload got;
  bool eof = false;
  while (got.size() < slice.length && !eof) {
    const uint64_t want = slice.length - got.size();
    Compound b = sequenced(slice.fh);
    b.add(OpCode::kRead, ReadArgs{slice.stateid,
                                  slice.target_offset + got.size(),
                                  static_cast<uint32_t>(want)});
    CompoundReply r(co_await call(slice.addr, std::move(b), want));
    auto res = r.expect<ReadRes>(OpCode::kRead);
    if (res.data.size() > want) {
      throw NfsError(Status::kIo, "overlong READ reply");
    }
    if (res.data.size() == 0 && !res.eof) {
      throw NfsError(Status::kIo, "zero-byte READ reply before EOF");
    }
    eof = res.eof;
    got.append(std::move(res.data));
  }
  if (got.size() < slice.length) zero_fill(got, slice.length - got.size());
  out = std::move(got);
}

Task<void> NfsClient::read_vector_op(const std::vector<IoSlice>& slices,
                                     std::vector<Payload>& out) {
  const IoSlice& first = slices.front();
  uint64_t total = 0;
  for (const IoSlice& sl : slices) total += sl.length;
  Compound b = sequenced(first.fh);
  ReadArgs a{first.stateid, regions_of(slices)};
  b.add(a.opcode(), a);
  CompoundReply r(co_await call(first.addr, std::move(b), total));
  auto res = r.expect<ReadvRes>(OpCode::kReadv);
  if (res.lengths.size() != slices.size()) {
    throw NfsError(Status::kIo, "READV reply region count mismatch");
  }
  ++stats_.vectored_reads;
  std::vector<Payload> got(slices.size());
  uint64_t pos = 0;
  for (size_t i = 0; i < slices.size(); ++i) {
    const uint64_t n = res.lengths[i];
    if (n > slices[i].length) {
      throw NfsError(Status::kIo, "overlong READV region");
    }
    got[i] = res.data.slice(pos, n);
    pos += n;
    if (n == slices[i].length) continue;
    if (res.eof && i + 1 == slices.size()) {
      zero_fill(got[i], slices[i].length - n);
    } else {
      // Short region that is not the EOF tail: re-issue it alone —
      // read_slice_op distinguishes mid-object short READs from holes.
      IoSlice tail = slices[i];
      tail.target_offset += n;
      tail.file_offset += n;
      tail.length -= n;
      Payload rest;
      co_await read_slice_op(tail, rest);
      got[i].append(std::move(rest));
    }
  }
  out = std::move(got);
}

Task<void> NfsClient::write_vector_op(FileState& f,
                                      std::span<const IoSlice> slices,
                                      Payload data,
                                      obs::TraceContext trace_parent) {
  const IoSlice& first = slices.front();
  const uint64_t total = data.size();
  Compound b = sequenced(first.fh);
  WriteArgs a{first.stateid, regions_of(slices), StableHow::kUnstable,
              std::move(data)};
  const OpCode op = a.opcode();
  b.add(op, a);
  CompoundReply r(
      co_await call(first.addr, std::move(b), total, trace_parent));
  const auto res = r.expect<WriteRes>(op);
  if (res.committed == StableHow::kUnstable) {
    // The reply's single verifier covers every region of the list.
    for (const IoSlice& sl : slices) note_unstable_write(f, sl, res.verifier);
  }
  // MDS-path writes move the file's change attribute; track it so our own
  // I/O does not look like someone else's at revalidation time.
  if (first.device_index == IoSlice::kMds && res.post_change != 0) {
    f.attr.change = std::max(f.attr.change, res.post_change);
  }
}

Task<void> NfsClient::commit_op(const IoSlice& target, uint64_t* verifier) {
  Compound b = sequenced(target.fh);
  b.add(OpCode::kCommit, CommitArgs{0, 0});
  CompoundReply r(co_await call(target.addr, std::move(b), 0));
  const uint64_t v = r.expect<CommitRes>(OpCode::kCommit).verifier;
  if (verifier != nullptr) *verifier = v;
}

template <typename Attempt, typename Redundant>
Task<void> NfsClient::run_ladder(FileState& f, IoSlice slice,
                                 StatusCollector& errors, Attempt attempt,
                                 Redundant redundant, LadderOp op) {
  const bool data_op = op != LadderOp::kCommit;
  const bool via_ds = slice.device_index != IoSlice::kMds;
  const bool has_redundancy =
      via_ds && f.layout && redundant_aggregation(f.layout->aggregation);
  // Known-unhealthy home device (open breaker, a degraded range a dead
  // incarnation never received, or — for reads — a device the layout marks
  // unavailable): go straight to the surviving redundancy instead of
  // burning the retry budget.
  if (data_op && has_redundancy &&
      device_unhealthy(f, slice.device_index, slice.file_offset,
                       slice.file_offset + slice.length,
                       op == LadderOp::kRead) &&
      co_await redundant(slice)) {
    co_return;
  }
  Status fail = Status::kOk;
  for (uint32_t tries = 0;; ++tries) {
    try {
      co_await attempt(slice);
      if (via_ds) health_.record(slice.addr, true);
      co_return;
    } catch (const NfsError& e) {
      fail = e.status();  // recover outside the handler (it cannot co_await)
    }
    if (!via_ds) {
      errors.record(fail);
      co_return;
    }
    health_.record(slice.addr, false);
    if (tries >= config_.slice_retries || health_.open(slice.addr)) break;
    tally(stats_.recovery_retries, m_retries_);  // same DS, next attempt
  }
  // Redundant rung: a surviving replica, k-of-n reconstruction, or the
  // redundancy absorbing the loss serves the slice without the home DS —
  // and without the MDS.
  if (has_redundancy && co_await redundant(slice)) co_return;
  // Parity payloads are derived bytes: proxying them through the MDS would
  // overwrite file content with parity.
  if (slice.parity || !config_.mds_fallback) {
    errors.record(fail);
    co_return;
  }
  // MDS rung: refresh the layout for future routing decisions, then reissue
  // the byte range through the MDS — the plain-NFSv4 path.
  if (data_op) co_await refetch_layout(f);
  tally(stats_.mds_fallbacks, m_fallbacks_);
  const IoSlice via_mds = mds_slice(f, slice.file_offset, slice.length);
  try {
    co_await attempt(via_mds);
  } catch (const NfsError& e) {
    errors.record(e.status());
  }
}

Task<void> NfsClient::read_ladder(FileState& f, IoSlice slice, Payload& out,
                                  StatusCollector& errors) {
  return run_ladder(
      f, slice, errors,
      [this, &out](const IoSlice& s) { return read_slice_op(s, out); },
      [this, &f, &out](const IoSlice& s) { return degraded_read(f, s, out); },
      LadderOp::kRead);
}

Task<void> NfsClient::write_ladder(FileState& f, IoSlice slice, Payload piece,
                                   StatusCollector& errors,
                                   obs::TraceContext trace_parent) {
  return run_ladder(
      f, slice, errors,
      [this, &f, piece = std::move(piece), trace_parent](const IoSlice& s) {
        return write_vector_op(f, {&s, 1}, piece, trace_parent);
      },
      // Surviving redundancy absorbs the loss: record the device's stale
      // range so reads route around it, and succeed without it.
      [this, &f](const IoSlice& s) -> Task<bool> {
        note_degraded_write(f, s);
        co_return true;
      },
      LadderOp::kWrite);
}

Task<void> NfsClient::commit_ladder(FileState& f, size_t device_index,
                                    StatusCollector& errors,
                                    uint64_t* verifier) {
  // An MDS COMMIT flushes the whole file through the parallel FS — a
  // superset of the stripe commit that failed.  The MDS verifier never
  // matches the DS verifier recorded at WRITE time, so the caller replays
  // the retained extents — conservative but safe when the DS's fate is
  // unknown.
  const IoSlice target = device_index != IoSlice::kMds && f.layout
                             ? device_slice(f, device_index, 0, 0, 0)
                             : mds_slice(f, 0, 0);
  return run_ladder(
      f, target, errors,
      [this, verifier](const IoSlice& s) { return commit_op(s, verifier); },
      // The target is gone and its volatile bytes with it; the surviving
      // redundancy holds the data, and dropping the target lets fsync
      // converge.
      [this, &f](const IoSlice& s) -> Task<bool> {
        note_degraded_commit(f, s.device_index);
        co_return true;
      },
      LadderOp::kCommit);
}

template <typename Whole, typename Region>
Task<void> NfsClient::run_vector(const std::vector<IoSlice>& slices,
                                 Whole whole, Region region, bool concurrent) {
  if (slices.size() == 1) {
    co_await region(0);
    co_return;
  }
  const IoSlice& first = slices.front();
  const bool via_ds = first.device_index != IoSlice::kMds;
  try {
    co_await whole();
    if (via_ds) health_.record(first.addr, true);
    co_return;
  } catch (const NfsError&) {
    if (via_ds) health_.record(first.addr, false);
  }
  // Degrade region by region: each slice gets the full ladder (same-DS
  // retries, layout refetch, MDS fallback) and its own error slot.
  if (concurrent) {
    sim::WaitGroup wg(fabric_.simulation());
    for (size_t i = 0; i < slices.size(); ++i) wg.spawn(region(i));
    co_await wg.wait();
  } else {
    for (size_t i = 0; i < slices.size(); ++i) co_await region(i);
  }
}

Task<Payload> NfsClient::read_slices(FileState& f, uint64_t offset,
                                     uint64_t length) {
  co_await ensure_layout_fresh(f);
  const auto slices = route(f, offset, length, /*for_write=*/false);
  std::vector<Payload> results(slices.size());
  StatusCollector errors;
  sim::WaitGroup wg(fabric_.simulation());
  for (size_t i = 0; i < slices.size(); ++i) {
    wg.spawn(read_ladder(f, slices[i], results[i], errors));
  }
  co_await wg.wait();
  errors.throw_if_failed("READ");

  Payload assembled;
  for (auto& piece : results) assembled.append(std::move(piece));
  tally(stats_.wire_read_bytes, m_miss_bytes_, assembled.size());
  co_return assembled;
}

Task<void> NfsClient::write_slices(FileState& f, uint64_t offset,
                                   const Payload& data) {
  co_await ensure_layout_fresh(f);
  const auto slices = route(f, offset, data.size(), /*for_write=*/true);
  StatusCollector errors;
  sim::WaitGroup wg(fabric_.simulation());
  for (const auto& slice : slices) {
    Payload piece = data.slice(slice.file_offset - offset, slice.length);
    wg.spawn(write_ladder(f, slice, std::move(piece), errors));
  }
  co_await wg.wait();
  errors.throw_if_failed("WRITE");
  stats_.wire_write_bytes += data.size();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

Task<Payload> NfsClient::read(FilePtr file, uint64_t offset, uint64_t length) {
  file->last_use = ++lru_clock_;
  if (offset >= file->size || length == 0) co_return Payload{};
  const uint64_t end = std::min(file->size, offset + length);
  const uint64_t want = end - offset;

  co_await node_.cpu().execute(static_cast<sim::Duration>(
      kCpuNsPerByte * static_cast<double>(want)));

  if (!config_.data_cache) {
    Payload p = co_await read_slices(*file, offset, want);
    tally(stats_.bytes_read, m_read_bytes_, p.size());
    // No readahead: without a cache there is nowhere to put its data.
    co_return p;
  }

  // Fill the gaps; wait out any overlapping in-flight fetches (readahead or
  // a concurrent reader).  A read that never issues its own fetch counts as
  // a cache hit — it was served by the cache or by readahead it piggybacked.
  bool fetched = false;
  while (true) {
    const auto gaps = file->valid.gaps(offset, end);
    if (gaps.empty()) break;
    auto latch = find_inflight_overlap(*file, gaps.front().start,
                                       gaps.front().end);
    if (latch != nullptr) {
      co_await latch->wait();
      continue;
    }
    fetched = true;
    // Fetch every missing piece of the span in one call: fetch_range walks
    // the gaps itself and, with list I/O on, folds strided misses bound for
    // the same server into vectored READs.
    co_await fetch_range(file, gaps.front().start, gaps.back().end);
  }
  if (!fetched) {
    tally(stats_.cache_hit_bytes, m_hit_bytes_, want);
  }

  Payload out = file->content.load(offset, want);
  tally(stats_.bytes_read, m_read_bytes_, out.size());

  // Sequential readahead.  Extensions are quantized to whole rsize chunks
  // so the wire sees rsize-sized READs, not request-sized dribbles.
  if (offset == file->expected_seq_offset) {
    const uint64_t target =
        std::min<uint64_t>(file->size, end + kReadaheadWindow * config_.rsize);
    const uint64_t from = std::max(end, file->readahead_high);
    if (target > from && (target - from >= config_.rsize || target == file->size)) {
      file->readahead_high = target;
      fabric_.simulation().spawn(readahead(file, from, target));
    }
  }
  file->expected_seq_offset = end;
  co_return out;
}

Task<void> NfsClient::readahead(FilePtr file, uint64_t from, uint64_t to) {
  // The file can shrink (truncate) between scheduling and execution; clamp
  // to the server-reported size so readahead never issues a READ that is
  // guaranteed to come back empty.
  to = std::min(to, file->size);
  if (from >= to) co_return;
  try {
    const uint64_t fetched = co_await fetch_range(file, from, to);
    // Count only readaheads that really hit the wire; ranges that were
    // already cached or in flight are not fetches.
    if (fetched > 0) tally(stats_.readahead_fetches, m_readahead_fetches_);
  } catch (const NfsError&) {
    // Readahead failures are harmless; the demand read will retry and
    // surface the error.
  }
}

std::shared_ptr<sim::Latch> NfsClient::find_inflight_overlap(FileState& f,
                                                             uint64_t start,
                                                             uint64_t end) {
  auto it = f.inflight.lower_bound(start);
  if (it != f.inflight.begin()) {
    auto prev = std::prev(it);
    if (prev->second.first > start) return prev->second.second;
  }
  if (it != f.inflight.end() && it->first < end) return it->second.second;
  return nullptr;
}

Task<uint64_t> NfsClient::fetch_range(FilePtr file, uint64_t start,
                                      uint64_t end) {
  // Demand fetches are page-granular (like the Linux page cache); only the
  // readahead path asks for ranges big enough to fill rsize-sized READs.
  start = round_down(start, kPageBytes);
  end = std::min(round_up(end, kPageBytes), file->size);
  if (start >= end) co_return 0;

  struct Fetch {
    uint64_t start;
    uint64_t len;
    std::shared_ptr<sim::Latch> latch;
  };
  std::vector<Fetch> fetches;
  for (const auto& gap : file->valid.gaps(start, end)) {
    // Skip parts someone else is already fetching; our caller re-checks and
    // waits on their latch.
    uint64_t pos = gap.start;
    while (pos < gap.end) {
      uint64_t piece_end = gap.end;
      auto it = file->inflight.lower_bound(pos);
      if (it != file->inflight.begin() && std::prev(it)->second.first > pos) {
        pos = std::prev(it)->second.first;  // inside an in-flight range
        continue;
      }
      if (it != file->inflight.end() && it->first < piece_end) {
        piece_end = it->first;
      }
      if (piece_end <= pos) break;
      // Split into rsize-bounded READs.
      while (pos < piece_end) {
        const uint64_t n = std::min<uint64_t>(config_.rsize, piece_end - pos);
        auto latch = std::make_shared<sim::Latch>(fabric_.simulation());
        file->inflight.emplace(pos, std::make_pair(pos + n, latch));
        fetches.push_back(Fetch{pos, n, std::move(latch)});
        pos += n;
      }
    }
  }

  StatusCollector errors;
  uint64_t fetched = 0;

  // List I/O read batching: when the span needs several distinct fetches
  // (strided misses — a dense demand read or readahead always collapses to
  // rsize-sized pieces), route them all up front and fold the slices bound
  // for the same server into vectored READs of up to rsize total bytes.
  if (config_.listio_max_regions > 1 && fetches.size() > 1) {
    co_await ensure_layout_fresh(*file);
    struct SliceRef {
      size_t fetch_idx;
      IoSlice slice;
    };
    std::vector<SliceRef> refs;
    std::vector<uint32_t> remaining(fetches.size(), 0);
    for (size_t i = 0; i < fetches.size(); ++i) {
      for (const IoSlice& s :
           route(*file, fetches[i].start, fetches[i].len, /*for_write=*/false)) {
        refs.push_back({i, s});
        ++remaining[i];
      }
    }
    // Group per device (one filehandle per compound), then split each group
    // into region- and byte-capped batches, preserving offset order.  A
    // slice whose device is unhealthy goes alone, straight to its ladder's
    // redundant rung, so no vectored attempt is aimed at that device.
    std::map<size_t, std::vector<SliceRef>> groups;
    for (auto& r : refs) groups[r.slice.device_index].push_back(r);
    const bool redundant = file->layout.has_value() &&
                           redundant_aggregation(file->layout->aggregation);
    std::vector<std::vector<SliceRef>> batches;
    for (auto& [dev, group] : groups) {
      std::vector<SliceRef> cur;
      uint64_t bytes = 0;
      for (auto& r : group) {
        const bool alone =
            redundant && device_unhealthy(*file, dev, r.slice.file_offset,
                                          r.slice.file_offset + r.slice.length,
                                          /*reading=*/true);
        if (!cur.empty() &&
            (alone || cur.size() >= config_.listio_max_regions ||
             bytes + r.slice.length > config_.rsize)) {
          batches.push_back(std::move(cur));
          cur.clear();
          bytes = 0;
        }
        if (alone) {
          batches.push_back({r});
          continue;
        }
        cur.push_back(r);
        bytes += r.slice.length;
      }
      if (!cur.empty()) batches.push_back(std::move(cur));
    }

    sim::WaitGroup wg(fabric_.simulation());
    for (auto& batch : batches) {
      wg.spawn([](NfsClient& self, FilePtr file, std::vector<SliceRef> b,
                  StatusCollector& errors, uint64_t& fetched,
                  std::vector<uint32_t>& remaining,
                  std::vector<Fetch>& fetches) -> Task<void> {
        std::vector<IoSlice> slices;
        slices.reserve(b.size());
        for (auto& r : b) slices.push_back(r.slice);
        std::vector<Payload> out(slices.size());
        co_await self.run_vector(
            slices, [&] { return self.read_vector_op(slices, out); },
            [&](size_t i) {
              return self.read_ladder(*file, slices[i], out[i], errors);
            },
            /*concurrent=*/true);
        uint64_t got = 0;
        for (size_t i = 0; i < b.size(); ++i) {
          if (out[i].size() > 0) {
            got += out[i].size();
            fetched += out[i].size();
            self.mark_valid(*file, b[i].slice.file_offset, out[i]);
          }
          if (--remaining[b[i].fetch_idx] == 0) {
            Fetch& f = fetches[b[i].fetch_idx];
            file->inflight.erase(f.start);
            f.latch->set();
          }
        }
        tally(self.stats_.wire_read_bytes, self.m_miss_bytes_, got);
      }(*this, file, std::move(batch), errors, fetched, remaining, fetches));
    }
    co_await wg.wait();
    evict_clean_if_needed();
    errors.throw_if_failed("fetch_range");
    co_return fetched;
  }

  sim::WaitGroup wg(fabric_.simulation());
  for (auto& fetch : fetches) {
    wg.spawn([](NfsClient& self, FilePtr file, Fetch f, StatusCollector& errors,
                uint64_t& fetched) -> Task<void> {
      try {
        Payload data = co_await self.read_slices(*file, f.start, f.len);
        fetched += data.size();
        self.mark_valid(*file, f.start, data);
      } catch (const NfsError& e) {
        errors.record(e.status());
      }
      file->inflight.erase(f.start);
      f.latch->set();
    }(*this, file, std::move(fetch), errors, fetched));
  }
  co_await wg.wait();
  evict_clean_if_needed();
  errors.throw_if_failed("fetch_range");
  co_return fetched;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Task<void> NfsClient::write(FilePtr file, uint64_t offset, Payload data) {
  file->last_use = ++lru_clock_;
  const uint64_t len = data.size();
  if (len == 0) co_return;
  const uint64_t end = offset + len;

  co_await node_.cpu().execute(static_cast<sim::Duration>(
      kCpuNsPerByte * static_cast<double>(len)));

  const bool ec = file->layout &&
                  file->layout->aggregation == AggregationType::kErasureCoded;
  if (!config_.data_cache) {
    if (ec) {
      // Parity is computed over whole stripe groups from cached content;
      // a write-through client has no group to encode from.
      throw NfsError(Status::kInval,
                     "erasure-coded layouts require the data cache");
    }
    co_await write_slices(*file, offset, data);
    file->size = std::max(file->size, end);
    file->size_dirty = true;
    tally(stats_.bytes_written, m_write_bytes_, len);
    co_return;
  }

  mark_valid(*file, offset, data);
  mark_dirty(*file, offset, end);
  file->size = std::max(file->size, end);
  file->size_dirty = true;
  tally(stats_.bytes_written, m_write_bytes_, len);

  // Write-back: push out every fully-dirty wsize chunk asynchronously (a
  // bounded pipeline of in-flight WRITEs, like the kernel flusher).
  // Erasure-coded files skip the eager chunk flush: flushing partial
  // groups would recompute and rewrite parity once per chunk instead of
  // once per group at fsync.
  if (!ec) co_await flush_dirty(file, /*only_full_chunks=*/true, /*wait=*/false);

  if (dirty_bytes_ > config_.dirty_limit_bytes) {
    // Over the dirty limit: the writer blocks until its data is on the wire
    // (memory-pressure throttling).
    co_await flush_dirty(file, /*only_full_chunks=*/false, /*wait=*/true);
  }
  evict_clean_if_needed();
}

// ---------------------------------------------------------------------------
// Per-data-server write-back scheduler
// ---------------------------------------------------------------------------

Task<bool> NfsClient::write_back(WbDispatch& d) {
  FileState& f = d.file;
  StatusCollector errors;
  if (d.commit) {
    co_await commit_ladder(f, d.slices.front().device_index, errors);
    co_return !errors.failed();
  }
  // `payloads` keeps each region's bytes for re-dirtying if the WRITE
  // fails; the wire payload is their scatter-gather concatenation.
  co_await run_vector(
      d.slices,
      [&] {
        Payload data;
        for (const Payload& p : d.payloads) data.append(p);
        return write_vector_op(f, d.slices, std::move(data), d.trace);
      },
      [&](size_t i) {
        return write_ladder(f, d.slices[i], d.payloads[i], errors, d.trace);
      },
      /*concurrent=*/false);
  if (!errors.failed()) co_return true;
  f.wb_error = true;
  // A failed write-back keeps its pages dirty (kernel semantics): the bytes
  // were claimed from the dirty set at flush time, so put them back — except
  // where a newer write already re-dirtied the range.
  for (size_t i = 0; i < d.slices.size(); ++i) {
    const IoSlice& s = d.slices[i];
    if (s.parity) {
      // Parity payloads are derived, never file bytes: restoring them into
      // the cache would corrupt content.  Re-dirty the stripe group they
      // cover so the next flush recomputes data + parity.
      const uint64_t ge = std::min(f.size, covered_end(f, s));
      if (ge > s.file_offset) mark_dirty(f, s.file_offset, ge);
      continue;
    }
    const uint64_t ws = s.file_offset;
    for (const auto& gap : f.dirty.gaps(ws, ws + s.length)) {
      mark_valid(f, gap.start,
                 d.payloads[i].slice(gap.start - ws, gap.length()));
      mark_dirty(f, gap.start, gap.end);
    }
  }
  co_return false;
}

Task<void> NfsClient::flush_dirty(FilePtr file, bool only_full_chunks,
                                  bool wait_completion) {
  co_await ensure_layout_fresh(*file);
  if (!file->wb_inflight) {
    file->wb_inflight = std::make_unique<sim::WaitGroup>(fabric_.simulation());
  }
  if (file->layout &&
      file->layout->aggregation == AggregationType::kErasureCoded) {
    // Group-granular flush: data and parity leave together.
    co_await flush_dirty_ec(file);
  } else {
    const uint64_t chunk = config_.wsize;
    std::vector<util::IntervalSet::Interval> ranges;
    for (const auto& iv : file->dirty.intervals()) {
      if (only_full_chunks) {
        const uint64_t cs = round_up(iv.start, chunk);
        const uint64_t ce = round_down(iv.end, chunk);
        if (ce > cs) ranges.push_back({cs, ce});
      } else {
        ranges.push_back(iv);
      }
    }
    // Claim the ranges before suspending so concurrent flushes don't repeat
    // the work, then route each range and queue the pieces on their data
    // servers' pipelines.  Content is loaded here, synchronously: once
    // claimed, the bytes look clean and are fair game for eviction.
    for (const auto& r : ranges) claim_dirty(*file, r.start, r.end);
    for (const auto& r : ranges) {
      enqueue_range(file, r.start, r.end, /*for_write=*/true);
    }
  }

  if (wait_completion) {
    co_await file->wb_inflight->wait();
    if (file->wb_error) {
      file->wb_error = false;
      throw NfsError(Status::kIo, "flush");
    }
  }
}

void NfsClient::enqueue_range(const FilePtr& file, uint64_t start,
                              uint64_t end, bool for_write) {
  for (const IoSlice& s : route(*file, start, end - start, for_write)) {
    for (uint64_t pos = 0; pos < s.length; pos += config_.wsize) {
      IoSlice piece = s;
      piece.target_offset += pos;
      piece.file_offset += pos;
      piece.length = std::min<uint64_t>(config_.wsize, s.length - pos);
      wb_->enqueue(file, piece,
                   file->content.load(piece.file_offset, piece.length));
    }
  }
}

Task<void> NfsClient::flush_dirty_ec(FilePtr file) {
  FileState& f = *file;
  const auto geo = f.layout ? EcGeometry::from(*f.layout) : std::nullopt;
  if (!geo) throw NfsError(Status::kInval, "malformed erasure-coded layout");
  const uint64_t gb = geo->group_bytes();
  const uint64_t su = geo->su;

  // Snapshot the touched stripe groups; groups dirtied while this flush
  // runs belong to the next one.
  std::vector<uint64_t> group_starts;
  for (const auto& iv : f.dirty.intervals()) {
    for (uint64_t gs = round_down(iv.start, gb); gs < iv.end; gs += gb) {
      if (group_starts.empty() || group_starts.back() != gs) {
        group_starts.push_back(gs);
      }
    }
  }

  util::ReedSolomon rs(static_cast<uint32_t>(geo->k),
                       static_cast<uint32_t>(geo->m));
  for (const uint64_t gs : group_starts) {
    const uint64_t ge = gs + gb;
    // Read-modify-write: parity covers the whole group, so resident-but-
    // invalid bytes below EOF must be fetched before encoding.  This can
    // suspend; the group's bytes stay dirty — and thus pinned — until the
    // synchronous claim below.
    if (std::min<uint64_t>(ge, f.size) > gs &&
        !f.valid.covers(gs, std::min<uint64_t>(ge, f.size))) {
      co_await fetch_range(file, gs, std::min<uint64_t>(ge, f.size));
    }
    const uint64_t data_end = std::min<uint64_t>(ge, f.size);
    const auto todo = f.dirty.intersection(gs, ge);
    if (todo.empty()) continue;  // a concurrent flush claimed this group
    claim_dirty(f, gs, ge);

    // Encode the group's parity from the zero-padded cached shards.  All of
    // [gs, data_end) is valid here, and no suspension separates the claim
    // above from the loads below.  Virtual content (benchmarks) yields
    // virtual parity: sizes are billed, bytes never materialize.
    std::vector<Payload> parity;
    if (data_end > gs && f.content.tainted(gs, data_end)) {
      for (uint64_t j = 0; j < geo->m; ++j) {
        parity.push_back(Payload::virtual_bytes(su));
      }
    } else {
      std::vector<std::vector<std::byte>> shards(static_cast<size_t>(geo->k));
      for (uint64_t p = 0; p < geo->k; ++p) {
        auto& shard = shards[static_cast<size_t>(p)];
        shard.assign(static_cast<size_t>(su), std::byte{0});
        const uint64_t ss = gs + p * su;
        const uint64_t se = std::min(ss + su, data_end);
        if (se > ss) {
          Payload chunk = f.content.load(ss, se - ss);
          const auto span = chunk.data();
          std::copy(span.begin(), span.end(), shard.begin());
        }
      }
      std::vector<std::vector<std::byte>> pbytes;
      rs.encode(shards, &pbytes);
      for (auto& pb : pbytes) {
        parity.push_back(Payload::inline_bytes(std::move(pb)));
      }
    }

    // Data: exactly the claimed dirty ranges, through the data mapping (the
    // EC driver's map_read is the data half of its map_write).
    for (const auto& div : todo) {
      enqueue_range(file, div.start, div.end, /*for_write=*/false);
    }
    // Parity: one whole-su block per parity device.  Every shard of group
    // g sits at device offset g*su.
    for (uint64_t j = 0; j < geo->m; ++j) {
      IoSlice ps = device_slice(f, static_cast<size_t>(geo->k + j),
                                gs / gb * su, gs, su);
      ps.parity = true;
      wb_->enqueue(file, ps, std::move(parity[static_cast<size_t>(j)]));
    }
  }
}

Task<void> NfsClient::commit_unstable(FileState& f) {
  if (f.unstable_targets.empty()) co_return;
  co_await ensure_layout_fresh(f);
  const std::set<size_t> targets = std::exchange(f.unstable_targets, {});
  // Snapshot what each COMMIT is about to cover: ranges written during the
  // COMMIT's flight belong to the next one.
  std::map<size_t, util::IntervalSet> covered;
  std::map<size_t, uint64_t> verifiers;
  for (size_t idx : targets) {
    if (auto it = f.commit_targets.find(idx); it != f.commit_targets.end()) {
      covered[idx] = it->second.uncommitted;
    }
    verifiers[idx] = 0;
  }
  StatusCollector errors;
  sim::WaitGroup wg(fabric_.simulation());
  for (size_t idx : targets) {
    wg.spawn(commit_ladder(f, idx, errors, &verifiers[idx]));
  }
  co_await wg.wait();
  if (errors.failed()) {
    // Put the targets back: a later fsync must re-COMMIT them, or their
    // retained extents would never be retired (or replayed).
    for (size_t idx : targets) f.unstable_targets.insert(idx);
    errors.throw_if_failed("COMMIT");
  }
  for (size_t idx : targets) {
    auto it = f.commit_targets.find(idx);
    if (it == f.commit_targets.end()) continue;
    FileState::TargetCommitState& t = it->second;
    if (t.verifier_known && verifiers[idx] != t.verifier) {
      // The server restarted (or the COMMIT degraded to another server):
      // the reply's verifier does not vouch for our WRITEs.  Replay.
      redirty_lost(f, idx);
      f.commit_targets.erase(it);
      continue;
    }
    // Matching verifier: the covered ranges are durable.
    for (const auto& iv : covered[idx].intervals()) {
      t.uncommitted.subtract(iv.start, iv.end);
    }
    if (t.uncommitted.empty()) f.commit_targets.erase(it);
  }
  // Everything written so far is now stable; reset the background-COMMIT
  // backlog so the next write burst starts counting from zero.
  wb_->reset_backlog(f.attr.fileid);
}

Task<void> NfsClient::fsync(FilePtr file) {
  // Flush + COMMIT until quiescent: a COMMIT that discovers a restarted
  // server re-dirties the retained extents, which the next round re-writes
  // (against the revived incarnation) and re-commits.  One round suffices
  // per restart; the bound only guards against a server that crash-loops
  // faster than we can replay.
  constexpr int kMaxRounds = 8;
  for (int round = 0;; ++round) {
    bool transient_error = false;
    try {
      co_await flush_dirty(file, /*only_full_chunks=*/false, /*wait=*/true);
      co_await commit_unstable(*file);
    } catch (const NfsError&) {
      // Transient write-back/COMMIT failure (a server mid-restart): the
      // failed pages were re-dirtied, the un-committed targets re-queued.
      // Back off one deadline and re-drive; only a persistent outage
      // (every round failing) surfaces to the caller.
      if (round >= kMaxRounds) throw;
      transient_error = true;
    }
    if (transient_error && config_.ds_timeout > 0) {
      co_await fabric_.simulation().delay(config_.ds_timeout);
    }
    if (file->dirty.empty() && file->unstable_targets.empty()) break;
    if (round == kMaxRounds) {
      throw NfsError(Status::kIo, "fsync: replay did not converge");
    }
  }
  if (file->size_dirty && file->layout) {
    Compound b = sequenced(file->fh);
    b.add(OpCode::kLayoutCommit, LayoutCommitArgs{file->size, true});
    CompoundReply r(co_await call(mds_, std::move(b), 0));
    const auto lc = r.expect<LayoutCommitRes>(OpCode::kLayoutCommit);
    if (lc.post_change != 0) {
      file->attr.change = std::max(file->attr.change, lc.post_change);
    }
  }
  file->size_dirty = false;
}

// ---------------------------------------------------------------------------
// Cache accounting
// ---------------------------------------------------------------------------

void NfsClient::mark_valid(FileState& f, uint64_t offset, const Payload& data) {
  f.content.store(offset, data);
  const uint64_t before = f.valid.total_length();
  f.valid.add(offset, offset + data.size());
  account_valid_delta(static_cast<int64_t>(f.valid.total_length() - before));
}

void NfsClient::mark_dirty(FileState& f, uint64_t start, uint64_t end) {
  const uint64_t before = f.dirty.total_length();
  f.dirty.add(start, end);
  dirty_bytes_ += f.dirty.total_length() - before;
}

void NfsClient::claim_dirty(FileState& f, uint64_t start, uint64_t end) {
  const uint64_t before = f.dirty.total_length();
  f.dirty.subtract(start, end);
  dirty_bytes_ -= before - f.dirty.total_length();
}

void NfsClient::account_valid_delta(int64_t delta) {
  if (delta >= 0) {
    cached_bytes_ += static_cast<uint64_t>(delta);
  } else {
    cached_bytes_ -= std::min<uint64_t>(cached_bytes_,
                                        static_cast<uint64_t>(-delta));
  }
}

void NfsClient::evict_clean_if_needed() {
  while (cached_bytes_ > config_.cache_limit_bytes) {
    // Victim: least-recently-used file with evictable bytes.  Pinned ranges
    // (dirty + retained uncommitted writes) are not evictable.
    FileState* victim = nullptr;
    for (auto& [ino, state] : files_) {
      const uint64_t clean =
          state->valid.total_length() - state->pinned().total_length();
      if (clean == 0) continue;
      if (victim == nullptr || state->last_use < victim->last_use) {
        victim = state.get();
      }
    }
    if (victim == nullptr) break;  // everything is pinned: nothing to evict
    if (drop_clean(*victim) == 0) break;
  }
}

uint64_t NfsClient::drop_clean(FileState& st) {
  const util::IntervalSet pin = st.pinned();
  uint64_t dropped = 0;
  for (const auto& iv : st.valid.intervals()) {
    for (const auto& clean : pin.gaps(iv.start, iv.end)) {
      st.content.drop(clean.start, clean.end);
      dropped += clean.length();
    }
  }
  // valid := pinned (only unevictable ranges remain cached).
  st.valid = pin;
  st.readahead_high = 0;
  account_valid_delta(-static_cast<int64_t>(dropped));
  return dropped;
}

}  // namespace dpnfs::nfs
