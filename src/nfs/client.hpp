// NFSv4.1 client with pNFS file-layout support.
//
// This is the "stock NFSv4.1 client" of the paper: it implements
//   * sessions (EXCHANGE_ID / CREATE_SESSION, bounded slot tables),
//   * a write-back data cache that coalesces application writes into
//     wsize-sized WRITEs (the reason Figs 6d/6e match 6a/6b),
//   * sequential-read detection with asynchronous readahead into the page
//     cache (the reason Figs 7c/7d match 7a/7b),
//   * COMMIT on fsync/close only (the paper's deliberate departure from
//     NFSv4 to match PVFS2 durability semantics),
//   * pNFS: GETDEVICELIST at mount, LAYOUTGET at open, a file-layout driver
//     that fans READ/WRITE/COMMIT out to data servers through pluggable
//     aggregation drivers, and LAYOUTCOMMIT after size-changing writes.
//
// When a server grants no layout (plain NFSv4), all I/O flows to the
// metadata server — no client change required, exactly the transparency
// Direct-pNFS advertises.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "nfs/ds_health.hpp"
#include "nfs/layout.hpp"
#include "nfs/ops.hpp"
#include "nfs/types.hpp"
#include "rpc/fabric.hpp"
#include "util/interval_set.hpp"
#include "util/range_buffer.hpp"

namespace dpnfs::nfs {

/// Page-cache granularity for demand fetches.
inline constexpr uint64_t kPageBytes = 4096;

struct ClientConfig {
  uint32_t rsize = 2u << 20;               ///< max READ size (paper: 2 MB)
  uint32_t wsize = 2u << 20;               ///< max WRITE size (paper: 2 MB)
  uint64_t cache_limit_bytes = 1ull << 30; ///< page-cache budget
  uint64_t dirty_limit_bytes = 256ull << 20;
  bool data_cache = true;                  ///< ablation switch
  bool pnfs_enabled = true;                ///< issue LAYOUTGET at open
  /// Register a backchannel with the MDS so it can recall layouts.
  bool enable_backchannel = true;
  /// Max concurrent write-back WRITEs **per data server**: each DS gets its
  /// own bounded pipeline, so a slow or failed DS never stalls flushes
  /// destined for healthy ones (see nfs/writeback.hpp).
  uint32_t wb_window_per_ds = 8;
  /// Merge adjacent dirty extents bound for the same DS into one WRITE of up
  /// to wsize before dispatch (elevator-style coalescing).  Ablation switch.
  bool coalesce_writes = true;
  /// List I/O: fold up to this many *non-adjacent* dirty runs for the same
  /// DS into one vectored WRITEV (up to wsize total bytes), and batch
  /// strided read misses into READV the same way.  1 (or 0) turns list I/O
  /// off.  Single-range requests always use the classic one-range ops.
  uint32_t listio_max_regions = 64;
  /// Once a data server holds this many completed-but-uncommitted write-back
  /// bytes for a file, the scheduler issues an asynchronous COMMIT to it so
  /// the server starts its disk flush under the remaining transmissions
  /// instead of bunching the whole flush behind fsync's final COMMIT.
  /// fsync still sends its own one-per-DS COMMIT to cover stragglers.
  /// 0 disables background commits.
  uint64_t wb_commit_backlog = 1ull << 20;

  // -- Failure recovery (see docs/failures.md) -------------------------------
  /// Per-attempt deadline on data-server COMPOUNDs; 0 disables deadlines
  /// (and all watchdog events) — the default, so fault-free runs are
  /// event-for-event identical to the pre-recovery client.
  sim::Duration ds_timeout = 0;
  /// Transport-level retries (same DS, exponential backoff) inside the RPC
  /// client before a timed-out data-server call surfaces as an error.
  uint32_t ds_rpc_retries = 1;
  /// NFS-level retries of a failed READ/WRITE/COMMIT slice against the same
  /// DS before degrading.
  uint32_t slice_retries = 1;
  /// Consecutive slice failures that open a data server's circuit breaker.
  uint32_t breaker_threshold = 3;
  /// How long an open breaker diverts that DS's slices to the MDS.
  sim::Duration breaker_reset = sim::sec(5);
  /// Degrade to proxying failed slices through the MDS (the plain-NFSv4
  /// path).  Off: slice failures surface to the application immediately.
  bool mds_fallback = true;
  /// Per-attempt deadline on MDS COMPOUNDs; 0 keeps the unbounded legacy
  /// behavior.  Set it when the MDS itself can crash (chaos runs): session
  /// re-establishment must be able to give up on the dead incarnation and
  /// retry against the revived one.
  sim::Duration mds_timeout = 0;

  /// Tenant identity stamped into every RPC this client originates (0: none).
  /// Carried flag-gated in the call header and propagated through proxied
  /// hops, so servers at every tier attribute work to the right tenant.
  uint32_t tenant_id = 0;
};

struct ClientStats {
  uint64_t bytes_read = 0;          ///< returned to the application
  uint64_t bytes_written = 0;       ///< accepted from the application
  uint64_t wire_read_bytes = 0;     ///< fetched via READ
  uint64_t wire_write_bytes = 0;    ///< sent via WRITE
  uint64_t rpcs = 0;
  uint64_t cache_hit_bytes = 0;
  uint64_t readahead_fetches = 0;
  // Write-back scheduler (mirrored in the "client.sched" metrics component).
  uint64_t sched_writes = 0;             ///< write-back WRITEs dispatched
  uint64_t sched_coalesced_extents = 0;  ///< extents merged into a prior WRITE
  uint64_t sched_coalesced_bytes = 0;    ///< bytes riding merged WRITEs
  uint64_t vectored_writes = 0;   ///< multi-region WRITEV dispatches
  uint64_t vectored_regions = 0;  ///< regions carried by those WRITEVs
  uint64_t vectored_bytes = 0;    ///< bytes carried by those WRITEVs
  uint64_t vectored_reads = 0;    ///< multi-region READV fetches issued
  // Recovery (mirrored in the "client.recovery" metrics component).
  uint64_t recovery_retries = 0;    ///< slice retried against the same DS
  uint64_t mds_fallbacks = 0;       ///< slices degraded to MDS proxy I/O
  uint64_t breaker_trips = 0;       ///< DS circuit breakers opened
  uint64_t layout_refetches = 0;    ///< LAYOUTGETs after slice failures
  uint64_t devices_flagged = 0;     ///< unavailable devices layouts named
  // Unstable-write replay (mirrored in the "client.replay" component).
  uint64_t verifier_mismatches = 0; ///< WRITE/COMMIT verifier changes seen
  uint64_t replayed_extents = 0;    ///< retained extents re-dirtied for replay
  uint64_t replayed_bytes = 0;      ///< bytes those extents covered
  uint64_t session_recoveries = 0;  ///< sessions re-established after restart
  // Redundancy (mirrored in the "client.redundancy" metrics component).
  uint64_t replica_reroutes = 0;    ///< reads routed around an unhealthy DS
  uint64_t degraded_reads = 0;      ///< reads served without the home DS
  uint64_t degraded_read_bytes = 0; ///< bytes those reads returned
  uint64_t ec_reconstructions = 0;  ///< erasure blocks rebuilt from k shards
  uint64_t degraded_writes = 0;     ///< writes absorbed by surviving redundancy
  uint64_t degraded_commits = 0;    ///< COMMIT targets dropped as dead
};

/// Counts one event (or `n` units) in a ClientStats field and its exported
/// counter alike.
inline void tally(uint64_t& stat, obs::Counter* counter, uint64_t n = 1) {
  stat += n;
  counter->add(n);
}

/// Records the first non-OK status across a fan-out of concurrent slice
/// operations.
class StatusCollector {
 public:
  void record(Status s) noexcept {
    if (s == Status::kOk || failed_) return;
    failed_ = true;
    status_ = s;
  }
  bool failed() const noexcept { return failed_; }
  Status status() const noexcept { return status_; }
  void throw_if_failed(const std::string& what) const {
    if (failed_) throw NfsError(status_, what);
  }

 private:
  bool failed_ = false;
  Status status_ = Status::kOk;
};

/// One I/O assignment: a byte range sent to one server.
struct IoSlice {
  static constexpr size_t kMds = static_cast<size_t>(-1);
  size_t device_index = kMds;
  rpc::RpcAddress addr;
  FileHandle fh;
  Stateid stateid;
  uint64_t target_offset = 0;  ///< offset in the target's address space
  uint64_t file_offset = 0;
  uint64_t length = 0;
  /// Erasure parity block: payload is derived (never file content), so it
  /// must not fall back to the MDS and failures re-dirty the source group
  /// instead of restoring payload bytes into the cache.
  bool parity = false;
};

class FileState;
using FilePtr = std::shared_ptr<FileState>;
class CompoundReply;
class WritebackScheduler;
struct WbDispatch;

class NfsClient {
 public:
  using FilePtr = nfs::FilePtr;

  NfsClient(rpc::RpcFabric& fabric, sim::Node& node, rpc::RpcAddress mds,
            std::string principal, ClientConfig config = {},
            std::shared_ptr<const AggregationRegistry> aggregations = nullptr);
  ~NfsClient();

  /// EXCHANGE_ID + CREATE_SESSION + root filehandle (+ GETDEVICELIST when
  /// pNFS is enabled).  Must complete before any other call.
  sim::Task<void> mount();

  // -- Namespace ------------------------------------------------------------

  sim::Task<void> mkdir(const std::string& path);
  sim::Task<void> remove(const std::string& path);
  /// SETATTR(size).  Conflicting layouts held by other clients are
  /// recalled by the server before this returns.
  sim::Task<void> truncate(const std::string& path, uint64_t size);
  sim::Task<void> rename(const std::string& from, const std::string& to);
  sim::Task<std::vector<DirEntry>> readdir(const std::string& path);
  sim::Task<Fattr> stat(const std::string& path);

  // -- File I/O ---------------------------------------------------------------

  /// Opens (optionally creating) a file.  `read_only` opens request a read
  /// delegation; while one is held, a re-open of the same file is served
  /// locally with no RPC at all.
  sim::Task<FilePtr> open(const std::string& path, bool create,
                          bool read_only = false);
  sim::Task<rpc::Payload> read(FilePtr file, uint64_t offset, uint64_t length);
  sim::Task<void> write(FilePtr file, uint64_t offset, rpc::Payload data);
  sim::Task<void> fsync(FilePtr file);
  sim::Task<void> close(FilePtr file);

  uint64_t file_size(const FilePtr& file) const;
  bool file_has_layout(const FilePtr& file) const;

  /// Drops all clean cached data (like `echo 3 > drop_caches`).  State for
  /// closed files is discarded entirely; open files keep dirty data.
  void drop_caches();

  const ClientStats& stats() const noexcept { return stats_; }
  sim::Node& node() noexcept { return node_; }
  uint64_t layout_recalls_served() const noexcept { return recalls_served_; }
  uint64_t delegation_recalls_served() const noexcept {
    return delegation_recalls_served_;
  }
  bool file_has_delegation(const FilePtr& file) const;

 private:
  struct Session {
    SessionId id;
    std::unique_ptr<sim::Semaphore> slots;
  };

  /// The write-back scheduler's dispatch callback: sends one WRITE/WRITEV
  /// through run_vector and the write ladder (re-dirtying the regions on
  /// failure), or one background COMMIT through the commit ladder.
  sim::Task<bool> write_back(WbDispatch& d);

  // Compound plumbing.  Every compound built by this client starts with
  // sequenced(): a placeholder SEQUENCE and, given a filehandle, a PUTFH of
  // it.  call() owns the session: it patches the current session id into
  // the encoded compound and consumes both results, and when SEQUENCE
  // answers BADSESSION or GRACE (the server restarted and forgot us) it
  // drops the dead session, re-establishes one, and re-sends — so sessions
  // and restart recovery are invisible to every call site, whose reply
  // starts at its own first op.
  struct Compound : CompoundBuilder {
    bool putfh = false;
  };
  static Compound sequenced(std::optional<FileHandle> fh = {});
  sim::Task<CompoundReply> call(rpc::RpcAddress addr, Compound compound,
                                uint64_t data_bytes,
                                obs::TraceContext trace_parent = {});
  sim::Task<std::shared_ptr<Session>> session_for(rpc::RpcAddress addr);
  /// Forgets `sid` for `addr` (a later call re-establishes).  Losing the
  /// *MDS* session means the MDS restarted: every layout and open stateid it
  /// granted came from the dead incarnation, so layouts are marked stale
  /// (re-fetched lazily, once per file) and opens fall back to the
  /// anonymous stateid.
  void session_lost(const rpc::RpcAddress& addr, const SessionId& sid);
  rpc::CallOptions call_options(const rpc::RpcAddress& addr) const;

  bool layout_usable(const FileLayout& l) const;

  /// The cached state of the file with handle `fh`, if any.
  FilePtr find_file(const FileHandle& fh) const;

  // Path machinery.
  sim::Task<FileHandle> resolve(const std::string& path);
  void invalidate_dentries(const std::string& prefix);

  // Data path.
  std::vector<IoSlice> route(FileState& f, uint64_t offset, uint64_t length,
                             bool for_write);
  IoSlice mds_slice(const FileState& f, uint64_t offset,
                    uint64_t length) const;
  /// A slice of layout device `dev` at `target_offset` in its address space.
  IoSlice device_slice(const FileState& f, size_t dev, uint64_t target_offset,
                       uint64_t file_offset, uint64_t length) const;
  static std::shared_ptr<sim::Latch> find_inflight_overlap(FileState& f,
                                                           uint64_t start,
                                                           uint64_t end);
  /// Returns the number of bytes actually fetched over the wire (0 when the
  /// whole range was already valid or in flight).
  sim::Task<uint64_t> fetch_range(FilePtr file, uint64_t start, uint64_t end);
  sim::Task<rpc::Payload> read_slices(FileState& f, uint64_t offset,
                                      uint64_t length);
  sim::Task<void> write_slices(FileState& f, uint64_t offset,
                               const rpc::Payload& data);
  // Single-attempt ops: each throws NfsError on failure and stores its
  // result only on success.
  sim::Task<void> read_slice_op(const IoSlice& slice, rpc::Payload& out);
  /// Multi-region READV to one server: each slice's bytes.  Regions read
  /// short mid-object are re-filled via read_slice_op; short reads at EOF
  /// zero-fill like the single-range path.
  sim::Task<void> read_vector_op(const std::vector<IoSlice>& slices,
                                 std::vector<rpc::Payload>& out);
  /// WRITE/WRITEV to one server: one slice emits the classic single-range
  /// op, 2+ slices a vectored one.  The reply's single verifier is recorded
  /// for every region.
  sim::Task<void> write_vector_op(FileState& f, std::span<const IoSlice> slices,
                                  rpc::Payload data,
                                  obs::TraceContext trace_parent = {});
  /// COMMIT to the slice's server and filehandle; stores the write verifier
  /// its reply carried in `*verifier` (when non-null).
  sim::Task<void> commit_op(const IoSlice& target, uint64_t* verifier);

  enum class LadderOp { kRead, kWrite, kCommit };
  /// The recovery ladder every READ, WRITE and COMMIT slice climbs (see
  /// docs/failures.md): same-DS retries, the redundant-layout rung, then a
  /// reissue through the MDS.  `attempt(s)` issues the op against slice `s`;
  /// `redundant(s)` serves it from surviving redundancy (true: served).
  /// READ and WRITE consult device health before the first attempt (a READ
  /// also heeds the layout's unavailable devices) and re-fetch the layout
  /// before the MDS reissue.  Errors land in the collector.  Both callables
  /// live in the ladder's frame, so whatever they capture stays valid across
  /// every await.
  template <typename Attempt, typename Redundant>
  sim::Task<void> run_ladder(FileState& f, IoSlice slice,
                             StatusCollector& errors, Attempt attempt,
                             Redundant redundant, LadderOp op);
  sim::Task<void> read_ladder(FileState& f, IoSlice slice, rpc::Payload& out,
                              StatusCollector& errors);
  sim::Task<void> write_ladder(FileState& f, IoSlice slice, rpc::Payload piece,
                               StatusCollector& errors,
                               obs::TraceContext trace_parent = {});
  sim::Task<void> commit_ladder(FileState& f, size_t device_index,
                                StatusCollector& errors,
                                uint64_t* verifier = nullptr);
  /// A multi-region request to one server: one vectored attempt (`whole()`)
  /// and, if that fails, every region through its own ladder (`region(i)`),
  /// concurrently or in order.  A single region goes straight to its ladder.
  /// `slices` must outlive the call.
  template <typename Whole, typename Region>
  sim::Task<void> run_vector(const std::vector<IoSlice>& slices, Whole whole,
                             Region region, bool concurrent);

  // Crash-consistent unstable writes: every UNSTABLE WRITE's byte range is
  // retained (pinned in the cache) together with the server's write
  // verifier until a COMMIT whose verifier matches covers it.  A verifier
  // change — seen on a WRITE mid-stream or on the COMMIT itself — means the
  // server restarted and dropped its volatile data; the retained ranges are
  // re-dirtied and flow back out through the normal write-back machinery.
  void note_unstable_write(FileState& f, const IoSlice& slice,
                           uint64_t verifier);
  void redirty_lost(FileState& f, size_t target);

  /// A stale layout (MDS restart) is refreshed exactly once, lazily, at the
  /// next data-path entry.
  sim::Task<void> ensure_layout_fresh(FileState& f);

  /// Records a flight event under "nfs.client" (formatted only when the
  /// fabric carries a flight recorder).
  [[gnu::format(printf, 3, 4)]] void note_flight(const char* kind,
                                                 const char* fmt, ...);

  /// Counts and records the unavailable devices a freshly granted layout
  /// names.
  void note_layout_flags(uint64_t fileid, const FileLayout& l);
  sim::Task<void> refetch_layout(FileState& f, bool force = false);
  sim::Task<void> flush_dirty(FilePtr file, bool only_full_chunks,
                              bool wait_completion);

  // -- Redundancy (replicated / nested-mirror / erasure-coded layouts) -----
  /// True when this device may not hold valid bytes for [start, end): its
  /// breaker is open or the range overlaps its degraded (skipped-write) set.
  /// When `reading`, a device the layout marks unavailable counts too: a
  /// false mark then costs redundant wire bytes, never a skipped write.
  bool device_unhealthy(const FileState& f, size_t device, uint64_t start,
                        uint64_t end, bool reading) const;
  /// For replicated/nested layouts: the next healthy device holding the
  /// same bytes as `home` over [start, end), walking the mirror group from
  /// `*step` (1 = home's successor) and advancing it past the result.
  /// IoSlice::kMds when no healthy alternate is left.
  size_t next_replica(const FileState& f, size_t home, size_t* step,
                      uint64_t start, uint64_t end) const;
  /// Degraded-read rung: serve `slice` without its home DS — surviving
  /// replica / mirror-group member, or reconstruction from k surviving
  /// erasure shards.  Fills `out` and returns true on success.
  sim::Task<bool> degraded_read(FileState& f, IoSlice slice,
                                rpc::Payload& out);
  /// Rebuilds `slice`'s bytes (within one su block) from the same byte
  /// range of k other shards of its stripe group, read from the first k
  /// healthy devices concurrently, moving on to the next device only when
  /// one fails.  `block` receives exactly `slice.length` bytes.
  sim::Task<bool> ec_reconstruct_block(FileState& f, const IoSlice& slice,
                                       rpc::Payload& block);
  /// Records that `slice`'s bytes were not written to its device (the
  /// redundancy absorbed a terminal failure).
  void note_degraded_write(FileState& f, const IoSlice& slice);
  /// End of the file bytes a write-back slice stands for: its own, or — for
  /// a parity block — the whole stripe group it was computed over.
  static uint64_t covered_end(const FileState& f, const IoSlice& slice);
  /// Records that a COMMIT target died with unstable bytes the redundancy
  /// holds: its retained ranges join the degraded set and it is dropped.
  void note_degraded_commit(FileState& f, size_t device_index);
  /// Erasure-coded flush: expands dirty ranges to stripe-group boundaries,
  /// read-modify-writes missing group bytes, computes parity, and enqueues
  /// data + parity write-back.
  sim::Task<void> flush_dirty_ec(FilePtr file);
  /// Routes [start, end) and queues it as wsize-sized write-back extents.
  void enqueue_range(const FilePtr& file, uint64_t start, uint64_t end,
                     bool for_write);
  sim::Task<void> commit_unstable(FileState& f);

  // Cache accounting: every change to a file's valid or dirty set goes
  // through these, keeping cached_bytes_ and dirty_bytes_ exact.
  /// Stores `data` at `offset` and marks it valid.
  void mark_valid(FileState& f, uint64_t offset, const rpc::Payload& data);
  void mark_dirty(FileState& f, uint64_t start, uint64_t end);
  /// Takes [start, end) out of the dirty set (write-back now owns it).
  void claim_dirty(FileState& f, uint64_t start, uint64_t end);
  void account_valid_delta(int64_t delta);
  void evict_clean_if_needed();
  /// Drops every clean (unpinned) cached byte of `st`; returns how many.
  uint64_t drop_clean(FileState& st);
  /// Drops all clean cached ranges of one file (revalidation failure).
  void invalidate_clean(FileState& st);
  sim::Task<void> readahead(FilePtr file, uint64_t from, uint64_t to);

  // Backchannel (CB_LAYOUTRECALL service).
  void start_backchannel();
  sim::Task<void> serve_callback(const rpc::CallContext& ctx,
                                 rpc::XdrDecoder& args,
                                 rpc::XdrEncoder& results);

  rpc::RpcFabric& fabric_;
  sim::Node& node_;
  rpc::RpcAddress mds_;
  rpc::RpcClient rpc_;
  ClientConfig config_;
  std::shared_ptr<const AggregationRegistry> aggregations_;

  bool mounted_ = false;
  std::unique_ptr<rpc::RpcServer> backchannel_;
  uint64_t recalls_served_ = 0;
  uint64_t delegation_recalls_served_ = 0;
  FileHandle root_fh_;
  /// shared_ptr values: call() holds the session (and its slot semaphore)
  /// across suspension points while session_lost() may erase the map entry.
  std::map<rpc::RpcAddress, std::shared_ptr<Session>> sessions_;
  std::map<rpc::RpcAddress, std::shared_ptr<sim::Latch>> session_creating_;
  std::map<DeviceId, rpc::RpcAddress> devices_;

  std::map<std::string, FileHandle> dentry_cache_;
  std::map<uint64_t, FilePtr> files_;  ///< fileid -> shared state

  uint64_t cached_bytes_ = 0;  ///< sum of valid (clean+dirty) cached bytes
  uint64_t dirty_bytes_ = 0;
  uint64_t lru_clock_ = 0;

  ClientStats stats_;
  DsHealth health_;  ///< data-server circuit breakers
  std::unique_ptr<WritebackScheduler> wb_;  ///< per-DS write-back pipelines

  // "client.cache" component handles, resolved once at construction.
  obs::Counter* m_hit_bytes_;
  obs::Counter* m_miss_bytes_;
  obs::Counter* m_read_bytes_;
  obs::Counter* m_write_bytes_;
  obs::Counter* m_readahead_fetches_;
  obs::Counter* m_rpcs_;
  // "client.recovery" component handles.
  obs::Counter* m_retries_;
  obs::Counter* m_fallbacks_;
  obs::Counter* m_layout_refetches_;
  obs::Counter* m_rpc_retries_;
  obs::Counter* m_devices_flagged_;
  // "client.replay" component handles.
  obs::Counter* m_verifier_mismatches_;
  obs::Counter* m_replayed_extents_;
  obs::Counter* m_replayed_bytes_;
  obs::Counter* m_session_recoveries_;
  // "client.redundancy" component handles.
  obs::Counter* m_replica_reroutes_;
  obs::Counter* m_degraded_reads_;
  obs::Counter* m_degraded_read_bytes_;
  obs::Counter* m_ec_reconstructions_;
  obs::Counter* m_degraded_writes_;
  obs::Counter* m_degraded_commits_;
};

/// Open-file state; exposed so deployments can inspect (tests) but opaque in
/// normal use.
class FileState {
 public:
  FileHandle fh;
  Stateid stateid;
  Fattr attr;
  uint64_t size = 0;
  bool size_dirty = false;
  std::optional<FileLayout> layout;
  bool read_delegation = false;
  std::string path;  ///< last path this file was opened under
  uint32_t open_count = 0;
  /// OPEN stateids live at the server.  Delegation fast-path opens are
  /// purely local, so open_count can exceed server_opens; CLOSE RPCs are
  /// only sent while server_opens exceeds the remaining handles.
  uint32_t server_opens = 0;
  /// Every outstanding server-side OPEN stateid, oldest first.  The server
  /// mints a distinct stateid per OPEN and CLOSE retires exactly one, so
  /// with concurrent handles on the same file each CLOSE must present a
  /// stateid that is still live — closing the newest twice earns
  /// NFS4ERR_BAD_STATEID and leaks the rest.  `stateid` mirrors the most
  /// recent entry for the I/O path.
  std::vector<Stateid> open_stateids;

  // Page cache.
  util::RangeBuffer content;
  util::IntervalSet valid;
  util::IntervalSet dirty;

  // Sequential-read tracking.
  uint64_t expected_seq_offset = 0;
  uint64_t readahead_high = 0;
  /// In-flight fetches: start -> (end, completion latch).
  std::map<uint64_t, std::pair<uint64_t, std::shared_ptr<sim::Latch>>> inflight;

  // Commit bookkeeping: device indices (or IoSlice::kMds) holding
  // uncommitted writes.
  std::set<size_t> unstable_targets;

  /// Per-target crash-consistency state: the write verifier the target's
  /// UNSTABLE WRITE replies carried, and the file ranges still covered only
  /// by those volatile writes.  The ranges stay pinned in the page cache
  /// until a COMMIT with a matching verifier retires them; on a mismatch
  /// (the server restarted) they are re-dirtied and replayed.
  struct TargetCommitState {
    bool verifier_known = false;
    uint64_t verifier = 0;
    util::IntervalSet uncommitted;
  };
  std::map<size_t, TargetCommitState> commit_targets;

  /// Set when the MDS session died (server restart): the layout came from
  /// the dead incarnation and is re-fetched once before the next I/O.
  bool layout_stale = false;

  /// Per-device ranges known NOT to hold current data: writes or COMMITs
  /// that terminally failed against the device while surviving redundancy
  /// absorbed them.  Reads must route around these ranges (and erasure
  /// reconstruction must not source from them).  Entries are sticky — a
  /// rebuilt replacement device arrives under a fresh layout whose reads
  /// the rebuild made whole, while these ranges keep being served by the
  /// surviving copies either way.
  std::map<size_t, util::IntervalSet> degraded;

  /// Ranges that must not be evicted: dirty data plus retained
  /// uncommitted writes (the client's only copy if a server restarts).
  util::IntervalSet pinned() const {
    util::IntervalSet p = dirty;
    for (const auto& [idx, t] : commit_targets) {
      for (const auto& iv : t.uncommitted.intervals()) p.add(iv.start, iv.end);
    }
    return p;
  }

  // Async write-back pipeline state (created lazily by the client).  The
  // in-flight windows themselves live per data server in the client's
  // scheduler; this only joins this file's outstanding write-backs.
  std::unique_ptr<sim::WaitGroup> wb_inflight;
  bool wb_error = false;

  /// Last failure-driven LAYOUTGET (-1: never); rate-limits re-fetches.
  sim::Time layout_refetched_at = -1;

  uint64_t last_use = 0;
};

}  // namespace dpnfs::nfs
