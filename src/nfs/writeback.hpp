// Per-data-server write-back scheduler (NfsClient::flush_dirty feeds it).
// Each server address owns a bounded in-flight window plus, per file, an
// elevator queue of dirty extents: adjacent extents merge into up-to-wsize
// WRITEs at dispatch and, with list I/O on, further non-adjacent runs fold
// into one WRITEV.  One NIC transmit token paces dispatches across all
// servers.  How a dispatch is sent is the owner's business: every WRITE,
// and every background COMMIT the scheduler decides on, goes through one
// callback.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "nfs/client.hpp"
#include "util/range_buffer.hpp"

namespace dpnfs::nfs {

/// One unit of write-back work handed to the scheduler's owner.
struct WbDispatch {
  FileState& file;
  /// WRITE: the regions in target-offset order, all bound for one server
  /// and filehandle (one region: a plain WRITE; 2+: a WRITEV).  COMMIT: one
  /// slice naming the target device.
  std::vector<IoSlice> slices;
  std::vector<rpc::Payload> payloads;  ///< each region's bytes (WRITE only)
  obs::TraceContext trace;             ///< parent of the WRITE's RPCs
  bool commit = false;
};

class WritebackScheduler {
 public:
  /// Sends one dispatch; resolves to true on success.
  using Dispatch = std::function<sim::Task<bool>(WbDispatch&)>;

  WritebackScheduler(rpc::RpcFabric& fabric, sim::Node& node,
                     rpc::RpcAddress mds, const ClientConfig& config,
                     ClientStats& stats, Dispatch dispatch);

  /// Queues one routed dirty extent, trimming any queued extent the new
  /// bytes overlap (newest data wins), and spawns a drain worker into the
  /// file's `wb_inflight` group (which must exist).
  void enqueue(const FilePtr& file, const IoSlice& slice, rpc::Payload data);
  /// Forgets `fileid`'s background-COMMIT backlog at every server: a COMMIT
  /// just covered everything written so far.
  void reset_backlog(uint64_t fileid);

 private:
  struct QueuedWrite {
    FilePtr file;
    IoSlice slice;
    rpc::Payload data;
    sim::Time enqueued_at = 0;
  };
  struct Server {
    std::unique_ptr<sim::Semaphore> window;
    /// fileid -> queued extents keyed by target offset (elevator order).
    std::map<uint64_t, util::ExtentQueue<QueuedWrite>> queues;
    uint32_t inflight = 0;  ///< WRITEs holding a window permit
    double queue_peak = 0;  ///< high-water extent count
    /// fileid -> completed-but-uncommitted bytes (background-COMMIT trigger).
    std::map<uint64_t, uint64_t> uncommitted;
    std::set<uint64_t> commit_inflight;  ///< fileids with a COMMIT running
    std::string label;                   ///< "ds<node>" or "mds"
    obs::Gauge* m_queue_depth;
    obs::Gauge* m_queue_peak;
    obs::Gauge* m_window_inflight;
  };

  /// Carves the first `len` bytes off `v` and returns them; `v` keeps the
  /// rest.
  static QueuedWrite cut(QueuedWrite& v, uint64_t len);
  Server& server(const rpc::RpcAddress& addr);
  void note_queue(Server& s);
  sim::Task<void> worker(FilePtr file, rpc::RpcAddress addr);
  /// Best-effort COMMIT to one server while write-back continues (see
  /// ClientConfig::wb_commit_backlog); fsync's COMMIT covers stragglers.
  sim::Task<void> background_commit(FilePtr file, rpc::RpcAddress addr,
                                    IoSlice target);

  rpc::RpcFabric& fabric_;
  sim::Node& node_;
  rpc::RpcAddress mds_;
  const ClientConfig& config_;
  ClientStats& stats_;
  Dispatch dispatch_;
  /// std::map: references stay stable across co_await while servers appear.
  std::map<rpc::RpcAddress, Server> servers_;
  /// NIC admission gate: one transmit token (see worker()).
  sim::Semaphore tx_gate_;

  obs::Counter* m_writes_;
  obs::Counter* m_bytes_;
  obs::Counter* m_coalesced_extents_;
  obs::Counter* m_coalesced_bytes_;
  obs::Counter* m_vectored_writes_;
  obs::Counter* m_vectored_regions_;
  obs::Counter* m_vectored_bytes_;
};

}  // namespace dpnfs::nfs
