#include "nfs/writeback.hpp"

#include <algorithm>

namespace dpnfs::nfs {

using rpc::Payload;
using sim::Task;

WritebackScheduler::WritebackScheduler(rpc::RpcFabric& fabric, sim::Node& node,
                                       rpc::RpcAddress mds,
                                       const ClientConfig& config,
                                       ClientStats& stats, Dispatch dispatch)
    : fabric_(fabric),
      node_(node),
      mds_(mds),
      config_(config),
      stats_(stats),
      dispatch_(std::move(dispatch)),
      tx_gate_(fabric.simulation(), 1) {
  obs::MetricsRegistry& reg = fabric.metrics();
  const std::string& n = node.name();
  m_writes_ = &reg.counter(n, "client.sched", "dispatched_writes");
  m_bytes_ = &reg.counter(n, "client.sched", "dispatched_bytes");
  m_coalesced_extents_ = &reg.counter(n, "client.sched", "coalesced_extents");
  m_coalesced_bytes_ = &reg.counter(n, "client.sched", "coalesced_bytes");
  m_vectored_writes_ = &reg.counter(n, "client.sched", "vectored_writes");
  m_vectored_regions_ = &reg.counter(n, "client.sched", "vectored_regions");
  m_vectored_bytes_ = &reg.counter(n, "client.sched", "vectored_bytes");
}

WritebackScheduler::QueuedWrite WritebackScheduler::cut(QueuedWrite& v,
                                                        uint64_t len) {
  QueuedWrite head{v.file, v.slice, v.data.slice(0, len), v.enqueued_at};
  head.slice.length = len;
  v.slice.target_offset += len;
  v.slice.file_offset += len;
  v.slice.length -= len;
  v.data = v.data.slice(len, v.slice.length);
  return head;
}

WritebackScheduler::Server& WritebackScheduler::server(
    const rpc::RpcAddress& addr) {
  auto it = servers_.find(addr);
  if (it != servers_.end()) return it->second;
  Server s;
  s.window = std::make_unique<sim::Semaphore>(
      fabric_.simulation(), std::max<uint32_t>(1, config_.wb_window_per_ds));
  s.label = (addr == mds_) ? "mds" : "ds" + std::to_string(addr.node_id);
  obs::MetricsRegistry& reg = fabric_.metrics();
  const std::string& n = node_.name();
  s.m_queue_depth = &reg.gauge(n, "client.sched", "queue_depth_" + s.label);
  s.m_queue_peak =
      &reg.gauge(n, "client.sched", "queue_depth_peak_" + s.label);
  s.m_window_inflight =
      &reg.gauge(n, "client.sched", "window_inflight_" + s.label);
  return servers_.emplace(addr, std::move(s)).first->second;
}

void WritebackScheduler::note_queue(Server& s) {
  uint64_t depth = 0;
  for (const auto& [ino, q] : s.queues) depth += q.size();
  s.m_queue_depth->set(static_cast<double>(depth));
  if (static_cast<double>(depth) > s.queue_peak) {
    s.queue_peak = static_cast<double>(depth);
    s.m_queue_peak->set(s.queue_peak);
  }
}

void WritebackScheduler::enqueue(const FilePtr& file, const IoSlice& slice,
                                 Payload data) {
  Server& s = server(slice.addr);
  auto& q = s.queues[file->attr.fileid];
  const uint64_t start = slice.target_offset;
  const uint64_t end = start + slice.length;

  // Newest data wins: trim every queued extent the new bytes overlap down
  // to its surviving head/tail and re-push those.  The queue stays disjoint,
  // so dispatch order can never resurrect stale bytes.  (A queued extent's
  // key is always its slice's target offset.)
  while (auto hit = q.pop_overlap(start, end)) {
    QueuedWrite& old = hit->value;
    const uint64_t old_end = hit->start + hit->length;
    if (hit->start < start) {
      q.push(hit->start, start - hit->start, cut(old, start - hit->start));
    }
    if (old_end > end) {
      cut(old, end - old.slice.target_offset);
      q.push(end, old_end - end, std::move(old));
    }
  }
  q.push(start, slice.length,
         QueuedWrite{file, slice, std::move(data), fabric_.simulation().now()});
  note_queue(s);

  // The worker is scheduled, not run inline, so every extent of this flush
  // is queued before the first dispatch — that's what makes runs mergeable.
  file->wb_inflight->spawn(worker(file, slice.addr));
}

void WritebackScheduler::reset_backlog(uint64_t fileid) {
  for (auto& [addr, s] : servers_) s.uncommitted.erase(fileid);
}

Task<void> WritebackScheduler::worker(FilePtr file, rpc::RpcAddress addr) {
  Server& s = server(addr);  // stable: servers_ entries are never erased
  const uint64_t ino = file->attr.fileid;
  const auto merge_ok = [this](const QueuedWrite& prev,
                               const QueuedWrite& next) {
    // Adjacent in the target's address space (ExtentQueue's invariant) AND
    // contiguous in file space through the same route: the merged WRITE
    // must be one valid slice on both axes.
    return config_.coalesce_writes &&
           next.slice.device_index == prev.slice.device_index &&
           next.slice.file_offset == prev.slice.file_offset + prev.slice.length;
  };
  for (;;) {
    {
      auto qit = s.queues.find(ino);
      if (qit == s.queues.end() || qit->second.empty()) co_return;
    }
    co_await s.window->acquire();
    // Re-check: a sibling worker may have drained the queue while this one
    // waited for a window slot.
    auto qit = s.queues.find(ino);
    if (qit == s.queues.end() || qit->second.empty()) {
      if (qit != s.queues.end()) s.queues.erase(qit);
      s.window->release();
      co_return;
    }

    // Each pass pops one run of adjacent extents and folds it into one
    // region.  With list I/O on, further runs from the same queue — mutually
    // non-adjacent by construction, or pop_run would have merged them — join
    // as more regions of one vectored WRITEV of up to wsize total bytes, so
    // contiguity is no longer the price of batching strided extents.
    WbDispatch d{*file, {}, {}, {}};
    uint64_t total = 0;
    sim::Time first_enq = 0;
    for (;;) {
      auto run = qit->second.pop_run(config_.wsize - total, merge_ok, cut);
      if (qit->second.empty()) s.queues.erase(qit);
      if (run.empty()) break;
      IoSlice slice = run.front().value.slice;
      Payload data = std::move(run.front().value.data);
      sim::Time enq = run.front().value.enqueued_at;
      for (size_t i = 1; i < run.size(); ++i) {
        QueuedWrite& qw = run[i].value;
        slice.length += qw.slice.length;
        data.append(std::move(qw.data));
        enq = std::min(enq, qw.enqueued_at);
        tally(stats_.sched_coalesced_extents, m_coalesced_extents_);
        tally(stats_.sched_coalesced_bytes, m_coalesced_bytes_,
              qw.slice.length);
      }
      if (!d.slices.empty() &&
          slice.device_index != d.slices.front().device_index) {
        // Same server address, different route (different filehandle): a
        // compound holds one PUTFH, so requeue for the next dispatch.
        s.queues[ino].push(slice.target_offset, slice.length,
                           QueuedWrite{file, slice, std::move(data), enq});
        break;
      }
      first_enq = d.slices.empty() ? enq : std::min(first_enq, enq);
      d.slices.push_back(slice);
      d.payloads.push_back(std::move(data));
      total += slice.length;
      if (!config_.coalesce_writes ||
          d.slices.size() >= config_.listio_max_regions ||
          total >= config_.wsize) {
        break;
      }
      qit = s.queues.find(ino);
      if (qit == s.queues.end() || qit->second.empty()) break;
    }
    note_queue(s);
    if (d.slices.empty()) {
      s.window->release();
      continue;
    }
    if (d.slices.size() > 1) {
      tally(stats_.vectored_writes, m_vectored_writes_);
      tally(stats_.vectored_regions, m_vectored_regions_, d.slices.size());
      tally(stats_.vectored_bytes, m_vectored_bytes_, total);
    }

    ++s.inflight;
    s.m_window_inflight->set(static_cast<double>(s.inflight));

    // NIC admission pacing.  The NIC serializes frames, so launching every
    // per-server pipeline at once just time-slices the link and bunches all
    // completions (and the server disk work behind them) at the tail.  Hold
    // the transmit token for this WRITE's estimated serialization time, then
    // hand it on while the RPC is still in flight: dispatches stagger at
    // wire rate, and a slow or dead server holds the gate for one wire-time
    // at most.
    co_await tx_gate_.acquire();
    sim::Simulation& sim = fabric_.simulation();
    sim.spawn([](sim::Simulation& sim, sim::Semaphore& gate,
                 sim::Duration d) -> Task<void> {
      co_await sim.delay(d);
      gate.release();
    }(sim, tx_gate_,
      sim::duration_for_bytes(total, node_.nic().params().bytes_per_sec)));

    // Root an internal span over queue-entry -> WRITE-done so analyze_trace
    // can attribute client-queue time per server; the WRITE's RPCs become
    // its child hops.
    obs::Tracer* tracer = fabric_.tracer();
    if (tracer != nullptr && tracer->enabled()) d.trace = tracer->begin({});
    const sim::Time dispatched_at = sim.now();
    const bool ok = co_await dispatch_(d);
    stats_.wire_write_bytes += total;
    tally(stats_.sched_writes, m_writes_);
    m_bytes_->add(total);

    if (tracer != nullptr && d.trace.valid()) {
      obs::Span span;
      span.trace_id = d.trace.trace_id;
      span.span_id = d.trace.span_id;
      span.kind = obs::SpanKind::kInternal;
      span.name = "wb.sched/" + s.label;
      span.node = node_.name();
      span.start = first_enq;
      span.end = sim.now();
      span.queue_wait = dispatched_at - first_enq;
      span.bytes_out = total;
      span.error = !ok;
      tracer->record(std::move(span));
    }

    if (ok && config_.wb_commit_backlog != 0) {
      uint64_t& backlog = s.uncommitted[ino];
      backlog += total;
      if (backlog >= config_.wb_commit_backlog &&
          !s.commit_inflight.contains(ino)) {
        // Enough unstable bytes parked at this server: start its disk flush
        // now, under the remaining transmissions, instead of letting it all
        // pile up behind fsync's final COMMIT.
        file->wb_inflight->spawn(
            background_commit(file, addr, d.slices.front()));
      }
    }

    --s.inflight;
    s.m_window_inflight->set(static_cast<double>(s.inflight));
    s.window->release();
  }
}

Task<void> WritebackScheduler::background_commit(FilePtr file,
                                                 rpc::RpcAddress addr,
                                                 IoSlice target) {
  Server& s = server(addr);
  const uint64_t ino = file->attr.fileid;
  s.commit_inflight.insert(ino);
  // Bytes completing while this COMMIT is in flight are not covered by it;
  // they accumulate toward the next trigger.
  s.uncommitted[ino] = 0;
  WbDispatch d{*file, {target}, {}, {}, /*commit=*/true};
  co_await dispatch_(d);  // best-effort: fsync's COMMIT covers stragglers
  s.commit_inflight.erase(ino);
}

}  // namespace dpnfs::nfs
