// Shared types of the benchmark runner: the recorder that wraps every
// application call the benchmark makes, and the raw result one run hands
// to run.py.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "sim/event_queue.hpp"

namespace perfbench {

using dpnfs::sim::Task;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  std::string spans_path;  ///< Chrome trace of the benchmark's own spans
};

enum class Op : uint8_t { kOpen, kWrite, kRead, kFsync, kClose, kCount };
const char* op_name(Op op);

/// A failed call is recorded with this duration: it misses every latency
/// limit and sorts above every completed call.
inline constexpr int64_t kFailedNs = INT64_MAX;

/// One benchmark span: an application call into the file-system client,
/// in simulated time.
struct Call {
  int64_t start = 0;
  int64_t dur = 0;
  uint32_t client = 0;
  Op op = Op::kOpen;
  bool ok = true;
};

/// Fixed-size log-linear histogram of durations: 128 buckets per power of
/// two, so a reported percentile is the upper edge of its bucket and at most
/// 1/128 above the exact value.  Failed calls sit above every bucket.
class DurationHistogram {
 public:
  void add(int64_t ns);
  /// Nearest-rank percentile (bucket upper edge); kFailedNs when the rank
  /// falls on a failed call, 0 when empty.
  int64_t percentile(double p) const;

 private:
  static constexpr int kSubBits = 7;
  std::array<uint64_t, size_t{64} << kSubBits> counts_{};
  uint64_t total_ = 0;
};

/// Host seconds since `t0`.
inline double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Times every application call the benchmark drives, counts attempts and
/// failures (a throwing call is a failure, never dropped), and tallies
/// bytes requested against bytes moved.
class Recorder {
 public:
  /// `slice_calls`: application calls per host-timing slice (see
  /// phase_begin).
  Recorder(dpnfs::sim::Simulation& sim, bool keep_spans, uint64_t slice_calls)
      : sim_(sim), keep_spans_(keep_spans), slice_calls_(slice_calls) {}

  Task<std::unique_ptr<dpnfs::core::File>> open(
      dpnfs::core::FileSystemClient& c, uint32_t client,
      const std::string& path, bool create, bool read_only = false);
  Task<bool> write(dpnfs::core::File& f, uint32_t client, uint64_t offset,
                   dpnfs::rpc::Payload data);
  /// The payload on success; nullopt when the call failed.
  Task<std::optional<dpnfs::rpc::Payload>> read(dpnfs::core::File& f,
                                                uint32_t client,
                                                uint64_t offset,
                                                uint64_t length);
  Task<bool> fsync(dpnfs::core::File& f, uint32_t client);
  Task<bool> close(dpnfs::core::File& f, uint32_t client);

  /// Sojourn of one unit of work (an open-loop session, or one client's
  /// pass over its file), from its scheduled start.
  void add_unit(int64_t sojourn_ns, bool ok) {
    units_.push_back(ok ? sojourn_ns : kFailedNs);
  }

  /// Closed-loop streams: call after each successful application call; each
  /// MiB of a client's stream that completes records its latency, from
  /// `mib_start`, the issue of its first call.
  void stream_progress(int64_t& mib_start, uint64_t end_offset);
  /// A stream of `total` bytes that stopped after `done` (0 when its open
  /// failed): every MiB it did not complete is recorded as a failure.
  void stream_failed(uint64_t done, uint64_t total);

  /// Host timing of the timed phases, in slices of `slice_calls`
  /// application calls (a phase's last slice may be shorter).  The
  /// simulation is deterministic, so the slices of one input are the same
  /// work in every repetition, and run.py can take each slice's fastest
  /// repetition.
  void phase_begin();
  /// Closes the phase's last slice.
  void phase_end();
  const std::vector<double>& slices() const { return slices_; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t requested_write() const { return req_write_; }
  uint64_t written() const { return written_; }
  uint64_t requested_read() const { return req_read_; }
  uint64_t read_bytes() const { return read_; }
  double mean_queue_depth() const {
    return depth_samples_ ? static_cast<double>(depth_sum_) / depth_samples_
                          : 0.0;
  }

  const DurationHistogram& durations(Op op) const {
    return per_op_[static_cast<size_t>(op)];
  }
  std::vector<int64_t>& units() { return units_; }
  std::vector<int64_t>& mibs() { return mibs_; }
  const std::vector<Call>& spans() const { return spans_; }

 private:
  int64_t begin();
  void end(Op op, uint32_t client, int64_t start, bool ok);

  dpnfs::sim::Simulation& sim_;
  bool keep_spans_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t req_write_ = 0;
  uint64_t written_ = 0;
  uint64_t req_read_ = 0;
  uint64_t read_ = 0;
  uint64_t depth_sum_ = 0;
  uint64_t depth_samples_ = 0;
  DurationHistogram per_op_[static_cast<size_t>(Op::kCount)];
  std::vector<int64_t> units_;
  std::vector<int64_t> mibs_;
  std::vector<Call> spans_;
  uint64_t slice_calls_;
  bool in_phase_ = false;
  std::chrono::steady_clock::time_point slice_t0_;
  uint64_t calls_in_slice_ = 0;
  std::vector<double> slices_;
};

/// One timed phase: simulated span and application bytes.
struct Phase {
  std::string name;
  int64_t sim_ns = 0;
  uint64_t write_bytes = 0;
  uint64_t read_bytes = 0;
};

/// Inputs of the host-cost replays, taken from the run being explained.
struct ReplayInput {
  dpnfs::sim::EventQueue::PushMix mix;
  double mean_queue_depth = 0;
  uint64_t io_bytes = 0;        ///< bulk bytes per data compound
  bool inline_payload = false;  ///< data compounds carry real bytes
  uint64_t stripe_unit = 0;
  uint32_t ec_k = 0;            ///< 0: the workload codes no parity
  uint32_t ec_m = 0;
};

/// Host cost of one unit of each replayed layer, in nanoseconds.
struct ReplayCosts {
  double ns_per_event = 0;
  double ns_per_compound_xdr = 0;
  double rs_encode_ns_per_kib = 0;
  double rs_decode_ns_per_kib = 0;
  double ec_map_ns_per_call = 0;
  uint64_t sink = 0;  ///< folded replay results (keeps the work observable)
};

ReplayCosts run_replays(const ReplayInput& in);

/// Everything one run reports, before run.py derives the metrics.
struct RunOutput {
  /// Host seconds of the set-up: deployment construction, mount, and the
  /// workload's untimed preparation.
  double deploy_s = 0, mount_s = 0, prep_s = 0;
  std::vector<Phase> phases;
  /// Sojourn percentiles are over units ("session" or "pass"); the latency
  /// limit applies to units for an open loop and to each MiB of a client's
  /// stream for a closed loop, whose passes are few and long.
  std::string unit;
  bool slo_per_mib = false;
  int64_t slo_ns = 0;
  uint64_t data_rpc_bytes = 0;  ///< io_bytes handed to the XDR replay
  bool inline_payload = false;
  uint32_t ec_k = 0, ec_m = 0;
  uint64_t stripe_unit = 0;
  int64_t kill_at_ns = -1;      ///< scripted storage-node kill, if any
  std::vector<std::string> failures;  ///< correctness checks that failed
  uint64_t events_open = 0, events_close = 0;  ///< around the timed window
  double nic_util_max = 0;
  double disk_util_mean = 0;
  std::string metrics_begin, metrics_end;  ///< traced runs only
};

/// Runs one workload end to end on a fresh deployment.  The caller keeps
/// the deployment and recorder to export counters, spans and percentiles.
void run_workload(const Options& opt, RunOutput& out,
                  std::unique_ptr<dpnfs::core::Deployment>& deployment,
                  std::unique_ptr<Recorder>& recorder);

}  // namespace perfbench
