// perfbench_runner: one run of one benchmark workload in its own process.
//
//   perfbench_runner --workload <name> --seed <n> --traced <0|1>
//                    [--spans <path>]
//
// Prints one JSON object (the raw facts of the run) as its last stdout
// line; perfbench/run.py repeats runs, derives the metrics and checks them.
// The untraced run turns tracing off (openloop-churn keeps production 1%
// head sampling).  The traced run retains every span, snapshots the
// deployment's counters around the timed window, analyzes the trace, writes
// the benchmark's own call spans as Chrome trace_event JSON to --spans, and
// replays each layer's public entry points to price one unit of its work.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "util/obs_analysis.hpp"

using namespace dpnfs;
using namespace perfbench;

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
std::string num(uint64_t v) { return std::to_string(v); }
std::string num(int64_t v) { return std::to_string(v); }
std::string str(const std::string& s) {
  std::string out = "\"";
  out += obs::json_escape(s);
  out += '"';
  return out;
}

// Nearest-rank percentile; reorders `v`.
int64_t percentile(std::vector<int64_t>& v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return v[rank];
}

// Chrome trace_event JSON of the benchmark's spans.  Reads and writes that
// finished in under 1 ms of simulated time (cache hits, buffered writes)
// are counted but not written out, which keeps multi-million-call runs to
// a loadable file; every other call is one complete ("X") event.
bool write_spans(const std::string& path, const std::vector<Call>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  uint64_t elided = 0;
  bool first = true;
  for (const Call& c : spans) {
    const bool io = c.op == Op::kRead || c.op == Op::kWrite;
    if (io && c.ok && c.dur < 1'000'000) {
      ++elided;
      continue;
    }
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"ok\":%s}}",
                 first ? "" : ",\n", op_name(c.op), c.client,
                 static_cast<double>(c.start) / 1e3,
                 static_cast<double>(c.dur) / 1e3, c.ok ? "true" : "false");
    first = false;
  }
  std::fprintf(f, "\n],\"otherData\":{\"spans\":%zu,\"elided_fast_io\":%" PRIu64
                  "}}\n",
               spans.size(), elided);
  return std::fclose(f) == 0;
}

std::string phases_json(const obs::PhaseBreakdown& p) {
  return "{\"client_queue\":" + num(p.client_queue) +
         ",\"request_wire\":" + num(p.request_wire) +
         ",\"server_queue\":" + num(p.server_queue) +
         ",\"service_cpu\":" + num(p.service_cpu) + ",\"disk\":" + num(p.disk) +
         ",\"reply_wire\":" + num(p.reply_wire) + ",\"other\":" + num(p.other) +
         "}";
}

int run(const Options& opt) {
  RunOutput out;
  std::unique_ptr<core::Deployment> d;
  std::unique_ptr<Recorder> rec;
  run_workload(opt, out, d, rec);
  sim::Simulation& sim = d->simulation();

  std::string phases = "[";
  for (const Phase& p : out.phases) {
    phases += std::string(phases.size() > 1 ? "," : "") + "{\"name\":" +
              str(p.name) + ",\"sim_ns\":" + num(p.sim_ns) +
              ",\"write_bytes\":" + num(p.write_bytes) +
              ",\"read_bytes\":" + num(p.read_bytes) + "}";
  }
  phases += "]";
  std::string slices = "[";
  for (const double s : rec->slices()) {
    slices += std::string(slices.size() > 1 ? "," : "") + num(s);
  }
  slices += "]";

  std::vector<int64_t>& units = rec->units();
  const std::vector<int64_t>& limited = out.slo_per_mib ? rec->mibs() : units;
  const uint64_t misses = static_cast<uint64_t>(
      std::count_if(limited.begin(), limited.end(),
                    [&](int64_t ns) { return ns > out.slo_ns; }));
  const uint64_t limited_n = limited.size();
  const int64_t p50 = percentile(units, 0.50);
  const int64_t p99 = percentile(units, 0.99);

  std::string client_p99 = "{";
  for (size_t op = 0; op < static_cast<size_t>(Op::kCount); ++op) {
    client_p99 += std::string(op ? "," : "") + str(op_name(static_cast<Op>(op))) +
                  ":" + num(rec->durations(static_cast<Op>(op)).percentile(0.99));
  }
  client_p99 += "}";

  const auto& mix = sim.queue_push_mix();
  std::string j = "{\"workload\":" + str(opt.workload) +
                  ",\"seed\":" + num(opt.seed) +
                  ",\"traced\":" + (opt.traced ? "true" : "false");
  j += ",\"setup\":{\"deploy_s\":" + num(out.deploy_s) +
       ",\"mount_s\":" + num(out.mount_s) + ",\"prep_s\":" + num(out.prep_s) +
       "},\"slices_s\":" + slices +
       ",\"phases\":" + phases;
  j += ",\"attempted\":" + num(rec->attempted()) +
       ",\"failed\":" + num(rec->failed());
  j += ",\"latency\":{\"unit\":" + str(out.unit) +
       ",\"samples\":" + num(static_cast<uint64_t>(units.size())) +
       ",\"p50_ns\":" + num(p50) + ",\"p99_ns\":" + num(p99) +
       ",\"slo_ns\":" + num(out.slo_ns) +
       ",\"slo_unit\":" + str(out.slo_per_mib ? "MiB" : out.unit) +
       ",\"slo_samples\":" + num(limited_n) + ",\"misses\":" + num(misses) + "}";
  j += ",\"client_p99_ns\":" + client_p99;
  j += ",\"sim\":{\"events\":" + num(sim.events_processed()) +
       ",\"window_events\":" + num(out.events_close - out.events_open) +
       ",\"end_ns\":" + num(static_cast<int64_t>(sim.now())) +
       ",\"immediate\":" + num(mix.immediate) + ",\"wheel\":" + num(mix.wheel) +
       ",\"overflow\":" + num(mix.overflow) +
       ",\"mean_queue_depth\":" + num(rec->mean_queue_depth()) +
       ",\"nic_util_max\":" + num(out.nic_util_max) +
       ",\"disk_util_mean\":" + num(out.disk_util_mean) + "}";
  j += ",\"ec\":{\"k\":" + num(uint64_t{out.ec_k}) +
       ",\"m\":" + num(uint64_t{out.ec_m}) +
       ",\"stripe_unit\":" + num(out.stripe_unit) +
       ",\"kill_at_ns\":" + num(out.kill_at_ns) + "}";
  std::string failures = "[";
  for (const auto& f : out.failures) {
    failures += std::string(failures.size() > 1 ? "," : "") + str(f);
  }
  j += ",\"failures\":" + failures + "]";

  if (opt.traced) {
    const obs::Tracer& tr = d->tracer();
    // Post-kill PVFS I/O calls that timed out: only the dead storage daemon
    // fails to answer, so these are the requests aimed at it.
    uint64_t victim = 0;
    if (out.kill_at_ns >= 0) {
      for (const obs::Span& s : tr.spans()) {
        if (s.kind == obs::SpanKind::kClientCall && s.error &&
            s.start >= out.kill_at_ns && s.name.rfind("pvfs.io/", 0) == 0) {
          ++victim;
        }
      }
    }
    const obs::BreakdownReport br = obs::analyze_all(tr);
    j += ",\"tracer\":{\"traces_started\":" + num(tr.traces_started()) +
         ",\"spans_recorded\":" + num(tr.spans_recorded()) +
         ",\"spans_dropped\":" + num(tr.spans_dropped()) + "}";
    j += ",\"breakdown\":{\"traces_analyzed\":" + num(br.traces_analyzed) +
         ",\"traces_skipped\":" + num(br.traces_skipped) +
         ",\"total_ns\":" + num(static_cast<int64_t>(br.total_ns)) +
         ",\"phases_ns\":" + phases_json(br.phases) + "}";
    j += ",\"victim_timeouts\":" + num(victim);
    j += ",\"metrics_begin\":" + out.metrics_begin +
         ",\"metrics_end\":" + out.metrics_end;
    if (!opt.spans_path.empty() && !write_spans(opt.spans_path, rec->spans())) {
      std::fprintf(stderr, "cannot write %s\n", opt.spans_path.c_str());
      return 1;
    }

    ReplayInput in;
    in.mix = mix;
    in.mean_queue_depth = rec->mean_queue_depth();
    in.io_bytes = out.data_rpc_bytes;
    in.inline_payload = out.inline_payload;
    in.stripe_unit = out.stripe_unit;
    in.ec_k = out.ec_k;
    in.ec_m = out.ec_m;
    const ReplayCosts c = run_replays(in);
    j += ",\"replay\":{\"ns_per_event\":" + num(c.ns_per_event) +
         ",\"ns_per_compound_xdr\":" + num(c.ns_per_compound_xdr) +
         ",\"rs_encode_ns_per_kib\":" + num(c.rs_encode_ns_per_kib) +
         ",\"rs_decode_ns_per_kib\":" + num(c.rs_decode_ns_per_kib) +
         ",\"ec_map_ns_per_call\":" + num(c.ec_map_ns_per_call) +
         ",\"sink\":" + num(c.sink) + "}";
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  j += ",\"peak_rss_kb\":" + num(static_cast<int64_t>(ru.ru_maxrss)) + "}";
  // Release the simulation before printing: its teardown is not part of any
  // measurement, and a crash in it must not follow a printed result.
  rec.reset();
  d.reset();
  std::printf("%s\n", j.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--traced") {
      opt.traced = std::strcmp(val, "1") == 0;
    } else if (key == "--spans") {
      opt.spans_path = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.workload.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload <name> --seed <n> "
                 "--traced <0|1> [--spans <path>]\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
