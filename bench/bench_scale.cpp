// Thousand-client open-loop scale sweep: how much simulated load the event
// core pushes per second of host wall-clock, and how much event-core work
// and allocation each unit of simulated load costs.
//
// Each sweep point replays one seeded open-loop arrival schedule (Poisson
// arrivals, 4-tenant mix, ephemeral 4-op sessions).  The headline figure is
// simulated client-seconds per wall-second: the integral of in-flight
// sessions over simulated time, divided by the host time the run took.
// It is host-noise-sensitive, so only the delta gate's loose threshold
// (bench/CMakeLists.txt) guards it.
//
// The hard gates sit on counters that do not depend on the machine:
//
//   ops_per_kevent       completed application ops per 1000 dispatched
//                        events.  Extra wake-ups per RPC (a transfer leg
//                        spawned where an inline one would do, a needless
//                        yield) lower it.  Unlike the next counter it
//                        does not grow with sojourn length.
//   client_s_per_kevent  simulated client-seconds per 1000 dispatched
//                        events.  It also grows with backlog (longer
//                        sojourns at the same event count), so a change
//                        that moves simulated sojourn must re-pin its bars.
//   frame_reuse          FramePool reused / (fresh + reused) coroutine
//                        frames over the run.
//   buffer_reuse         BufferPool reused / (fresh + reused) byte buffers
//                        over the run.
//
// Offered-vs-delivered sojourn percentiles (scheduled arrival to
// completion, so backlog shows up as latency) are recorded alongside but
// not gated — latency is not a higher-is-better series.
//
// Contracts checked, not just measured:
//   1. Determinism: the smallest point runs twice and must produce
//      bit-identical session counts, ops, peak concurrency, and sojourn
//      sums.
//   2. Sustained concurrency: the big point must hold >= 1000 sessions in
//      flight at its peak.
//   3. Counters: every point must clear the bars below.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/frame_pool.hpp"
#include "util/pool.hpp"
#include "workload/openloop.hpp"

using namespace dpnfs;
using namespace dpnfs::bench;

namespace {

// Counter bars (contract 3).  Pool reuse is measured at >= 0.99 (frames)
// and 0.21-0.27 (buffers) at every point; a pool that stops recycling
// drops to 0.  The per-1000-events counters differ by point (events per
// op rise with contention), so their bars are per point (Point below),
// ~7% under the measured values; routing single-chunk transfers through
// the windowed path costs ~20% of both.
constexpr double kMinFrameReuse = 0.9;
constexpr double kMinBufferReuse = 0.15;

struct Point {
  uint32_t target_concurrency;  // sweep label (and the sustained-load bar)
  uint32_t client_nodes;
  uint32_t storage_nodes;
  double rate_per_sec;      // offered session arrival rate
  double duration_seconds;  // arrival window
  double min_ops_per_kevent;       // measured 15.9 / 7.60 / 4.25
  double min_client_s_per_kevent;  // measured 14.0 / 77.6 / 376.3
};

double reuse_ratio(uint64_t fresh, uint64_t reused) {
  return fresh + reused > 0 ? static_cast<double>(reused) / (fresh + reused)
                            : 0;
}

struct PointResult {
  workload::OpenLoopResult ol;
  double wall_seconds = 0;
  uint64_t events = 0;
  double frame_reuse = 0;
  double buffer_reuse = 0;
  double rate() const {
    return wall_seconds > 0 ? ol.client_seconds / wall_seconds : 0;
  }
  double client_s_per_kevent() const {
    return events > 0 ? ol.client_seconds * 1000 / events : 0;
  }
  double ops_per_kevent() const {
    return events > 0 ? static_cast<double>(ol.ops) * 1000 / events : 0;
  }
};

PointResult run_point(const Point& pt) {
  core::ClusterConfig cfg =
      paper_config(core::Architecture::kDirectPnfs, pt.client_nodes);
  cfg.storage_nodes = pt.storage_nodes;
  cfg.tenants = 4;
  // Production sampled tracing (bench_obs_overhead's recommended mode), not
  // the retain-everything default: at thousands of sessions full span
  // retention spends a quarter of the wall on evictions.
  cfg.trace_sample_rate = 0.01;
  cfg.trace_slo_threshold = sim::ms(500);

  workload::OpenLoopConfig ol;
  ol.rate_per_sec = pt.rate_per_sec;
  ol.duration = sim::Duration(static_cast<int64_t>(pt.duration_seconds * 1e9));
  ol.tenant_weights = {4, 3, 2, 1};
  ol.ops_per_session = 4;
  ol.bytes_per_op = 256 * 1024;
  ol.read_fraction = 0.5;
  ol.file_bytes = 16ull << 20;

  sim::FramePool::reset_stats();
  util::BufferPool::reset_stats();
  core::Deployment d(cfg);
  PointResult r;
  const auto t0 = std::chrono::steady_clock::now();
  r.ol = workload::run_open_loop(d, ol);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.events = d.simulation().events_processed();
  const auto frames = sim::FramePool::stats();
  const auto buffers = util::BufferPool::stats();
  r.frame_reuse = reuse_ratio(frames.fresh, frames.reused);
  r.buffer_reuse = reuse_ratio(buffers.fresh, buffers.reused);
  return r;
}

bool same_sim_result(const workload::OpenLoopResult& a,
                     const workload::OpenLoopResult& b) {
  return a.sessions == b.sessions && a.ops == b.ops &&
         a.app_bytes == b.app_bytes && a.peak_concurrency == b.peak_concurrency &&
         a.elapsed_seconds == b.elapsed_seconds &&
         a.client_seconds == b.client_seconds &&
         a.sojourn_seconds.count() == b.sojourn_seconds.count() &&
         a.sojourn_seconds.sum() == b.sojourn_seconds.sum();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = flag_present(argc, argv, "--smoke") ||
                     flag_present(argc, argv, "--quick");
  BenchRecorder rec("scale", arg_value(argc, argv, "--out-dir", ""));

  // The offered rates saturate the cluster so backlog (and thus in-flight
  // sessions) climbs through the window — that is what an open-loop
  // thousand-client population does to a file system that cannot keep up.
  std::vector<Point> points = {
      {100, 8, 6, 1500, 1.0, 14.8, 13.0},
      {1000, 16, 16, 4000, 2.0, 7.07, 72.0},
  };
  if (!smoke) points.push_back({4000, 32, 32, 12000, 3.0, 3.95, 350.0});

  bool ok = true;

  // Contract 1: determinism on the smallest point (same seed twice).
  {
    const PointResult a = run_point(points[0]);
    const PointResult b = run_point(points[0]);
    if (!same_sim_result(a.ol, b.ol)) {
      std::fprintf(stderr,
                   "FAIL: same-seed open-loop runs diverged (%" PRIu64
                   "/%" PRIu64 " sessions, %.9g/%.9g client-s)\n",
                   a.ol.sessions, b.ol.sessions, a.ol.client_seconds,
                   b.ol.client_seconds);
      ok = false;
    }
  }

  std::vector<Series> series = {{"scale-core", {}}, {"peak-conc", {}}};
  std::vector<uint32_t> xs;

  for (const Point& pt : points) {
    const PointResult r = run_point(pt);

    xs.push_back(pt.target_concurrency);
    series[0].values.push_back(r.rate());
    series[1].values.push_back(static_cast<double>(r.ol.peak_concurrency));

    std::printf("point %u: %" PRIu64 " sessions, peak %" PRIu64
                " in flight, %.1f client-s/s (%.2fs wall, %" PRIu64
                " events)\n",
                pt.target_concurrency, r.ol.sessions, r.ol.peak_concurrency,
                r.rate(), r.wall_seconds, r.events);
    std::printf("  counters: %.4f ops/kevent, %.4f client-s/kevent, frame "
                "reuse %.4f, buffer reuse %.4f\n",
                r.ops_per_kevent(), r.client_s_per_kevent(), r.frame_reuse,
                r.buffer_reuse);

    rec.add("rate", "scale-core", pt.target_concurrency, r.rate(),
            "client-s/s", "");
    rec.add("ops_per_kevent", "scale-core", pt.target_concurrency,
            r.ops_per_kevent(), "ops/kevent", "");
    rec.add("client_s_per_kevent", "scale-core", pt.target_concurrency,
            r.client_s_per_kevent(), "client-s/kevent", "");
    rec.add("frame_reuse", "scale-core", pt.target_concurrency,
            r.frame_reuse, "ratio", "");
    rec.add("buffer_reuse", "scale-core", pt.target_concurrency,
            r.buffer_reuse, "ratio", "");
    // Ungated context records (absent from the baseline on purpose: latency
    // and event totals are not higher-is-better series).
    rec.add("p50_sojourn", "scale-core", pt.target_concurrency,
            r.ol.sojourn_seconds.p50(), "s", "");
    rec.add("p99_sojourn", "scale-core", pt.target_concurrency,
            r.ol.sojourn_seconds.p99(), "s", "");
    rec.add("peak_concurrency", "scale-core", pt.target_concurrency,
            static_cast<double>(r.ol.peak_concurrency), "sessions", "");
    rec.add("events_per_wall_s", "scale-core", pt.target_concurrency,
            r.wall_seconds > 0 ? r.events / r.wall_seconds : 0, "ev/s", "");

    // Contract 2 on the >= 1000-client point.
    if (pt.target_concurrency >= 1000 && r.ol.peak_concurrency < 1000) {
      std::fprintf(stderr,
                   "FAIL: point %u peaked at %" PRIu64
                   " concurrent sessions (< 1000)\n",
                   pt.target_concurrency, r.ol.peak_concurrency);
      ok = false;
    }
    // Contract 3 at every point.
    const struct {
      const char* name;
      double value;
      double bar;
    } gates[] = {
        {"ops per 1000 events", r.ops_per_kevent(), pt.min_ops_per_kevent},
        {"client-s per 1000 events", r.client_s_per_kevent(),
         pt.min_client_s_per_kevent},
        {"FramePool reuse ratio", r.frame_reuse, kMinFrameReuse},
        {"BufferPool reuse ratio", r.buffer_reuse, kMinBufferReuse},
    };
    for (const auto& g : gates) {
      if (g.value < g.bar) {
        std::fprintf(stderr, "FAIL: point %u %s %.4f (< %.4f)\n",
                     pt.target_concurrency, g.name, g.value, g.bar);
        ok = false;
      }
    }
  }

  print_table("Open-loop scale sweep", "clients", xs, series,
              "client-s/s; peak sessions");
  rec.flush();
  return ok ? 0 : 1;
}
