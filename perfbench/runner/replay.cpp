// Host-cost replays: each layer's public entry points run in isolation,
// outside any simulation, with the shape the explained run measured (its
// event push mix and queue depth, its data-compound size, its EC
// geometry).  Each returns the host nanoseconds of one unit of work; run.py
// multiplies by the run's own counts and labels the products "computed".
#include <algorithm>
#include <coroutine>

#include "bench.hpp"
#include "core/aggregation_drivers.hpp"
#include "nfs/ops.hpp"
#include "rpc/message.hpp"
#include "sim/event_queue.hpp"
#include "util/reed_solomon.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace dpnfs;
using Clock = std::chrono::steady_clock;

namespace {

// Folds replay results into a value the caller prints, so the optimizer
// cannot drop the replayed work.
uint64_t g_sink = 0;

constexpr int kBatches = 5;

template <typename Fn>
double median_ns_per_unit(uint64_t units, Fn&& batch) {
  double v[kBatches];
  for (double& x : v) {
    const auto t0 = Clock::now();
    batch();
    x = since(t0) * 1e9 / static_cast<double>(units);
  }
  std::sort(v, v + kBatches);
  return v[kBatches / 2];
}

// --- sim: calendar event core ------------------------------------------------

// Each op pops the (time, seq) minimum and pushes one successor whose delay
// class follows the run's push mix: same tick, inside the wheel horizon
// (~8 ms), or beyond it.  The standing population is the run's mean
// pending-event count.
double replay_event_core(const ReplayInput& in) {
  const auto& m = in.mix;
  const uint64_t total = m.immediate + m.wheel + m.overflow;
  const uint64_t imm_cut = total ? m.immediate * 1000 / total : 500;
  const uint64_t wheel_cut = imm_cut + (total ? m.wheel * 1000 / total : 450);
  const uint64_t population =
      std::max<uint64_t>(16, static_cast<uint64_t>(in.mean_queue_depth));
  constexpr uint64_t kOps = 1'000'000;
  const auto handle = std::coroutine_handle<>::from_address(&g_sink);
  return median_ns_per_unit(kOps, [&] {
    util::Rng rng(0x5CA1AB1E);
    auto delay = [&]() -> sim::Duration {
      const uint64_t r = rng.next();
      const uint64_t cls = r % 1000, v = r / 1000;
      if (cls < imm_cut) return 0;
      if (cls < wheel_cut) return static_cast<sim::Duration>(256 + v % 8'000'000);
      return sim::ms(8) + static_cast<sim::Duration>(v % 192'000'000);
    };
    sim::EventQueue q(sim::QueueKind::kCalendar);
    uint64_t seq = 0;
    for (uint64_t i = 0; i < population; ++i) q.push(delay(), seq++, handle);
    for (uint64_t i = 0; i < kOps; ++i) {
      const sim::Event e = q.pop();
      g_sink += e.seq;
      q.push(e.time + delay(), seq++, handle);
    }
  });
}

// --- rpc + nfs: COMPOUND encode/decode ---------------------------------------

// One call's XDR work on both ends: the caller encodes header and
// SEQUENCE+PUTFH+op, the server decodes them and encodes the op results,
// the caller decodes the reply.
template <typename Args, typename Res>
void round_trip(nfs::OpCode op, const Args& args, const Res& res) {
  rpc::CallHeader h;
  h.xid = 7;
  h.prog = 100003;
  h.vers = 4;
  h.proc = nfs::kProcCompound;
  h.trace_id = 0x1234;
  h.span_id = 0x5678;
  rpc::XdrEncoder head;
  h.encode(head);
  nfs::CompoundBuilder b;
  b.add(nfs::OpCode::kSequence, nfs::SequenceArgs{nfs::SessionId{9}, 3});
  b.add(nfs::OpCode::kPutFh, nfs::PutFhArgs{nfs::FileHandle{42}});
  b.add(op, args);
  rpc::XdrEncoder body = std::move(b).finish();

  const std::vector<std::byte> hb = std::move(head).take();
  rpc::XdrDecoder hd(hb);
  g_sink += rpc::CallHeader::decode(hd).xid;
  const std::vector<std::byte> bb = std::move(body).take();
  rpc::XdrDecoder d(bb);
  const uint32_t n = d.get_u32();
  for (uint32_t i = 0; i < n; ++i) {
    const auto code = static_cast<nfs::OpCode>(d.get_u32());
    if (code == nfs::OpCode::kSequence) {
      g_sink += nfs::SequenceArgs::decode(d).slot;
    } else if (code == nfs::OpCode::kPutFh) {
      g_sink += nfs::PutFhArgs::decode(d).fh.id;
    } else {
      Args::decode(d);
    }
  }

  rpc::XdrEncoder reply;
  nfs::OpResultHeader{nfs::OpCode::kSequence, nfs::Status::kOk}.encode(reply);
  nfs::OpResultHeader{nfs::OpCode::kPutFh, nfs::Status::kOk}.encode(reply);
  nfs::OpResultHeader{op, nfs::Status::kOk}.encode(reply);
  res.encode(reply);
  const std::vector<std::byte> rb = std::move(reply).take();
  rpc::XdrDecoder rd(rb);
  for (int i = 0; i < 3; ++i) nfs::OpResultHeader::decode(rd);
  Res::decode(rd);
  g_sink += rb.size();
}

// Mean over the data (WRITE, READ) and metadata (OPEN, COMMIT) compounds
// every workload here issues.
double replay_xdr(const ReplayInput& in) {
  const rpc::Payload data =
      in.inline_payload
          ? rpc::Payload::inline_bytes(std::vector<std::byte>(in.io_bytes))
          : rpc::Payload::virtual_bytes(in.io_bytes);
  const nfs::Stateid sid{0xD5D5};
  const nfs::WriteArgs write(sid, 1 << 20, nfs::StableHow::kUnstable, data);
  const nfs::WriteRes write_res{in.io_bytes, nfs::StableHow::kUnstable, 1, 2};
  const nfs::ReadArgs read(sid, 1 << 20, static_cast<uint32_t>(in.io_bytes));
  const nfs::ReadRes read_res{false, data};
  const nfs::OpenArgs open{"f0", false, nfs::ShareAccess::kBoth};
  const nfs::OpenRes open_res{};
  const nfs::CommitArgs commit{0, 0};
  const nfs::CommitRes commit_res{3};
  const uint64_t iters = in.inline_payload ? 200 : 20'000;
  return median_ns_per_unit(4 * iters, [&] {
    for (uint64_t i = 0; i < iters; ++i) {
      round_trip(nfs::OpCode::kWrite, write, write_res);
      round_trip(nfs::OpCode::kRead, read, read_res);
      round_trip(nfs::OpCode::kOpen, open, open_res);
      round_trip(nfs::OpCode::kCommit, commit, commit_res);
    }
  });
}

// --- util: Reed-Solomon --------------------------------------------------------

constexpr size_t kShardBytes = 256 << 10;

std::vector<std::vector<std::byte>> random_shards(uint32_t k) {
  util::Rng rng(0xEC);
  std::vector<std::vector<std::byte>> shards(k);
  for (auto& s : shards) {
    s.resize(kShardBytes);
    for (auto& b : s) b = static_cast<std::byte>(rng.next());
  }
  return shards;
}

// Encode cost per KiB of data shards coded.
double replay_rs_encode(const ReplayInput& in) {
  const util::ReedSolomon rs(in.ec_k, in.ec_m);
  const auto data = random_shards(in.ec_k);
  std::vector<std::vector<std::byte>> parity;
  return median_ns_per_unit(in.ec_k * kShardBytes / 1024, [&] {
    rs.encode(data, &parity);
    g_sink += static_cast<uint64_t>(parity[0][0]);
  });
}

// Reconstruct cost per KiB of the one lost data shard rebuilt from k
// survivors (what a degraded read of one stripe unit needs).
double replay_rs_decode(const ReplayInput& in) {
  const util::ReedSolomon rs(in.ec_k, in.ec_m);
  const auto data = random_shards(in.ec_k);
  std::vector<std::vector<std::byte>> parity;
  rs.encode(data, &parity);
  std::vector<std::optional<std::vector<std::byte>>> full;
  for (const auto& s : data) full.emplace_back(s);
  for (const auto& s : parity) full.emplace_back(s);
  return median_ns_per_unit(kShardBytes / 1024, [&] {
    auto shards = full;
    shards[0].reset();
    g_sink += rs.reconstruct(&shards) ? 1 : 0;
  });
}

// --- core: EC aggregation driver -----------------------------------------------

// map_read and map_write of one stripe unit at successive offsets.
double replay_ec_map(const ReplayInput& in) {
  nfs::FileLayout layout;
  layout.aggregation = nfs::AggregationType::kErasureCoded;
  layout.stripe_unit = in.stripe_unit;
  for (uint32_t i = 0; i < in.ec_k + in.ec_m; ++i) {
    layout.devices.push_back(nfs::DeviceId{i});
    layout.fhs.push_back(nfs::FileHandle{100 + i});
  }
  layout.params = {in.ec_k, in.ec_m};
  const core::ErasureCodedDriver driver;
  constexpr uint64_t kCalls = 100'000;
  return median_ns_per_unit(2 * kCalls, [&] {
    for (uint64_t i = 0; i < kCalls; ++i) {
      const uint64_t off = i * in.stripe_unit;
      g_sink += driver.map_read(layout, off, in.stripe_unit).size();
      g_sink += driver.map_write(layout, off, in.stripe_unit).size();
    }
  });
}

}  // namespace

ReplayCosts run_replays(const ReplayInput& in) {
  ReplayCosts c;
  c.ns_per_event = replay_event_core(in);
  c.ns_per_compound_xdr = replay_xdr(in);
  if (in.ec_k > 0) {
    c.rs_encode_ns_per_kib = replay_rs_encode(in);
    c.rs_decode_ns_per_kib = replay_rs_decode(in);
    c.ec_map_ns_per_call = replay_ec_map(in);
  }
  c.sink = g_sink;
  return c;
}

}  // namespace perfbench
