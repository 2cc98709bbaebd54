// The per-data-server write-back scheduler on its own, behind a fake
// dispatcher that records what it is asked to send: newest-data-wins
// trimming, run merging up to wsize, WRITEV folding capped at
// listio_max_regions, the different-filehandle requeue, and the
// background-COMMIT trigger.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "nfs/writeback.hpp"
#include "rpc/fabric.hpp"
#include "sim/network.hpp"
#include "util/bytes.hpp"

namespace dpnfs::nfs {
namespace {

using namespace dpnfs::util::literals;
using rpc::Payload;
using sim::Task;

constexpr rpc::RpcAddress kDs{1, rpc::kNfsPort};
constexpr rpc::RpcAddress kMds{9, rpc::kNfsPort};

/// What one dispatch carried.
struct Sent {
  bool commit = false;
  sim::Time at = 0;
  std::vector<IoSlice> slices;
  std::vector<Payload> payloads;
};

struct SchedRig {
  sim::Simulation sim;
  sim::Network net{sim};
  rpc::RpcFabric fabric{net};
  sim::Node& node = net.add_node(sim::NodeParams{.name = "client",
                                                 .nic = sim::NicParams{},
                                                 .disk = std::nullopt,
                                                 .cpu = sim::CpuParams{}});
  ClientConfig config;
  ClientStats stats;
  sim::Duration commit_time = 0;  ///< how long a fake COMMIT takes
  std::vector<Sent> sent;
  FilePtr file = std::make_shared<FileState>();
  std::unique_ptr<WritebackScheduler> wb;

  explicit SchedRig(ClientConfig cfg = {}) : config(cfg) {
    file->attr.fileid = 7;
    file->wb_inflight = std::make_unique<sim::WaitGroup>(sim);
    wb = std::make_unique<WritebackScheduler>(
        fabric, node, kMds, config, stats,
        [this](WbDispatch& d) { return dispatch(d); });
  }

  Task<bool> dispatch(WbDispatch& d) {
    EXPECT_EQ(&d.file, file.get());
    sent.push_back(Sent{d.commit, sim.now(), d.slices, d.payloads});
    if (d.commit) co_await sim.delay(commit_time);
    co_return true;
  }

  /// Queues `text` at `offset` of device `dev` (file and target offsets
  /// coincide).
  void enqueue(uint64_t offset, const std::string& text, size_t dev = 0) {
    IoSlice s;
    s.device_index = dev;
    s.addr = kDs;
    s.fh = FileHandle{100 + dev};
    s.target_offset = offset;
    s.file_offset = offset;
    s.length = text.size();
    wb->enqueue(file, s, Payload::from_string(text));
  }

  void run() {
    sim.run();
    EXPECT_EQ(file->wb_inflight->pending(), 0u);
  }

  std::vector<Sent> writes() const {
    std::vector<Sent> out;
    for (const Sent& s : sent) {
      if (!s.commit) out.push_back(s);
    }
    return out;
  }
};

/// The concatenated bytes of one dispatch.
std::string bytes_of(const Sent& s) {
  Payload all;
  for (const Payload& p : s.payloads) all.append(p);
  const auto span = all.data();
  return std::string(reinterpret_cast<const char*>(span.data()), span.size());
}

TEST(WritebackSched, NewestDataWinsTrimsHeadAndTail) {
  ClientConfig cfg;
  cfg.coalesce_writes = false;
  SchedRig r(cfg);
  r.enqueue(0, std::string(64, 'a'));
  r.enqueue(16, std::string(16, 'b'));  // lands inside the queued extent
  r.run();
  const auto w = r.writes();
  ASSERT_EQ(w.size(), 3u);  // head, new bytes, tail — in elevator order
  EXPECT_EQ(w[0].slices[0].target_offset, 0u);
  EXPECT_EQ(bytes_of(w[0]), std::string(16, 'a'));
  EXPECT_EQ(w[1].slices[0].target_offset, 16u);
  EXPECT_EQ(bytes_of(w[1]), std::string(16, 'b'));
  EXPECT_EQ(w[2].slices[0].target_offset, 32u);
  EXPECT_EQ(w[2].slices[0].file_offset, 32u);
  EXPECT_EQ(w[2].slices[0].length, 32u);
  EXPECT_EQ(bytes_of(w[2]), std::string(32, 'a'));
}

TEST(WritebackSched, TrimmedPiecesMergeBackIntoOneWrite) {
  SchedRig r;
  r.enqueue(0, std::string(64, 'a'));
  r.enqueue(16, std::string(16, 'b'));
  r.run();
  const auto w = r.writes();
  ASSERT_EQ(w.size(), 1u);
  ASSERT_EQ(w[0].slices.size(), 1u);
  EXPECT_EQ(w[0].slices[0].length, 64u);
  EXPECT_EQ(bytes_of(w[0]),
            std::string(16, 'a') + std::string(16, 'b') + std::string(32, 'a'));
  EXPECT_EQ(r.stats.sched_writes, 1u);
  EXPECT_EQ(r.stats.sched_coalesced_extents, 2u);
  EXPECT_EQ(r.stats.sched_coalesced_bytes, 48u);
}

TEST(WritebackSched, AdjacentRunsMergeUpToWsize) {
  ClientConfig cfg;
  cfg.wsize = 64;
  cfg.listio_max_regions = 1;  // one run per WRITE
  SchedRig r(cfg);
  for (uint64_t i = 0; i < 12; ++i) r.enqueue(i * 8, std::string(8, 'x'));
  r.enqueue(200, std::string(160, 'y'));  // alone larger than wsize: split
  r.run();
  const auto w = r.writes();
  ASSERT_EQ(w.size(), 5u);
  const uint64_t want_start[] = {0, 64, 200, 264, 328};
  const uint64_t want_len[] = {64, 32, 64, 64, 32};
  for (size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(w[i].slices.size(), 1u) << i;
    EXPECT_EQ(w[i].slices[0].target_offset, want_start[i]) << i;
    EXPECT_EQ(w[i].slices[0].length, want_len[i]) << i;
  }
  EXPECT_EQ(r.stats.sched_coalesced_extents, 10u);  // 7 + 3 riders
}

TEST(WritebackSched, StridedRunsFoldIntoWritevCappedAtListioMaxRegions) {
  ClientConfig cfg;
  cfg.listio_max_regions = 4;
  SchedRig r(cfg);
  for (uint64_t i = 0; i < 10; ++i) r.enqueue(i * 16, std::string(8, 'z'));
  r.run();
  const auto w = r.writes();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].slices.size(), 4u);
  EXPECT_EQ(w[1].slices.size(), 4u);
  EXPECT_EQ(w[2].slices.size(), 2u);
  EXPECT_EQ(w[1].slices[0].target_offset, 64u);
  EXPECT_EQ(r.stats.vectored_writes, 3u);
  EXPECT_EQ(r.stats.vectored_regions, 10u);
  EXPECT_EQ(r.stats.vectored_bytes, 80u);
}

TEST(WritebackSched, DifferentFilehandleOnTheSameServerIsRequeued) {
  SchedRig r;
  r.enqueue(0, std::string(8, 'p'), /*dev=*/0);
  r.enqueue(32, std::string(8, 'q'), /*dev=*/3);  // same server, other route
  r.enqueue(48, std::string(8, 'r'), /*dev=*/3);
  r.run();
  const auto w = r.writes();
  ASSERT_EQ(w.size(), 2u);
  ASSERT_EQ(w[0].slices.size(), 1u);
  EXPECT_EQ(w[0].slices[0].device_index, 0u);
  ASSERT_EQ(w[1].slices.size(), 2u);  // the requeued run leads the next one
  EXPECT_EQ(w[1].slices[0].device_index, 3u);
  EXPECT_EQ(w[1].slices[1].device_index, 3u);
  EXPECT_EQ(bytes_of(w[1]), std::string(8, 'q') + std::string(8, 'r'));
}

TEST(WritebackSched, BacklogTriggersOneBackgroundCommitAtATime) {
  ClientConfig cfg;
  cfg.wsize = 32_KiB;
  cfg.wb_commit_backlog = 64_KiB;
  SchedRig r(cfg);
  r.commit_time = sim::ms(10);  // still running when the backlog refills
  for (uint64_t i = 0; i < 4; ++i) {
    r.enqueue(i * 32_KiB, std::string(32_KiB, 'c'), /*dev=*/2);
  }
  r.run();
  ASSERT_EQ(r.sent.size(), 5u);
  EXPECT_FALSE(r.sent[1].commit);
  EXPECT_TRUE(r.sent[2].commit);  // right after the second 32 KiB WRITE
  ASSERT_EQ(r.sent[2].slices.size(), 1u);
  EXPECT_EQ(r.sent[2].slices[0].device_index, 2u);
  // The other 64 KiB completed under the running COMMIT: no second one.
  EXPECT_EQ(r.writes().size(), 4u);
}

TEST(WritebackSched, BacklogCountsFromZeroAfterEachCommit) {
  ClientConfig cfg;
  cfg.wsize = 32_KiB;
  cfg.wb_commit_backlog = 64_KiB;
  SchedRig r(cfg);  // COMMITs finish at once
  for (uint64_t i = 0; i < 6; ++i) {
    r.enqueue(i * 32_KiB, std::string(32_KiB, 'f'));
  }
  r.run();
  std::string kinds;
  for (const Sent& s : r.sent) kinds += s.commit ? 'C' : 'W';
  EXPECT_EQ(kinds, "WWCWWCWWC");  // one COMMIT per 64 KiB completed
}

TEST(WritebackSched, NoBackgroundCommitWhenDisabledOrReset) {
  ClientConfig cfg;
  cfg.wsize = 32_KiB;
  cfg.wb_commit_backlog = 0;
  SchedRig off(cfg);
  for (uint64_t i = 0; i < 4; ++i) {
    off.enqueue(i * 32_KiB, std::string(32_KiB, 'd'));
  }
  off.run();
  EXPECT_EQ(off.sent.size(), 4u);

  cfg.wb_commit_backlog = 64_KiB;
  SchedRig reset(cfg);
  reset.enqueue(0, std::string(32_KiB, 'e'));
  reset.run();
  reset.wb->reset_backlog(reset.file->attr.fileid);  // as after an fsync
  reset.enqueue(32_KiB, std::string(32_KiB, 'e'));
  reset.run();
  EXPECT_EQ(reset.sent.size(), 2u);  // 32 KiB + 32 KiB, never 64 KiB owed
}

}  // namespace
}  // namespace dpnfs::nfs
