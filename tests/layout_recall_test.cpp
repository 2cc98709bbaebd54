// Backchannel / CB_LAYOUTRECALL tests on the full Direct-pNFS deployment:
// layouts are valid until recalled (paper §5); conflicting metadata
// operations recall them, and clients fall back to MDS I/O transparently.
#include <gtest/gtest.h>

#include "core/deployment.hpp"
#include "util/bytes.hpp"

namespace dpnfs::core {
namespace {

using namespace dpnfs::util::literals;
using rpc::Payload;
using sim::Task;

ClusterConfig small() {
  ClusterConfig cfg;
  cfg.architecture = Architecture::kDirectPnfs;
  cfg.storage_nodes = 4;
  cfg.clients = 2;
  cfg.stripe_unit = 256 * 1024;
  return cfg;
}

nfs::NfsClient& native(Deployment& d, size_t i) {
  return static_cast<NfsFileSystemClient&>(d.client(i)).native();
}

TEST(LayoutRecall, TruncateByAnotherClientRecallsLayout) {
  Deployment d(small());
  {
    d.simulation().spawn([](Deployment& d) -> Task<void> {
      co_await d.mount_all();
      auto& a = native(d, 0);
      auto& b = native(d, 1);

      auto fa = co_await a.open("/shared", true);
      co_await a.write(fa, 0, Payload::virtual_bytes(4_MiB));
      co_await a.fsync(fa);
      EXPECT_TRUE(a.file_has_layout(fa));

      co_await b.truncate("/shared", 1_MiB);

      // A's layout was recalled; its cached size is still its own view, but
      // the layout is gone and further I/O flows through the MDS.
      EXPECT_FALSE(a.file_has_layout(fa));
      EXPECT_EQ(a.layout_recalls_served(), 1u);
      co_await a.write(fa, 1_MiB, Payload::from_string("after recall"));
      co_await a.fsync(fa);
      co_await a.close(fa);

      // Content written through the MDS fallback is visible to B.
      auto fb = co_await b.open("/shared", false);
      Payload p = co_await b.read(fb, 1_MiB, 12);
      EXPECT_EQ(p, Payload::from_string("after recall"));
      co_await b.close(fb);
    }(d));
    d.simulation().run();
  }
  ASSERT_NE(d.translator(), nullptr);
}

TEST(LayoutRecall, RecallFlushesDirtyDataFirst) {
  Deployment d(small());
  d.simulation().spawn([](Deployment& d) -> Task<void> {
    co_await d.mount_all();
    auto& a = native(d, 0);
    auto& b = native(d, 1);

    auto fa = co_await a.open("/f", true);
    // Leave data dirty in A's cache (smaller than a full wsize chunk so the
    // write-back pipeline hasn't pushed it).
    co_await a.write(fa, 0, Payload::from_string("dirty-but-precious"));

    // B truncating to a LARGER size recalls A's layout; A must flush its
    // dirty bytes through the old layout before dropping it.
    co_await b.truncate("/f", 64);
    EXPECT_FALSE(a.file_has_layout(fa));

    auto fb = co_await b.open("/f", false);
    Payload p = co_await b.read(fb, 0, 18);
    EXPECT_EQ(p, Payload::from_string("dirty-but-precious"));
    co_await b.close(fb);
    co_await a.close(fa);
  }(d));
  d.simulation().run();
}

TEST(LayoutRecall, RemoveRecallsHoldersLayout) {
  Deployment d(small());
  d.simulation().spawn([](Deployment& d) -> Task<void> {
    co_await d.mount_all();
    auto& a = native(d, 0);
    auto& b = native(d, 1);

    auto fa = co_await a.open("/victim", true);
    co_await a.write(fa, 0, Payload::virtual_bytes(1_MiB));
    co_await a.fsync(fa);
    EXPECT_TRUE(a.file_has_layout(fa));

    co_await b.remove("/victim");
    EXPECT_FALSE(a.file_has_layout(fa));
    EXPECT_GE(a.layout_recalls_served(), 1u);
  }(d));
  d.simulation().run();
}

TEST(LayoutRecall, SelfTruncateAlsoRecallsOwnLayout) {
  Deployment d(small());
  d.simulation().spawn([](Deployment& d) -> Task<void> {
    co_await d.mount_all();
    auto& a = native(d, 0);
    auto fa = co_await a.open("/self", true);
    co_await a.write(fa, 0, Payload::virtual_bytes(2_MiB));
    co_await a.fsync(fa);
    EXPECT_TRUE(a.file_has_layout(fa));
    co_await a.truncate("/self", 1_MiB);
    EXPECT_FALSE(a.file_has_layout(fa));
    EXPECT_EQ(a.file_size(fa), 1_MiB);
    co_await a.close(fa);
  }(d));
  d.simulation().run();
}

/// Client 0 writes 64 MiB and truncates its own file to 1 MiB while most
/// of that write-back is still queued, then fsyncs and closes; returns the
/// size client 1 then sees.  Extents dispatched after the SETATTR would
/// regrow the file.
uint64_t size_after_self_truncate(Architecture arch) {
  ClusterConfig cfg = small();
  cfg.architecture = arch;
  Deployment d(cfg);
  uint64_t size = 0;
  d.simulation().spawn([](Deployment& d, uint64_t& size) -> Task<void> {
    co_await d.mount_all();
    auto& a = native(d, 0);
    auto fa = co_await a.open("/self", true);
    co_await a.write(fa, 0, Payload::virtual_bytes(64_MiB));
    co_await a.truncate("/self", 1_MiB);
    co_await a.fsync(fa);
    co_await a.close(fa);
    size = (co_await native(d, 1).stat("/self")).size;
  }(d, size));
  d.simulation().run();
  return size;
}

TEST(LayoutRecall, SelfTruncateWithQueuedWriteBackStaysTruncated) {
  EXPECT_EQ(size_after_self_truncate(Architecture::kPlainNfs), 1_MiB);
  EXPECT_EQ(size_after_self_truncate(Architecture::kDirectPnfs), 1_MiB);
}

TEST(LayoutRecall, NoBackchannelMeansNoRecallTraffic) {
  ClusterConfig cfg = small();
  cfg.nfs_client.enable_backchannel = false;
  Deployment d(cfg);
  d.simulation().spawn([](Deployment& d) -> Task<void> {
    co_await d.mount_all();
    auto& a = native(d, 0);
    auto& b = native(d, 1);
    auto fa = co_await a.open("/f", true);
    co_await a.write(fa, 0, Payload::virtual_bytes(1_MiB));
    co_await a.fsync(fa);
    co_await b.truncate("/f", 64);
    // Without a registered backchannel the server has nobody to recall;
    // the truncate still succeeds.
    EXPECT_EQ(a.layout_recalls_served(), 0u);
    co_await a.close(fa);
  }(d));
  d.simulation().run();
}

}  // namespace
}  // namespace dpnfs::core
