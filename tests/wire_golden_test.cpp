// Golden wire-format tests: exact byte sequences for representative
// messages.  These freeze the on-the-wire protocol — any codec change that
// alters serialization (and would silently break mixed-version clusters in
// a real deployment) fails here first.
#include <gtest/gtest.h>

#include <string>

#include "nfs/ops.hpp"
#include "rpc/message.hpp"
#include "util/rng.hpp"

namespace dpnfs {
namespace {

std::string hex(const std::vector<std::byte>& buf) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(buf.size() * 2);
  for (std::byte b : buf) {
    out.push_back(digits[static_cast<uint8_t>(b) >> 4]);
    out.push_back(digits[static_cast<uint8_t>(b) & 0xF]);
  }
  return out;
}

TEST(WireGolden, CallHeader) {
  rpc::XdrEncoder enc;
  rpc::CallHeader{0x2A, 100003, 4, 1, 7, 9, 0, "ab"}.encode(enc);
  // xid | prog | vers | proc | trace | span | flags | strlen | "ab" + 2 pad
  EXPECT_EQ(hex(std::move(enc).take()),
            "0000002a"           // xid 42
            "000186a3"           // program 100003
            "00000004"           // version 4
            "00000001"           // procedure COMPOUND
            "0000000000000007"   // trace id 7
            "0000000000000009"   // span id 9
            "00000000"           // flags (unsampled)
            "00000002"           // principal length
            "61620000");         // "ab" + XDR padding
}

TEST(WireGolden, CallHeaderSampledBit) {
  rpc::XdrEncoder enc;
  rpc::CallHeader{0x2A, 100003, 4, 1, 7, 9, rpc::kFlagSampled, "ab"}
      .encode(enc);
  // The head-sampling verdict is bit 0 of the flags word: this is how a
  // trace's "keep span detail" decision crosses the wire to other nodes.
  EXPECT_EQ(hex(std::move(enc).take()),
            "0000002a"           // xid 42
            "000186a3"           // program 100003
            "00000004"           // version 4
            "00000001"           // procedure COMPOUND
            "0000000000000007"   // trace id 7
            "0000000000000009"   // span id 9
            "00000001"           // flags: kFlagSampled
            "00000002"           // principal length
            "61620000");         // "ab" + XDR padding
}

TEST(WireGolden, CallHeaderTenantBit) {
  rpc::XdrEncoder enc;
  rpc::CallHeader h{0x2A, 100003, 4, 1, 7, 9, rpc::kFlagSampled, "ab"};
  h.tenant_id = 0x11;
  h.encode(enc);
  // A nonzero tenant sets bit 1 of the flags word and appends the tenant u32
  // between flags and principal; zero-tenant headers (the two pins above)
  // stay byte-identical to the legacy layout.
  const std::vector<std::byte> wire = std::move(enc).take();
  EXPECT_EQ(hex(wire),
            "0000002a"           // xid 42
            "000186a3"           // program 100003
            "00000004"           // version 4
            "00000001"           // procedure COMPOUND
            "0000000000000007"   // trace id 7
            "0000000000000009"   // span id 9
            "00000003"           // flags: kFlagSampled | kFlagHasTenant
            "00000011"           // tenant id 17
            "00000002"           // principal length
            "61620000");         // "ab" + XDR padding
  rpc::XdrDecoder dec(wire);
  const rpc::CallHeader back = rpc::CallHeader::decode(dec);
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(back.tenant_id, 0x11u);
  EXPECT_EQ(back.principal, "ab");
  EXPECT_NE(back.flags & rpc::kFlagSampled, 0u);
}

TEST(WireGolden, SequencePutFhReadCompound) {
  nfs::CompoundBuilder b;
  b.add(nfs::OpCode::kSequence, nfs::SequenceArgs{nfs::SessionId{1}, 0});
  b.add(nfs::OpCode::kPutFh, nfs::PutFhArgs{nfs::FileHandle{0xBEEF}});
  b.add(nfs::OpCode::kRead, nfs::ReadArgs{nfs::Stateid{7}, 0x1000, 0x2000});
  rpc::XdrEncoder enc = std::move(b).finish();
  EXPECT_EQ(hex(std::move(enc).take()),
            "00000003"          // 3 ops
            "00000035"          // SEQUENCE (53)
            "0000000000000001"  // session id 1
            "00000000"          // slot 0
            "00000016"          // PUTFH (22)
            "000000000000beef"  // filehandle
            "00000019"          // READ (25)
            "0000000000000007"  // stateid 7
            "0000000000001000"  // offset
            "00002000");        // count
}

TEST(WireGolden, SequencePutFhReadvCompound) {
  // Two or more regions switch the op to READV (70, above the RFC range);
  // the 1-element case stays byte-identical to the classic READ pin above.
  nfs::ReadArgs readv{nfs::Stateid{7}, {{0x1000, 0x800}, {0x5000, 0x800}}};
  EXPECT_EQ(readv.opcode(), nfs::OpCode::kReadv);
  nfs::CompoundBuilder b;
  b.add(nfs::OpCode::kSequence, nfs::SequenceArgs{nfs::SessionId{1}, 0});
  b.add(nfs::OpCode::kPutFh, nfs::PutFhArgs{nfs::FileHandle{0xBEEF}});
  b.add(readv.opcode(), readv);
  rpc::XdrEncoder enc = std::move(b).finish();
  EXPECT_EQ(hex(std::move(enc).take()),
            "00000003"          // 3 ops
            "00000035"          // SEQUENCE (53)
            "0000000000000001"  // session id 1
            "00000000"          // slot 0
            "00000016"          // PUTFH (22)
            "000000000000beef"  // filehandle
            "00000046"          // READV (70)
            "0000000000000007"  // stateid 7
            "00000002"          // 2 regions
            "0000000000001000"  // region 0 offset
            "00000800"          // region 0 count
            "0000000000005000"  // region 1 offset
            "00000800");        // region 1 count
}

TEST(WireGolden, WritevArgsRoundTrip) {
  std::vector<std::byte> bytes(12);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(i);
  }
  nfs::WriteArgs w{nfs::Stateid{7},
                   {{0x1000, 8}, {0x3000, 4}},
                   nfs::StableHow::kUnstable,
                   rpc::Payload::inline_bytes(std::move(bytes))};
  EXPECT_EQ(w.opcode(), nfs::OpCode::kWritev);
  rpc::XdrEncoder enc;
  w.encode(enc);
  const std::vector<std::byte> wire = std::move(enc).take();
  EXPECT_EQ(hex(wire),
            "0000000000000007"  // stateid 7
            "00000000"          // stable = UNSTABLE4 (covers every region)
            "00000002"          // 2 regions
            "0000000000001000"  // region 0 offset
            "00000008"          // region 0 count
            "0000000000003000"  // region 1 offset
            "00000004"          // region 1 count
            "00000001"          // payload: inline discriminant
            "0000000c"          // 12 bytes — regions' data concatenated
            "000102030405060708090a0b");
  rpc::XdrDecoder dec(wire);
  const nfs::WriteArgs back = nfs::WriteArgs::decode_vectored(dec);
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(back.regions.size(), 2u);
  EXPECT_EQ(back.regions[0].offset, 0x1000u);
  EXPECT_EQ(back.regions[0].count, 8u);
  EXPECT_EQ(back.regions[1].offset, 0x3000u);
  EXPECT_EQ(back.regions[1].count, 4u);
  EXPECT_EQ(back.total_count(), back.data.size());
}

TEST(WireGolden, SingleRangeWriteArgsKeepLegacyLayout) {
  // The 1-element vectored WriteArgs must emit the pre-LISTIO layout
  // byte-for-byte (offset before stable_how, no region list): old and new
  // nodes interoperate on single-range WRITEs.
  nfs::WriteArgs w{nfs::Stateid{7}, 0x1000, nfs::StableHow::kFileSync,
                   rpc::Payload::from_string("hi")};
  EXPECT_EQ(w.opcode(), nfs::OpCode::kWrite);
  rpc::XdrEncoder enc;
  w.encode(enc);
  const std::vector<std::byte> wire = std::move(enc).take();
  EXPECT_EQ(hex(wire),
            "0000000000000007"  // stateid 7
            "0000000000001000"  // offset
            "00000002"          // stable = FILE_SYNC4
            "00000001"          // payload: inline discriminant
            "00000002"          // length 2
            "68690000");        // "hi" + padding
  rpc::XdrDecoder dec(wire);
  const nfs::WriteArgs back = nfs::WriteArgs::decode(dec);
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(back.regions.size(), 1u);
  EXPECT_EQ(back.regions[0].offset, 0x1000u);
  EXPECT_EQ(back.regions[0].count, 2u);
}

TEST(WireGolden, ReadvResEncoding) {
  std::vector<std::byte> bytes(8);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(i);
  }
  nfs::ReadvRes res;
  res.eof = true;
  res.lengths = {5, 3};
  res.data = rpc::Payload::inline_bytes(std::move(bytes));
  rpc::XdrEncoder enc;
  res.encode(enc);
  const std::vector<std::byte> wire = std::move(enc).take();
  EXPECT_EQ(hex(wire),
            "00000001"    // eof (any region hit it)
            "00000002"    // 2 per-region lengths
            "00000005"    // region 0 delivered 5 bytes
            "00000003"    // region 1 delivered 3 bytes
            "00000001"    // payload: inline discriminant
            "00000008"    // one scatter-gather body, 8 bytes
            "0001020304050607");
  rpc::XdrDecoder dec(wire);
  const nfs::ReadvRes back = nfs::ReadvRes::decode(dec);
  EXPECT_TRUE(dec.done());
  EXPECT_TRUE(back.eof);
  EXPECT_EQ(back.lengths, (std::vector<uint32_t>{5, 3}));
  EXPECT_EQ(back.data.size(), 8u);
}

TEST(WireGolden, FileLayout) {
  nfs::FileLayout l;
  l.aggregation = nfs::AggregationType::kRoundRobin;
  l.stripe_unit = 0x200000;
  l.devices = {nfs::DeviceId{0}, nfs::DeviceId{1}};
  l.fhs = {nfs::FileHandle{10}, nfs::FileHandle{11}};
  rpc::XdrEncoder enc;
  l.encode(enc);
  EXPECT_EQ(hex(std::move(enc).take()),
            "00000001"          // round-robin
            "0000000000200000"  // 2 MiB stripe unit
            "00000002"          // 2 devices
            "00000000"          // device 0
            "00000001"          // device 1
            "00000002"          // 2 filehandles
            "000000000000000a"  // fh 10
            "000000000000000b"  // fh 11
            "00000000");        // 0 params
}

TEST(WireGolden, ErasureCodedFileLayout) {
  // EC(2+1): the k/m split rides the existing params list — no new wire
  // fields, so pre-redundancy decoders still parse the layout body.
  nfs::FileLayout l;
  l.aggregation = nfs::AggregationType::kErasureCoded;
  l.stripe_unit = 0x10000;
  l.devices = {nfs::DeviceId{0}, nfs::DeviceId{1}, nfs::DeviceId{2}};
  l.fhs = {nfs::FileHandle{7}, nfs::FileHandle{8}, nfs::FileHandle{9}};
  l.params = {2, 1};  // k data + m parity fragments
  rpc::XdrEncoder enc;
  l.encode(enc);
  const std::vector<std::byte> wire = std::move(enc).take();
  EXPECT_EQ(hex(wire),
            "00000006"          // erasure-coded
            "0000000000010000"  // 64 KiB stripe unit
            "00000003"          // 3 devices (k + m)
            "00000000"          // device 0 (data)
            "00000001"          // device 1 (data)
            "00000002"          // device 2 (parity)
            "00000003"          // 3 filehandles
            "0000000000000007"  // fh 7
            "0000000000000008"  // fh 8
            "0000000000000009"  // fh 9
            "00000002"          // 2 params
            "0000000000000002"  // k = 2
            "0000000000000001"); // m = 1
  rpc::XdrDecoder dec(wire);
  const nfs::FileLayout back = nfs::FileLayout::decode(dec);
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(back.aggregation, nfs::AggregationType::kErasureCoded);
  EXPECT_EQ(back.params, (std::vector<uint64_t>{2, 1}));
}

// EC(2+1) with device 1 down: the aggregation word carries
// kLayoutFlagUnavailable and the unavailable list trails the params.
nfs::FileLayout flagged_ec_layout() {
  nfs::FileLayout l;
  l.aggregation = nfs::AggregationType::kErasureCoded;
  l.stripe_unit = 0x10000;
  l.devices = {nfs::DeviceId{0}, nfs::DeviceId{1}, nfs::DeviceId{2}};
  l.fhs = {nfs::FileHandle{7}, nfs::FileHandle{8}, nfs::FileHandle{9}};
  l.params = {2, 1};
  l.unavailable = {nfs::DeviceId{1}};
  return l;
}

std::vector<std::byte> encode_reply(const nfs::FileLayout& l) {
  rpc::XdrEncoder enc;
  nfs::LayoutGetRes{l}.encode(enc);
  return std::move(enc).take();
}

TEST(WireGolden, FlaggedLayoutGetReply) {
  // The two pins above are the unflagged encoding, unchanged: the flag and
  // the trailing list appear only when a device is down.
  const std::vector<std::byte> wire = encode_reply(flagged_ec_layout());
  EXPECT_EQ(hex(wire),
            "80000006"          // erasure-coded | kLayoutFlagUnavailable
            "0000000000010000"  // 64 KiB stripe unit
            "00000003"          // 3 devices (k + m)
            "00000000"          // device 0 (data)
            "00000001"          // device 1 (data)
            "00000002"          // device 2 (parity)
            "00000003"          // 3 filehandles
            "0000000000000007"  // fh 7
            "0000000000000008"  // fh 8
            "0000000000000009"  // fh 9
            "00000002"          // 2 params
            "0000000000000002"  // k = 2
            "0000000000000001"  // m = 1
            "00000001"          // 1 unavailable device
            "00000001");        // device 1
  rpc::XdrDecoder dec(wire);
  const nfs::FileLayout back = nfs::LayoutGetRes::decode(dec).layout;
  EXPECT_TRUE(dec.done());
  EXPECT_EQ(back.aggregation, nfs::AggregationType::kErasureCoded);
  EXPECT_EQ(back.unavailable, (std::vector<nfs::DeviceId>{nfs::DeviceId{1}}));
  EXPECT_EQ(encode_reply(back), wire);
}

TEST(WireGolden, FlaggedLayoutRejectsBadUnavailableList) {
  const auto rejects = [](const nfs::FileLayout& l) {
    const std::vector<std::byte> wire = encode_reply(l);
    rpc::XdrDecoder dec(wire);
    EXPECT_THROW(nfs::LayoutGetRes::decode(dec), rpc::XdrError);
  };
  nfs::FileLayout longer = flagged_ec_layout();
  longer.unavailable = {nfs::DeviceId{0}, nfs::DeviceId{1}, nfs::DeviceId{2},
                        nfs::DeviceId{0}};
  rejects(longer);  // more entries than the device list
  nfs::FileLayout stranger = flagged_ec_layout();
  stranger.unavailable = {nfs::DeviceId{9}};
  rejects(stranger);  // names a device the layout does not use
  nfs::FileLayout twice = flagged_ec_layout();
  twice.unavailable = {nfs::DeviceId{1}, nfs::DeviceId{1}};
  rejects(twice);
  nfs::FileLayout striped = flagged_ec_layout();
  striped.aggregation = nfs::AggregationType::kRoundRobin;
  striped.params.clear();
  rejects(striped);  // only redundant layouts may carry the flag

  // The flag with an empty list cannot come from the encoder.
  std::vector<std::byte> wire = encode_reply(flagged_ec_layout());
  wire.resize(wire.size() - 8);
  wire.resize(wire.size() + 4, std::byte{0});  // count 0, no entries
  rpc::XdrDecoder dec(wire);
  EXPECT_THROW(nfs::LayoutGetRes::decode(dec), rpc::XdrError);
}

TEST(WireGolden, FlaggedLayoutMutationsDecodeOrReject) {
  // Seeded mutation loop over the flagged encoding.  Two outcomes only:
  // the decoder rejects with XdrError, or it accepts a prefix whose
  // re-encoding is byte-identical to that prefix.  Anything else — another
  // exception type, a crash, an accepted message that re-encodes
  // differently — fails.
  const std::vector<std::byte> golden = encode_reply(flagged_ec_layout());
  util::Rng rng(0x1A7E);
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::byte> wire = golden;
    const uint64_t edits = rng.range(1, 3);
    for (uint64_t e = 0; e < edits; ++e) {
      switch (rng.below(4)) {
        case 0:  // flip one bit
          wire[rng.below(wire.size())] ^=
              static_cast<std::byte>(1u << rng.below(8));
          break;
        case 1:  // overwrite one byte
          wire[rng.below(wire.size())] = static_cast<std::byte>(rng.below(256));
          break;
        case 2:  // truncate
          wire.resize(rng.below(wire.size()));
          break;
        default:  // append a word
          for (int b = 0; b < 4; ++b) {
            wire.push_back(static_cast<std::byte>(rng.below(256)));
          }
          break;
      }
      if (wire.empty()) wire.push_back(std::byte{0});
    }
    rpc::XdrDecoder dec(wire);
    try {
      const nfs::FileLayout back = nfs::LayoutGetRes::decode(dec).layout;
      const size_t consumed = wire.size() - dec.remaining();
      const std::vector<std::byte> prefix(wire.begin(),
                                          wire.begin() + consumed);
      ASSERT_EQ(hex(encode_reply(back)), hex(prefix)) << "iteration " << iter;
      ++accepted;
    } catch (const rpc::XdrError&) {
      ++rejected;
    }
  }
  // Both outcomes occur, so the loop exercises the accept path too.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(WireGolden, WriteResAndCommitResCarryBootVerifier) {
  rpc::XdrEncoder enc;
  nfs::WriteRes{0x2000, nfs::StableHow::kUnstable, 5, 0x1122334455667788ull}
      .encode(enc);
  nfs::CommitRes{0xCAFEF00DD15EA5E5ull}.encode(enc);
  const std::vector<std::byte> wire = std::move(enc).take();
  EXPECT_EQ(hex(wire),
            "0000000000002000"    // count
            "00000000"            // committed = UNSTABLE4
            "0000000000000005"    // post-op change attribute
            "1122334455667788"    // WRITE verifier (boot-instance cookie)
            "cafef00dd15ea5e5");  // COMMIT verifier
  // Round-trip: a restarted server's fresh verifier must survive the codec
  // bit-exactly — replay detection compares these 64 bits for equality.
  rpc::XdrDecoder dec(wire);
  const nfs::WriteRes w = nfs::WriteRes::decode(dec);
  const nfs::CommitRes c = nfs::CommitRes::decode(dec);
  EXPECT_EQ(w.verifier, 0x1122334455667788ull);
  EXPECT_EQ(c.verifier, 0xCAFEF00DD15EA5E5ull);
  EXPECT_NE(w.verifier, c.verifier);  // mismatch == restart intervened
}

TEST(WireGolden, InlineVsVirtualPayload) {
  rpc::XdrEncoder enc;
  enc.put_payload(rpc::Payload::from_string("hi"));
  enc.put_payload(rpc::Payload::virtual_bytes(0x100000));
  EXPECT_EQ(hex(std::move(enc).take()),
            "00000001"          // inline discriminant
            "00000002"          // length 2
            "68690000"          // "hi" + padding
            "00000000"          // virtual discriminant
            "0000000000100000");  // 1 MiB virtual length
}

TEST(WireGolden, OpenArgsAndRes) {
  rpc::XdrEncoder enc;
  nfs::OpenArgs{"f", true, nfs::ShareAccess::kRead}.encode(enc);
  nfs::OpenRes{nfs::Stateid{3},
               nfs::Fattr{nfs::FileType::kRegular, 9, 100, 2, 0},
               nfs::DelegationType::kRead}
      .encode(enc);
  EXPECT_EQ(hex(std::move(enc).take()),
            "00000001" "66000000"  // name "f"
            "00000001"             // create = true
            "00000001"             // share = read
            "0000000000000003"     // stateid
            "00000001"             // type regular
            "0000000000000009"     // fileid
            "0000000000000064"     // size 100
            "0000000000000002"     // change 2
            "0000000000000000"     // mtime
            "00000001");           // read delegation
}

}  // namespace
}  // namespace dpnfs
