// Client-side COMPOUND reply walker.
//
// Results are consumed in the same order the ops were added.  `expect`
// throws NfsError when the op failed, which unwinds through the client's
// coroutines like a syscall error.  `try_next` reads a status without
// throwing — used for ops that are allowed to fail (LAYOUTGET on a server
// that grants no layouts).
#pragma once

#include <utility>

#include "nfs/ops.hpp"
#include "nfs/types.hpp"
#include "rpc/fabric.hpp"

namespace dpnfs::nfs {

class CompoundReply {
 public:
  explicit CompoundReply(rpc::RpcClient::Reply raw)
      : raw_(std::move(raw)), dec_(raw_.body()) {
    if (raw_.transport != rpc::Status::kOk) {
      throw NfsError(Status::kTimedOut, "RPC transport");
    }
    if (raw_.status != rpc::ReplyStatus::kAccepted) {
      throw NfsError(Status::kIo, "RPC layer rejected call");
    }
    count_ = dec_.get_u32();
  }
  CompoundReply(const CompoundReply&) = delete;
  CompoundReply& operator=(const CompoundReply&) = delete;
  /// Moving keeps `dec_` valid: it views the reply buffer's heap storage,
  /// which a vector move hands over unchanged.
  CompoundReply(CompoundReply&&) = default;

  uint32_t result_count() const noexcept { return count_; }
  bool has_more() const noexcept { return consumed_ < count_; }

  /// Consumes the next result header; throws on opcode mismatch or error
  /// status.  The result body (if any) is then readable from dec().
  void expect(OpCode op) {
    const Status st = try_next(op);
    if (st != Status::kOk) throw NfsError(st, opcode_name(op));
  }

  /// Consumes the next header and decodes a typed result body.
  template <typename Res>
  Res expect(OpCode op) {
    expect(op);
    return Res::decode(dec_);
  }

  /// Consumes the next result header and returns its status without
  /// throwing.  Returns kIo if the compound ended early (a prior op failed).
  Status try_next(OpCode op) {
    if (!has_more()) return Status::kIo;
    const OpResultHeader h = OpResultHeader::decode(dec_);
    if (h.op != op) throw NfsError(Status::kIo, "compound result out of order");
    ++consumed_;
    return h.status;
  }

  rpc::XdrDecoder& dec() noexcept { return dec_; }

 private:
  rpc::RpcClient::Reply raw_;
  rpc::XdrDecoder dec_;
  uint32_t count_ = 0;
  uint32_t consumed_ = 0;
};

}  // namespace dpnfs::nfs
