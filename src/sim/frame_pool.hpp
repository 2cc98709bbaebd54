// Size-classed free-list recycler for coroutine frames.
//
// Every `sim::Task<T>` coroutine frame is heap-allocated by the compiler
// through the promise's `operator new`.  A busy simulated RPC allocates
// dozens of short-lived frames (transfer legs, semaphore scopes, server
// dispatch), which at thousands of concurrent clients makes malloc/free the
// dominant cost of the run.  `FramePool` intercepts those allocations with
// per-size-class free lists so steady-state frame allocation is O(1) and
// touches memory that is already cache-warm.
//
// Frames are rounded up to 64-byte classes; anything larger than 8 KiB
// falls through to ::operator new.  A one-byte header in front of the block
// records the class (or a pass-through tag), so deallocate knows where the
// block goes without trusting the size the caller passes.
//
// The simulation is single-threaded per `Simulation` instance; the free
// lists are thread_local for safety when tests run deployments on multiple
// threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace dpnfs::sim {

/// Frame-pool counters (thread-local).
struct FramePoolStats {
  uint64_t fresh = 0;   // allocations served by ::operator new
  uint64_t reused = 0;  // allocations served from a free list
};

class FramePool {
 public:
  static void* allocate(std::size_t n) {
    Shard& sh = shard();
    const std::size_t cls = size_class(n);
    if (cls < kClasses) {
      auto& list = sh.lists[cls];
      if (!list.empty()) {
        void* p = list.back();
        list.pop_back();
        ++sh.stats.reused;
        return offset(p);
      }
    }
    ++sh.stats.fresh;
    // Headered block: remember the class (or kClasses for pass-through) so
    // deallocate recycles it into the right list.
    auto* raw = static_cast<unsigned char*>(
        ::operator new(kHeader + (cls < kClasses ? class_bytes(cls) : n)));
    raw[0] = static_cast<unsigned char>(cls < kClasses ? cls : kClasses);
    return raw + kHeader;
  }

  static void deallocate(void* p, std::size_t /*n*/) noexcept {
    auto* raw = static_cast<unsigned char*>(p) - kHeader;
    const unsigned cls = raw[0];
    if (cls < kClasses) {
      auto& list = shard().lists[cls];
      if (list.size() < kMaxPerClass) {
        list.push_back(raw);
        return;
      }
    }
    ::operator delete(raw);
  }

  using Stats = FramePoolStats;
  static Stats stats() noexcept { return shard().stats; }
  static void reset_stats() noexcept { shard().stats = Stats{}; }

 private:
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 128;  // up to 8 KiB frames
  static constexpr std::size_t kMaxPerClass = 4096;
  // Header keeps the frame's 16-byte alignment (coroutine frames require at
  // most alignof(std::max_align_t) here).
  static constexpr std::size_t kHeader = alignof(std::max_align_t);

  static std::size_t size_class(std::size_t n) noexcept {
    return (n + kGranularity - 1) / kGranularity;
  }
  static std::size_t class_bytes(std::size_t cls) noexcept {
    return cls * kGranularity;
  }
  static void* offset(void* raw) noexcept {
    return static_cast<unsigned char*>(raw) + kHeader;
  }

  struct Shard {
    Stats stats;
    std::vector<void*> lists[kClasses];
  };

  // A constinit thread_local pointer avoids the per-access dynamic-init
  // guard a non-trivial thread_local would cost on every coroutine frame
  // allocation.  The shard leaks at thread exit by design — it lives for
  // the process.
  static Shard& shard() noexcept {
    if (shard_p_ == nullptr) shard_p_ = new Shard();
    return *shard_p_;
  }

  static inline constinit thread_local Shard* shard_p_ = nullptr;
};

}  // namespace dpnfs::sim
