// Synchronization-operation instrumentation.
//
// The paper's §3.3 cost analysis weighs the MA pipeline's p-1 per-step
// neighbour flags against DPML's handful of barriers; this header counts
// those operations the same way dav.hpp counts bytes, so tests and the
// bench comparator can gate on them *exactly* (they are deterministic for
// a given (collective, p, s, geometry), unlike wall time).
//
// Counted at the call sites that express algorithmic intent:
//   barriers    — barrier_arrive / dissemination_arrive entries
//   flag_posts  — flag_post (RankCtx::step_publish, the slot protocol)
//   flag_waits  — flag_wait (RankCtx::step_wait, the slot protocol)
// spin_wait_ge/eq are deliberately *not* counted: flag_wait would double,
// FIFO/rendezvous internals retry a data-dependent number of times, and
// the slot reuse guard is skipped or not depending on the previous call.
#pragma once

#include <cstdint>

namespace yhccl::rt {

struct SyncCounts {
  std::uint64_t barriers = 0;    ///< barrier arrivals (central + dissemination)
  std::uint64_t flag_posts = 0;  ///< progress/slot flag publishes
  std::uint64_t flag_waits = 0;  ///< progress/slot flag waits

  std::uint64_t total() const noexcept {
    return barriers + flag_posts + flag_waits;
  }

  SyncCounts operator-(const SyncCounts& o) const noexcept {
    return SyncCounts{barriers - o.barriers, flag_posts - o.flag_posts,
                      flag_waits - o.flag_waits};
  }
  SyncCounts& operator+=(const SyncCounts& o) noexcept {
    barriers += o.barriers;
    flag_posts += o.flag_posts;
    flag_waits += o.flag_waits;
    return *this;
  }
  bool operator==(const SyncCounts&) const noexcept = default;
};

namespace detail {
inline thread_local SyncCounts g_sync_counts;
}

inline void sync_count_barrier() noexcept {
  ++detail::g_sync_counts.barriers;
}
inline void sync_count_flag_post() noexcept {
  ++detail::g_sync_counts.flag_posts;
}
inline void sync_count_flag_wait() noexcept {
  ++detail::g_sync_counts.flag_waits;
}

inline SyncCounts sync_counts_read() noexcept {
  return detail::g_sync_counts;
}
inline void sync_counts_reset() noexcept {
  detail::g_sync_counts = SyncCounts{};
}

/// RAII delta measurement:  SyncCountScope s; ...; s.delta().barriers
class SyncCountScope {
 public:
  SyncCountScope() : start_(sync_counts_read()) {}
  SyncCounts delta() const noexcept { return sync_counts_read() - start_; }

 private:
  SyncCounts start_;
};

}  // namespace yhccl::rt
