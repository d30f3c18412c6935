// Single-sync slot protocol for small allreduce / reduce / broadcast
// (coll/slot.cpp, docs/tuning.md §slot).
//
// Every rank owns one cacheline-aligned slot in each half of a
// double-buffered shared region.  Slot call number e — a per-rank epoch
// that is identical on every rank because collectives are issued in the
// same order everywhere — uses half e&1.  One flag per rank carries the
// whole protocol:
//
//   writer:  reuse guard (every peer's flag >= e-1), fill my slot, post e
//   reader:  post e, wait for the writers' flags >= e, read their slots
//
// Every rank posts e exactly once per call e, after its own slot write and
// before its reads.  So a flag at >= e-1 means that rank has left call e-2,
// including every read of half (e-2)&1 == e&1: the guard is what lets a
// writer reuse that half without a trailing barrier.  No rank ever reads
// another rank's private buffer, so every send and root buffer is free as
// soon as the call returns on its owner.
//
// The sequencing below is the single source of truth: coll/slot.cpp runs it
// with real copy/reduce kernels and the model checker (mc/protocols.cpp,
// "slot") runs it with plain payload words.
#pragma once

#include <cstddef>
#include <cstdint>

#include "yhccl/common/types.hpp"
#include "yhccl/mc/atomic.hpp"
#include "yhccl/runtime/sync.hpp"

namespace yhccl::rt {

/// Node-wide byte budget of the slot arm: a call fits when p·s stays
/// within it (the crossover against DPML measured at p = 2 and 3; at
/// p = 4 the crossover is lower, see docs/tuning.md).
inline constexpr std::size_t kSlotNodeBytes = 32u << 10;

/// Bytes of one rank's slot at p ranks: a cacheline multiple with
/// p · slot_capacity(p) <= kSlotNodeBytes, so one half of the region holds
/// every rank's slot for any membership and the region is 2·kSlotNodeBytes.
constexpr std::size_t slot_capacity(int p) noexcept {
  return p < 1 ? 0
               : kSlotNodeBytes / static_cast<std::size_t>(p) / kCacheline *
                     kCacheline;
}

/// Does a per-rank message of `bytes` fit the slot arm at p ranks, i.e.
/// bytes <= slot_capacity(p)?  Division-free: it runs on every dispatch.
constexpr bool slot_fits(int p, std::size_t bytes) noexcept {
  return bytes <= kSlotNodeBytes &&
         static_cast<std::size_t>(p) * ceil_div(bytes, kCacheline) <=
             kSlotNodeBytes / kCacheline;
}

inline constexpr int kSlotAll = -1;   ///< wait for every peer
inline constexpr int kSlotNone = -2;  ///< wait for nobody

/// What one rank does in one slot call.
struct SlotRole {
  bool write = false;     ///< fills its own slot (behind the reuse guard)
  int wait = kSlotNone;   ///< peer whose slot it reads, kSlotAll or kSlotNone
};

enum class SlotOp : std::uint8_t { allreduce, reduce, broadcast };

constexpr SlotRole slot_role(SlotOp op, int rank, int root) noexcept {
  switch (op) {
    case SlotOp::allreduce: return {true, kSlotAll};
    case SlotOp::reduce:
      return rank == root ? SlotRole{false, kSlotAll}
                          : SlotRole{true, kSlotNone};
    case SlotOp::broadcast:
      return rank == root ? SlotRole{true, kSlotNone}
                          : SlotRole{false, root};
  }
  return {};
}

/// One rank's view of the protocol state.  `seen` is rank-private (it
/// lives in the rank's persistent block): every flag has been observed at
/// >= *seen, which lets the guard skip its wait after an all-wait.
struct SlotSync {
  PaddedFlag* flags = nullptr;
  int nranks = 1;
  int rank = 0;
  std::uint64_t* seen = nullptr;
};

/// Before writing half e&1: wait until every peer has posted e-1.
inline void slot_reuse_guard(const SlotSync& s, std::uint64_t e) {
  if (*s.seen + 1 >= e || !YHCCL_MC_STEP(slot_reuse_guard)) return;
  for (int j = 0; j < s.nranks; ++j)
    if (j != s.rank) spin_wait_ge(s.flags[j].v, e - 1);
  *s.seen = e - 1;
}

/// One slot call at epoch e: `write()` fills this rank's slot, `read()`
/// consumes the slots of the peers the role waits for.
template <class Write, class Read>
void slot_round(const SlotSync& s, SlotRole role, std::uint64_t e,
                Write&& write, Read&& read) {
  if (role.write) {
    slot_reuse_guard(s, e);
    write();
  }
  flag_post(s.flags[s.rank], e);
  if (role.wait == kSlotNone) return;
  if (role.wait == kSlotAll) {
    for (int j = 0; j < s.nranks; ++j)
      if (j != s.rank) flag_wait(s.flags[j], e);
    *s.seen = e;
  } else {
    flag_wait(s.flags[role.wait], e);
  }
  read();
}

}  // namespace yhccl::rt
