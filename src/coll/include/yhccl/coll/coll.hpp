// YHCCL public collective API (the paper's contribution).
//
// Generic entry points (allreduce, reduce, reduce_scatter, broadcast,
// allgather) pick an algorithm per the paper's switching rules (§5.1):
// two-level DPML for small messages, socket-aware movement-avoiding (MA)
// reduction otherwise, flat MA when the topology has one socket.  Below
// that, allreduce, reduce and broadcast take the single-sync slot arm (one
// flag round, no barrier) within p·s <= rt::kSlotNodeBytes.  Where one arm
// hands over to the next is not the paper's fixed 256 KB but the
// crossover of a cost model over the arms' exact op counts
// (plan::switch_points).  Every slice copy goes through the adaptive
// non-temporal policy (§4) unless the caller forces a policy arm for
// experiments.
//
// Buffer semantics follow MPI:
//   reduce_scatter — `send` holds nranks*count elements; rank i receives
//                    the reduced block i (count elements) in `recv`.
//   allreduce      — `send`/`recv` hold count elements on every rank.
//   reduce         — like allreduce but only `root` receives (recv may be
//                    null elsewhere).
//   broadcast      — `buf` holds count elements; root's contents end up in
//                    every rank's buf.
//   allgather      — `send` holds count elements; `recv` (nranks*count)
//                    receives every rank's block in rank order.
//
// All ranks of a team must call each collective with matching arguments
// (same count/dtype/op/root/options), in the same order.
#pragma once

#include <cstddef>

#include "yhccl/common/types.hpp"
#include "yhccl/copy/policy.hpp"
#include "yhccl/runtime/team.hpp"

namespace yhccl::coll {

using rt::RankCtx;

enum class Algorithm : int {
  automatic,        ///< paper §5.1 switching rules (tuner-eligible)
  ma_flat,          ///< movement-avoiding reduction, single level (§3.3)
  ma_socket_aware,  ///< two-level socket-aware MA (§3.3, Fig. 7)
  dpml_two_level,   ///< hierarchical parallel reduction for small messages
  pipelined,        ///< sliced pipeline (broadcast/allgather only, §3.4)
  slot,             ///< single-sync slot arm (allreduce/reduce/broadcast)
};

constexpr const char* algorithm_name(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::automatic: return "auto";
    case Algorithm::ma_flat: return "ma";
    case Algorithm::ma_socket_aware: return "socket-ma";
    case Algorithm::dpml_two_level: return "dpml-2l";
    case Algorithm::pipelined: return "pipelined";
    case Algorithm::slot: return "slot";
  }
  return "?";
}

struct CollOpts {
  copy::CopyPolicy policy = copy::CopyPolicy::adaptive;
  Algorithm algorithm = Algorithm::automatic;
  std::size_t slice_max = 256u << 10;  ///< Imax (256 KB on NodeA, §5.3)
  std::size_t slice_min = kCacheline;  ///< Imin = cache line (§5.1)
  /// Per-round chunk (bytes of each ownership block) for the DPML-style
  /// parallel reduction; the paper tunes this to small values (8 KB on
  /// NodeA, §5.3).  Clamped to the available scratch automatically.
  std::size_t dpml_chunk = 32u << 10;
  /// Force the DPML algorithm to ignore the socket hierarchy (this is the
  /// paper's original single-level DPML baseline [13]).
  bool dpml_flat = false;
};

// ---- generic, algorithm-switching entry points ----------------------------

void reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                    std::size_t count, Datatype d, ReduceOp op,
                    const CollOpts& opts = {});
void allreduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, ReduceOp op, const CollOpts& opts = {});
void reduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
            Datatype d, ReduceOp op, int root, const CollOpts& opts = {});
void broadcast(RankCtx& ctx, void* buf, std::size_t count, Datatype d,
               int root, const CollOpts& opts = {});
void allgather(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, const CollOpts& opts = {});

/// The allreduce switching rule (exposed for tests/benches): the slot arm,
/// then DPML, then MA, at plan::switch_points.
Algorithm choose_reduction_algorithm(const RankCtx& ctx,
                                     std::size_t msg_bytes,
                                     const CollOpts& opts);

// ---- explicit algorithm arms (benchmarks compare these directly) ----------

void ma_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                       std::size_t count, Datatype d, ReduceOp op,
                       const CollOpts& opts = {});
void ma_allreduce(RankCtx& ctx, const void* send, void* recv,
                  std::size_t count, Datatype d, ReduceOp op,
                  const CollOpts& opts = {});
void ma_reduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, ReduceOp op, int root, const CollOpts& opts = {});

void socket_ma_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                              std::size_t count, Datatype d, ReduceOp op,
                              const CollOpts& opts = {});
void socket_ma_allreduce(RankCtx& ctx, const void* send, void* recv,
                         std::size_t count, Datatype d, ReduceOp op,
                         const CollOpts& opts = {});
void socket_ma_reduce(RankCtx& ctx, const void* send, void* recv,
                      std::size_t count, Datatype d, ReduceOp op, int root,
                      const CollOpts& opts = {});

void dpml_two_level_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                                   std::size_t count, Datatype d, ReduceOp op,
                                   const CollOpts& opts = {});
void dpml_two_level_allreduce(RankCtx& ctx, const void* send, void* recv,
                              std::size_t count, Datatype d, ReduceOp op,
                              const CollOpts& opts = {});
void dpml_two_level_reduce(RankCtx& ctx, const void* send, void* recv,
                           std::size_t count, Datatype d, ReduceOp op,
                           int root, const CollOpts& opts = {});

/// Single-sync slot arm: one flag round, no barrier; raises unless
/// rt::slot_fits(p, count * dtype_size(d)).  Buffers are free on return.
void slot_allreduce(RankCtx& ctx, const void* send, void* recv,
                    std::size_t count, Datatype d, ReduceOp op,
                    const CollOpts& opts = {});
void slot_reduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
                 Datatype d, ReduceOp op, int root, const CollOpts& opts = {});
void slot_broadcast(RankCtx& ctx, void* buf, std::size_t count, Datatype d,
                    int root, const CollOpts& opts = {});

void pipelined_broadcast(RankCtx& ctx, void* buf, std::size_t count,
                         Datatype d, int root, const CollOpts& opts = {});
void pipelined_allgather(RankCtx& ctx, const void* send, void* recv,
                         std::size_t count, Datatype d,
                         const CollOpts& opts = {});

}  // namespace yhccl::coll
