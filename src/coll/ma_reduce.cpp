// Flat movement-avoiding (MA) sliced reduction (paper §3.2-§3.5, Fig. 5/6).
//
// The message is split into p ownership blocks; each round processes one
// I-sized sub-slice of every block through the optimal reduction schedule:
//
//   step j of rank r works on slice l = (r+1+j) mod p
//     j = 0      copy my sendbuf slice l into shm slot l        (V = 2I)
//     0 < j      reduce my sendbuf slice l into shm slot l      (no copy)
//     j = p-1    l == r: fused final reduce, streamed to the destination
//
// Slot l is touched in rank order l-1, l-2, ..., l+1, l (mod p), so the
// only dependency is on the next-higher rank having finished the previous
// step — enforced with per-rank monotone progress flags (no barriers inside
// the reduce-scatter pipeline, including across rounds).
//
// Per tree this copies exactly one slice: the provably minimal copy volume
// (Theorem 3.1), giving the Table 1 DAV of s*(3p-1) for reduce-scatter.
#include <cstdint>

#include "schedule.hpp"

namespace yhccl::coll {

namespace detail {

namespace {

/// One MA round (steps j = 0..p-1 of round t for this rank).  The last
/// step either stays in shared memory or, for the scatter, streams into my
/// receive block.
template <class X>
void ma_round(X& x, const BlockSlicing& S, std::size_t t,
              typename X::Addr shm, std::uint64_t seq, bool scatter) {
  const int p = x.nranks();
  const int r = x.rank();
  const int right = (r + 1) % p;
  for (int j = 0; j < p; ++j) {
    // Abort/injection check once per slice step: compute-heavy reduce
    // phases leave the team promptly instead of at the next sync point.
    x.fault_point("slice");
    const auto l = static_cast<std::size_t>((r + 1 + j) % p);
    const std::uint64_t k = t * static_cast<std::size_t>(p) +
                            static_cast<std::size_t>(j);
    if (k > 0) x.step_wait(right, rt::RankCtx::step_value(seq, k));
    const std::size_t len = S.len(l, t);
    if (len > 0) {
      const auto slot = shm + l * S.slice;
      const auto src = x.send(S.off(l, t));
      if (j == 0)
        // The shared slot is re-read by every later step: temporal hint.
        x.copy_in(slot, src, len);
      else if (j < p - 1 || !scatter)
        x.reduce(slot, src, len);
      else
        // j == p-1 implies l == r: fuse the last reduction with the
        // delivery into my receive block; the result is never re-read by
        // this collective, so the store may stream.
        x.reduce_out(x.recv(S.off_in_block(t)), slot, src, len);
    }
    x.step_publish(rt::RankCtx::step_value(seq, k + 1));
  }
}

}  // namespace

template <class X>
void ma_schedule(X& x, CollKind kind, std::size_t bytes, int root) {
  const int p = x.nranks();
  const auto S = BlockSlicing::of(kind, bytes, p, x.opts());
  if (p == 1) return x.self_copy(S.total);
  const auto shm = x.carve(static_cast<std::size_t>(p) * S.slice);
  x.set_work_set(WorkSet::of(kind, S.total, p, 1, S.slice));
  const std::uint64_t seq = x.next_seq();

  for (std::size_t t = 0; t < S.nrounds; ++t) {
    ma_round(x, S, t, shm, seq, scatters(kind));
    if (scatters(kind)) continue;
    x.barrier();  // all final reduces of this round done
    // Copy-out (Algorithm 2 lines 14-16): the receive buffer is only read
    // after the collective, so these stores may stream.
    x.fault_point("slice");
    if (copies_out(kind, x.rank(), root)) copy_out_round(x, S, t, shm);
    x.barrier();  // shm slots may be overwritten by the next round
  }
  // Protect shm reuse by the next collective (a laggard's final reduce may
  // still be reading its slot).
  if (scatters(kind)) x.barrier();
}

template void ma_schedule(RankExec&, CollKind, std::size_t, int);
template void ma_schedule(CountExec&, CollKind, std::size_t, int);

}  // namespace detail

void ma_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                       std::size_t count, Datatype d, ReduceOp op,
                       const CollOpts& opts) {
  detail::check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const std::size_t B = count * dtype_size(d);
  trace::CollScope coll_scope(detail::trace_coll_id(CollKind::reduce_scatter),
                              B * static_cast<std::size_t>(ctx.nranks()),
                              detail::trace_alg_id(Algorithm::ma_flat));
  detail::RankExec x(ctx, send, recv, opts, d, op);
  detail::ma_schedule(x, CollKind::reduce_scatter, B, /*root=*/0);
}

void ma_allreduce(RankCtx& ctx, const void* send, void* recv,
                  std::size_t count, Datatype d, ReduceOp op,
                  const CollOpts& opts) {
  detail::check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const std::size_t total = count * dtype_size(d);
  trace::CollScope coll_scope(detail::trace_coll_id(CollKind::allreduce),
                              total,
                              detail::trace_alg_id(Algorithm::ma_flat));
  detail::RankExec x(ctx, send, recv, opts, d, op);
  detail::ma_schedule(x, CollKind::allreduce, total, /*root=*/0);
}

void ma_reduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, ReduceOp op, int root, const CollOpts& opts) {
  detail::check_reduction_args(ctx, send, count, d, op);
  detail::check_root(ctx, root);
  if (count == 0) return;
  const std::size_t total = count * dtype_size(d);
  trace::CollScope coll_scope(detail::trace_coll_id(CollKind::reduce), total,
                              detail::trace_alg_id(Algorithm::ma_flat));
  detail::RankExec x(ctx, send, recv, opts, d, op);
  detail::ma_schedule(x, CollKind::reduce, total, root);
}

}  // namespace yhccl::coll
