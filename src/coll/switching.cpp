// Algorithm switching (paper §5.1 and Fig. 4), routed through the plan
// cache (docs/tuning.md): the generic entry points resolve a cached plan
// for (collective, size bucket, shape) and dispatch on its algorithm.
// With the tuner at its default (prior mode) the served plans reproduce
// the static rule (plan::choose_algorithm) bit for bit — allreduce, reduce
// and broadcast whose p·s fits rt::kSlotNodeBytes take the single-sync
// slot arm, other small reductions the two-level DPML parallel reduction
// (cheap synchronization), everything else the socket-aware MA reduction
// (minimal data movement), falling back to flat MA on single-socket teams
// — while warmed or online-refined plans can override the choice per size
// class.  Callers forcing an explicit opts.algorithm bypass the tuner.
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/coll/plan.hpp"
#include "yhccl/metrics/metrics.hpp"

namespace yhccl::coll {

Algorithm choose_reduction_algorithm(const RankCtx& ctx,
                                     std::size_t msg_bytes,
                                     const CollOpts& opts) {
  return plan::choose_algorithm(ctx.team().topo(), CollKind::allreduce,
                                msg_bytes, opts);
}

namespace {

[[noreturn, gnu::cold, gnu::noinline]] void raise_byte_overflow(
    std::size_t count, std::size_t factor) {
  raise("count " + std::to_string(count) + " × " + std::to_string(factor) +
        " bytes overflows size_t");
}

/// count × dtype size × n in bytes, checked before any shared state is
/// touched.  dtype size × n ≤ 8 · kMaxRanks, so only the product with
/// count can overflow.
std::size_t checked_bytes(std::size_t count, Datatype d, int n = 1) {
  const std::size_t factor = dtype_size(d) * static_cast<std::size_t>(n);
  std::size_t bytes = 0;
  if (__builtin_mul_overflow(count, factor, &bytes)) [[unlikely]]
    raise_byte_overflow(count, factor);
  return bytes;
}

/// Decision for one call: the tuned plan when the tuner is active, the
/// static rule otherwise (tuner off / explicit arm).
Algorithm algorithm_for(const plan::TunedCall& tc, RankCtx& ctx, CollKind kind,
                        std::size_t total, const CollOpts& opts) {
  const Algorithm a =
      tc.active() ? tc.plan().algorithm
                  : plan::choose_algorithm(ctx.team().topo(), kind, total,
                                           opts);
  YHCCL_REQUIRE(kind == CollKind::broadcast || a != Algorithm::pipelined,
                "the pipelined algorithm serves broadcast/allgather only");
  YHCCL_REQUIRE(a != Algorithm::slot || plan::slot_kind(kind),
                "the slot algorithm serves allreduce/reduce/broadcast only");
  return a;
}

}  // namespace

void reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                    std::size_t count, Datatype d, ReduceOp op,
                    const CollOpts& opts) {
  // §5.1 sizes reduce-scatter by its total input vector.
  const std::size_t total = checked_bytes(count, d, ctx.nranks());
  plan::TunedCall tc(ctx, CollKind::reduce_scatter, total, d, op, opts);
  const CollOpts& o = tc.active() ? tc.opts() : opts;
  const Algorithm a =
      algorithm_for(tc, ctx, CollKind::reduce_scatter, total, opts);
  metrics::CollSample ms(1 + static_cast<int>(CollKind::reduce_scatter),
                         total);
  ms.set_alg(1 + static_cast<int>(a));
  switch (a) {
    case Algorithm::dpml_two_level:
      dpml_two_level_reduce_scatter(ctx, send, recv, count, d, op, o);
      break;
    case Algorithm::ma_socket_aware:
      socket_ma_reduce_scatter(ctx, send, recv, count, d, op, o);
      break;
    default:
      ma_reduce_scatter(ctx, send, recv, count, d, op, o);
      break;
  }
  tc.finish(ctx);
}

void allreduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, ReduceOp op, const CollOpts& opts) {
  const std::size_t total = checked_bytes(count, d);
  detail::check_overlap(send, recv, total);
  plan::TunedCall tc(ctx, CollKind::allreduce, total, d, op, opts);
  const CollOpts& o = tc.active() ? tc.opts() : opts;
  const Algorithm a = algorithm_for(tc, ctx, CollKind::allreduce, total, opts);
  metrics::CollSample ms(1 + static_cast<int>(CollKind::allreduce), total);
  ms.set_alg(1 + static_cast<int>(a));
  switch (a) {
    case Algorithm::slot:
      slot_allreduce(ctx, send, recv, count, d, op, o);
      break;
    case Algorithm::dpml_two_level:
      dpml_two_level_allreduce(ctx, send, recv, count, d, op, o);
      break;
    case Algorithm::ma_socket_aware:
      socket_ma_allreduce(ctx, send, recv, count, d, op, o);
      break;
    default:
      ma_allreduce(ctx, send, recv, count, d, op, o);
      break;
  }
  tc.finish(ctx);
}

void reduce(RankCtx& ctx, const void* send, void* recv, std::size_t count,
            Datatype d, ReduceOp op, int root, const CollOpts& opts) {
  detail::check_root(ctx, root);
  const std::size_t total = checked_bytes(count, d);
  detail::check_overlap(send, recv, total);
  plan::TunedCall tc(ctx, CollKind::reduce, total, d, op, opts);
  const CollOpts& o = tc.active() ? tc.opts() : opts;
  const Algorithm a = algorithm_for(tc, ctx, CollKind::reduce, total, opts);
  metrics::CollSample ms(1 + static_cast<int>(CollKind::reduce), total);
  ms.set_alg(1 + static_cast<int>(a));
  switch (a) {
    case Algorithm::slot:
      slot_reduce(ctx, send, recv, count, d, op, root, o);
      break;
    case Algorithm::dpml_two_level:
      dpml_two_level_reduce(ctx, send, recv, count, d, op, root, o);
      break;
    case Algorithm::ma_socket_aware:
      socket_ma_reduce(ctx, send, recv, count, d, op, root, o);
      break;
    default:
      ma_reduce(ctx, send, recv, count, d, op, root, o);
      break;
  }
  tc.finish(ctx);
}

// Broadcast runs the slot arm or the §3.4 sliced pipeline; allgather has
// the pipeline only.  Any other explicit opts.algorithm — a reduction arm
// when one CollOpts drives a mixed trace replay — runs the pipeline with
// the caller's schedule; Algorithm::automatic routes through the plan
// cache, which can also tune the pipeline slice size per size class.

void broadcast(RankCtx& ctx, void* buf, std::size_t count, Datatype d,
               int root, const CollOpts& opts) {
  detail::check_root(ctx, root);
  const std::size_t total = checked_bytes(count, d);
  plan::TunedCall tc(ctx, CollKind::broadcast, total, d, ReduceOp::sum, opts);
  const CollOpts& o = tc.active() ? tc.opts() : opts;
  const Algorithm a =
      algorithm_for(tc, ctx, CollKind::broadcast, total, opts) ==
              Algorithm::slot
          ? Algorithm::slot
          : Algorithm::pipelined;
  metrics::CollSample ms(1 + static_cast<int>(CollKind::broadcast), total);
  ms.set_alg(1 + static_cast<int>(a));
  if (a == Algorithm::slot)
    slot_broadcast(ctx, buf, count, d, root, o);
  else
    pipelined_broadcast(ctx, buf, count, d, root, o);
  tc.finish(ctx);
}

void allgather(RankCtx& ctx, const void* send, void* recv, std::size_t count,
               Datatype d, const CollOpts& opts) {
  checked_bytes(count, d, ctx.nranks());  // the receive buffer's p blocks
  const std::size_t block = count * dtype_size(d);
  plan::TunedCall tc(ctx, CollKind::allgather, block, d, ReduceOp::sum, opts);
  metrics::CollSample ms(1 + static_cast<int>(CollKind::allgather), block);
  ms.set_alg(1 + static_cast<int>(Algorithm::pipelined));
  pipelined_allgather(ctx, send, recv, count, d,
                      tc.active() ? tc.opts() : opts);
  tc.finish(ctx);
}

}  // namespace yhccl::coll
