// Single-sync slot arm for small allreduce / reduce / broadcast
// (docs/tuning.md §slot; the protocol itself is rt/slot.hpp).
//
// Below a few KB the two-level DPML reduction pays three node barriers per
// call and the pipelined broadcast two.  Here each writer copies its
// operand into its own slot of a double-buffered shared region and posts
// one flag; readers reduce (or copy) straight out of the peers' slots.
// One flag round, no barrier.  Reductions fold the p operands in rank
// order, so every rank gets bit-identical results.
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/copy/kernels.hpp"
#include "yhccl/copy/reduce_kernels.hpp"
#include "yhccl/runtime/slot.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::coll {

namespace {

void require_fit(const RankCtx& ctx, std::size_t bytes) {
  YHCCL_REQUIRE(rt::slot_fits(ctx.nranks(), bytes),
                "message exceeds the slot arm (p * bytes > "
                "rt::kSlotNodeBytes)");
}

void copy_span(trace::Phase ph, void* dst, const void* src,
               std::size_t bytes) {
  trace::Span sp(ph, bytes);
  if (sp.active())
    sp.set_variant(
        trace::copy_variant(false, static_cast<int>(copy::active_isa())));
  copy::t_copy(dst, src, bytes);
}

/// recv = op over every rank's operand, in rank order; this rank's own
/// operand is `own`, the peers' are their epoch-e slots.
void reduce_slots(RankCtx& ctx, std::uint64_t e, const void* own, void* recv,
                  std::size_t bytes, Datatype d, ReduceOp op) {
  const void* srcs[rt::kMaxRanks];
  for (int j = 0; j < ctx.nranks(); ++j)
    srcs[j] = j == ctx.rank() ? own : ctx.slot(e, j);
  trace::Span sp(trace::Phase::reduce, bytes);
  if (sp.active())
    sp.set_variant(
        trace::copy_variant(false, static_cast<int>(copy::active_isa())));
  copy::reduce_out_multi(recv, srcs, ctx.nranks(), bytes, d, op,
                         /*nt_store=*/false);
}

}  // namespace

void slot_allreduce(RankCtx& ctx, const void* send, void* recv,
                    std::size_t count, Datatype d, ReduceOp op,
                    const CollOpts& /*opts*/) {
  detail::check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const std::size_t bytes = count * dtype_size(d);
  require_fit(ctx, bytes);
  trace::CollScope coll_scope(detail::trace_coll_id(CollKind::allreduce),
                              bytes, detail::trace_alg_id(Algorithm::slot));
  if (ctx.nranks() == 1) {
    if (recv != send) copy::t_copy(recv, send, bytes);
    return;
  }
  const std::uint64_t e = ctx.next_slot_epoch();
  std::byte* mine = ctx.slot(e, ctx.rank());
  // The own operand is read back from the slot, so send == recv is safe.
  rt::slot_round(
      ctx.slot_sync(), rt::slot_role(rt::SlotOp::allreduce, ctx.rank(), 0), e,
      [&] { copy_span(trace::Phase::copy_in, mine, send, bytes); },
      [&] { reduce_slots(ctx, e, mine, recv, bytes, d, op); });
}

void slot_reduce(RankCtx& ctx, const void* send, void* recv,
                 std::size_t count, Datatype d, ReduceOp op, int root,
                 const CollOpts& /*opts*/) {
  detail::check_reduction_args(ctx, send, count, d, op);
  detail::check_root(ctx, root);
  if (count == 0) return;
  YHCCL_REQUIRE(ctx.rank() != root || recv != nullptr,
                "null recv buffer at the reduce root");
  const std::size_t bytes = count * dtype_size(d);
  require_fit(ctx, bytes);
  trace::CollScope coll_scope(detail::trace_coll_id(CollKind::reduce), bytes,
                              detail::trace_alg_id(Algorithm::slot));
  if (ctx.nranks() == 1) {
    if (recv != send) copy::t_copy(recv, send, bytes);
    return;
  }
  const std::uint64_t e = ctx.next_slot_epoch();
  std::byte* mine = ctx.slot(e, ctx.rank());
  rt::SlotRole role = rt::slot_role(rt::SlotOp::reduce, ctx.rank(), root);
  // reduce_out_multi lets recv alias only its first source: an in-place
  // root other than rank 0 stages its operand in its slot like a writer.
  const bool stage = ctx.rank() == root && send == recv && root != 0;
  role.write = role.write || stage;
  const void* own = stage ? mine : send;
  rt::slot_round(
      ctx.slot_sync(), role, e,
      [&] { copy_span(trace::Phase::copy_in, mine, send, bytes); },
      [&] { reduce_slots(ctx, e, own, recv, bytes, d, op); });
}

void slot_broadcast(RankCtx& ctx, void* buf, std::size_t count, Datatype d,
                    int root, const CollOpts& /*opts*/) {
  detail::check_root(ctx, root);
  const std::size_t bytes = count * dtype_size(d);
  require_fit(ctx, bytes);
  trace::CollScope coll_scope(detail::trace_coll_id(CollKind::broadcast),
                              bytes, detail::trace_alg_id(Algorithm::slot));
  if (count == 0 || ctx.nranks() == 1) return;
  YHCCL_REQUIRE(buf != nullptr, "null broadcast buffer");
  const std::uint64_t e = ctx.next_slot_epoch();
  std::byte* src = ctx.slot(e, root);
  rt::slot_round(
      ctx.slot_sync(), rt::slot_role(rt::SlotOp::broadcast, ctx.rank(), root),
      e, [&] { copy_span(trace::Phase::copy_in, src, buf, bytes); },
      [&] { copy_span(trace::Phase::copy_out, buf, src, bytes); });
}

}  // namespace yhccl::coll
