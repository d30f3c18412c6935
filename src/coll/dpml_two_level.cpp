// DPML-style data-partitioned parallel reduction, with YHCCL's two-level
// (socket-aware) hierarchy (paper §5.1).
//
// Per round, every rank copies its share of the round into a private
// staging region of shared memory (this full copy-in is exactly the
// redundancy the MA algorithms eliminate — kept faithful here because this
// algorithm is both the small-message fast path and, in flat mode, the
// paper's DPML baseline [13]).  Then:
//   stage 1 (two-level only): each socket's members reduce the staged
//     buffers of their socket into the socket leader's staging region,
//     partitioned by ownership block.
//   stage 2: the owner of each block reduces it across the socket leaders
//     (flat mode: across all p staging regions) and delivers it.
//
// The only synchronization is a handful of node barriers per round — no
// per-step neighbour flags — which is why it wins for small messages where
// the MA pipeline's p-1 synchronizations dominate.
#include <cstdint>

#include "schedule.hpp"

namespace yhccl::coll {

namespace detail {

namespace {

/// DPML's groups: the sockets, or p singletons in flat mode and on one
/// socket.
struct Groups {
  const rt::Topology& topo;
  int p;
  bool flat;

  int count() const noexcept { return flat ? p : topo.nsockets(); }
  int base(int x) const noexcept { return flat ? x : topo.socket_base(x); }
  int size(int x) const noexcept { return flat ? 1 : topo.socket_size(x); }
  int of(int rank) const noexcept {
    return flat ? rank : topo.socket_of(rank);
  }
  int index_of(int rank) const noexcept {
    return flat ? 0 : topo.socket_rank(rank);
  }
};

}  // namespace

template <class X>
void dpml_schedule(X& x, CollKind kind, std::size_t bytes, int root) {
  const int p = x.nranks();
  const auto pp = static_cast<std::size_t>(p);
  // Clamp the per-round chunk so (p+1) staging regions of p*I fit scratch.
  CollOpts o = x.opts();
  const std::size_t cap = x.scratch_bytes() / ((pp + 1) * pp + 2);
  o.slice_max = std::clamp<std::size_t>(o.dpml_chunk, kCacheline,
                                        std::max(cap, kCacheline));
  const auto S = BlockSlicing::of(kind, bytes, p, o);
  if (p == 1) return x.self_copy(S.total);
  const auto r = static_cast<std::size_t>(x.rank());
  const Groups g{x.topo(), p, o.dpml_flat || x.topo().nsockets() == 1};
  const std::size_t I = S.slice;
  const std::size_t RB = pp * I;  // staged per rank

  // p staging regions of RB bytes + one node-result region.
  const auto staging = x.carve(pp * RB);
  const auto node_res = x.carve(RB);
  const auto stage_of = [&](int rank) {
    return staging + static_cast<std::size_t>(rank) * RB;
  };
  x.set_work_set(
      WorkSet::allreduce(S.total, p, g.count(), I));  // conservative

  // Stage 1's closing barrier must be team-uniform: with heterogeneous
  // socket sizes (e.g. 3 ranks over 2 sockets) a singleton group does no
  // stage-1 work but still has to match its peers' barrier, or every later
  // barrier pairs off-by-one and the team deadlocks.
  bool any_multi = false;
  for (int s = 0; s < g.count(); ++s) any_multi = any_multi || g.size(s) > 1;
  const int group = g.of(x.rank());
  const int leader = g.base(group);
  const int n = g.size(group);
  const int index = g.index_of(x.rank());

  for (std::size_t t = 0; t < S.nrounds; ++t) {
    // Copy-in: my sub-slice of every block, gathered into my staging.
    {
      auto batch = x.batch(trace::Phase::copy_in, I);
      for (int b = 0; b < p; ++b) {
        const auto lb = static_cast<std::size_t>(b);
        const std::size_t len = S.len(lb, t);
        if (len > 0)
          x.copy_in(stage_of(x.rank()) + lb * I, x.send(S.off(lb, t)), len);
      }
    }
    x.barrier();

    // Stage 1: intra-group reduction into the group leader's staging.
    if (n > 1) {
      auto batch = x.batch(trace::Phase::reduce, 0);
      const int lo = index * p / n;
      const int hi = (index + 1) * p / n;
      for (int b = lo; b < hi; ++b) {
        const auto lb = static_cast<std::size_t>(b);
        const std::size_t len = S.len(lb, t);
        if (len == 0) continue;
        typename X::Src srcs[rt::kMaxRanks];
        for (int i = 0; i < n; ++i) srcs[i] = stage_of(leader + i) + lb * I;
        x.reduce_multi(stage_of(leader) + lb * I, srcs, n, len,
                       /*deliver=*/false);
      }
    }
    if (any_multi) x.barrier();

    // Stage 2: block owners combine the group leaders' partials, straight
    // into the receive block for the scatter.
    const std::size_t len_r = S.len(r, t);
    if (len_r > 0) {
      typename X::Src srcs[rt::kMaxRanks];
      for (int s = 0; s < g.count(); ++s)
        srcs[s] = stage_of(g.base(s)) + r * I;
      x.reduce_multi(scatters(kind) ? x.recv(S.off_in_block(t))
                                    : node_res + r * I,
                     srcs, g.count(), len_r, /*deliver=*/scatters(kind));
    }
    x.barrier();

    // Copy-out for allreduce / reduce.
    if (!scatters(kind)) {
      if (copies_out(kind, x.rank(), root)) copy_out_round(x, S, t, node_res);
      x.barrier();
    }
  }
}

template void dpml_schedule(RankExec&, CollKind, std::size_t, int);
template void dpml_schedule(CountExec&, CollKind, std::size_t, int);

}  // namespace detail

void dpml_two_level_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                                   std::size_t count, Datatype d, ReduceOp op,
                                   const CollOpts& opts) {
  detail::check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const std::size_t B = count * dtype_size(d);
  trace::CollScope coll_scope(
      detail::trace_coll_id(CollKind::reduce_scatter),
      B * static_cast<std::size_t>(ctx.nranks()),
      detail::trace_alg_id(Algorithm::dpml_two_level));
  detail::RankExec x(ctx, send, recv, opts, d, op);
  detail::dpml_schedule(x, CollKind::reduce_scatter, B, /*root=*/0);
}

void dpml_two_level_allreduce(RankCtx& ctx, const void* send, void* recv,
                              std::size_t count, Datatype d, ReduceOp op,
                              const CollOpts& opts) {
  detail::check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  const std::size_t total = count * dtype_size(d);
  trace::CollScope coll_scope(
      detail::trace_coll_id(CollKind::allreduce), total,
      detail::trace_alg_id(Algorithm::dpml_two_level));
  detail::RankExec x(ctx, send, recv, opts, d, op);
  detail::dpml_schedule(x, CollKind::allreduce, total, /*root=*/0);
}

void dpml_two_level_reduce(RankCtx& ctx, const void* send, void* recv,
                           std::size_t count, Datatype d, ReduceOp op,
                           int root, const CollOpts& opts) {
  detail::check_reduction_args(ctx, send, count, d, op);
  detail::check_root(ctx, root);
  if (count == 0) return;
  const std::size_t total = count * dtype_size(d);
  trace::CollScope coll_scope(
      detail::trace_coll_id(CollKind::reduce), total,
      detail::trace_alg_id(Algorithm::dpml_two_level));
  detail::RankExec x(ctx, send, recv, opts, d, op);
  detail::dpml_schedule(x, CollKind::reduce, total, root);
}

}  // namespace yhccl::coll
