#include "yhccl/coll/op_counts.hpp"

#include <algorithm>

#include "schedule.hpp"

namespace yhccl::coll {

model::impl::OpCounts op_counts(CollKind kind, Algorithm a, std::size_t s,
                                int ranks, int sockets, const CollOpts& opts,
                                std::size_t scratch_bytes) {
  namespace mi = model::impl;
  using Schedule = void (*)(detail::CountExec&, CollKind, std::size_t, int);
  const bool reduction = kind == CollKind::allreduce ||
                         kind == CollKind::reduce ||
                         kind == CollKind::reduce_scatter;
  if (a == Algorithm::slot && kind == CollKind::allreduce)
    return mi::slot_allreduce_ops(s, ranks);
  if (a == Algorithm::slot && kind == CollKind::reduce)
    return mi::slot_reduce_ops(s, ranks);
  if (a == Algorithm::slot && kind == CollKind::broadcast)
    return mi::slot_broadcast_ops(s, ranks);
  Schedule schedule = detail::pipelined_schedule<detail::CountExec>;
  if (reduction)
    schedule = a == Algorithm::dpml_two_level
                   ? detail::dpml_schedule<detail::CountExec>
               : a == Algorithm::ma_socket_aware
                   ? detail::socket_ma_schedule<detail::CountExec>
                   : detail::ma_schedule<detail::CountExec>;
  // The schedules take reduce-scatter's per-rank block; a call moving no
  // bytes returns before any of them runs.
  const std::size_t bytes =
      kind == CollKind::reduce_scatter ? s / static_cast<std::size_t>(ranks)
                                       : s;
  YHCCL_REQUIRE(ranks >= 1 && ranks <= rt::kMaxRanks && sockets >= 1 &&
                    sockets <= std::min(ranks, rt::kMaxSockets),
                "op_counts: no team has this (ranks, sockets) shape");
  mi::OpCounts c;
  if (bytes == 0) return c;
  const rt::Topology topo(ranks, sockets);
  for (int r = 0; r < ranks; ++r) {
    detail::CountExec x(topo, r, opts, scratch_bytes, c);
    schedule(x, kind, bytes, /*root=*/0);
  }
  return c;
}

}  // namespace yhccl::coll
