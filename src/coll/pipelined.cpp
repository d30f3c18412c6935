// Pipelined shared-memory broadcast and all-gather with adaptive
// non-temporal stores (paper §4.3, Algorithms 3 and 4).
//
// Classic double-buffered pipeline: while producers fill one I-sized slot,
// consumers drain the other; one node barrier per slice.  The copy into
// shared memory is temporal (read again immediately); the copy into the
// receive buffers is non-temporal whenever the collective's working set
// exceeds the available cache.
#include <cstdint>

#include "schedule.hpp"

namespace yhccl::coll {

namespace detail {

namespace {

std::size_t pipeline_slice(std::size_t total, const CollOpts& opts) {
  const std::size_t imax =
      std::max(round_up(opts.slice_max, kCacheline), kCacheline);
  const std::size_t want = round_up(std::max<std::size_t>(total, 1),
                                    kCacheline);
  return std::min(want, imax);
}

template <class X>
void broadcast_schedule(X& x, std::size_t s, int root) {
  const int p = x.nranks();
  if (p == 1) return;
  const std::size_t I = pipeline_slice(s, x.opts());
  const std::size_t nsl = ceil_div(s, I);
  const auto shm = x.carve(2 * I);
  x.set_work_set(WorkSet::broadcast(s, p, I));
  const bool is_root = x.rank() == root;

  auto slice_len = [&](std::size_t k) { return std::min(I, s - k * I); };
  // Consumer side: receive buffers are used only after the collective.
  auto drain = [&](std::size_t k) {
    x.copy_out(x.recv(k * I), shm + (k % 2) * I, slice_len(k));
  };

  for (std::size_t k = 0; k < nsl; ++k) {
    // One abort/injection check per pipeline stage (slot-copy granularity).
    x.fault_point("pipeline");
    if (is_root)
      // Producer side: the slot is consumed right away -> temporal.
      x.copy_in(shm + (k % 2) * I, x.send(k * I), slice_len(k));
    else if (k >= 1)
      drain(k - 1);
    x.barrier();
  }
  if (!is_root) drain(nsl - 1);
  x.barrier();  // protect slot reuse by the next collective
}

template <class X>
void allgather_schedule(X& x, std::size_t s) {
  const int p = x.nranks();
  if (p == 1) return x.self_copy(s);
  const std::size_t I = pipeline_slice(s, x.opts());
  const std::size_t nsl = ceil_div(s, I);
  const auto shm =
      x.carve(2 * static_cast<std::size_t>(p) * I);  // p double buffers
  auto slot = [&](int rank, std::size_t k) {
    return shm + (static_cast<std::size_t>(rank) * 2 + k % 2) * I;
  };
  x.set_work_set(WorkSet::allgather(s, p, I));
  auto slice_len = [&](std::size_t k) { return std::min(I, s - k * I); };
  // Every rank's slice k, out of the slots, in one span.
  auto drain = [&](std::size_t k) {
    const std::size_t lp = slice_len(k);
    auto batch = x.batch(trace::Phase::copy_out, lp);
    for (int a = 0; a < p; ++a)
      x.copy_out(x.recv(static_cast<std::size_t>(a) * s + k * I), slot(a, k),
                 lp);
  };

  for (std::size_t k = 0; k < nsl; ++k) {
    x.fault_point("pipeline");
    x.copy_in(slot(x.rank(), k), x.send(k * I), slice_len(k));
    if (k >= 1) drain(k - 1);
    x.barrier();
  }
  drain(nsl - 1);
  x.barrier();
}

}  // namespace

template <class X>
void pipelined_schedule(X& x, CollKind kind, std::size_t bytes, int root) {
  if (kind == CollKind::broadcast) return broadcast_schedule(x, bytes, root);
  allgather_schedule(x, bytes);
}

template void pipelined_schedule(RankExec&, CollKind, std::size_t, int);
template void pipelined_schedule(CountExec&, CollKind, std::size_t, int);

}  // namespace detail

void pipelined_broadcast(RankCtx& ctx, void* buf, std::size_t count,
                         Datatype d, int root, const CollOpts& opts) {
  detail::check_root(ctx, root);
  trace::CollScope coll_scope(detail::trace_coll_id(CollKind::broadcast),
                              count * dtype_size(d),
                              detail::trace_alg_id(Algorithm::pipelined));
  if (count == 0) return;
  detail::RankExec x(ctx, buf, buf, opts);
  detail::pipelined_schedule(x, CollKind::broadcast, count * dtype_size(d),
                             root);
}

void pipelined_allgather(RankCtx& ctx, const void* send, void* recv,
                         std::size_t count, Datatype d,
                         const CollOpts& opts) {
  trace::CollScope coll_scope(detail::trace_coll_id(CollKind::allgather),
                              count * dtype_size(d),
                              detail::trace_alg_id(Algorithm::pipelined));
  if (count == 0) return;
  detail::RankExec x(ctx, send, recv, opts);
  detail::pipelined_schedule(x, CollKind::allgather, count * dtype_size(d),
                             /*root=*/0);
}

}  // namespace yhccl::coll
