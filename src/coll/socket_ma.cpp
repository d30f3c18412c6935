// Socket-aware two-level movement-avoiding reduction (paper §3.3, Fig. 7).
//
// Stage 1: each socket independently runs an MA reduction of the round's
//   data over its n = p/m local ranks (socket slice size I' = m*I, i.e. m
//   consecutive ownership blocks per socket slice), accumulating into a
//   per-socket shared buffer.  Only neighbour synchronization inside the
//   socket: p/m - 1 syncs instead of p - 1.
// Stage 2: rank r combines its final slice r across the m socket buffers
//   with one single-pass m-ary fused reduction and delivers it.  One node
//   barrier.
//
// DAV: s*(3p - m) + s*(m + 1) = s*(3p + 1), independent of m — below the
// paper's s*(3p + 2m - 3), which assumed a pairwise stage-2 chain; the
// fewer-synchronizations trade (Table 1 discussion) still applies.
//
// Falls back to the flat MA algorithm when the topology has one socket or
// the ranks do not divide evenly across sockets.
#include <cstdint>

#include "schedule.hpp"

namespace yhccl::coll {

namespace detail {

namespace {

bool socket_layout_usable(const rt::Topology& t) {
  return t.nsockets() > 1 && t.nranks() % t.nsockets() == 0 &&
         t.nranks() / t.nsockets() >= 1;
}

}  // namespace

template <class X>
void socket_ma_schedule(X& x, CollKind kind, std::size_t bytes, int root) {
  if (!socket_layout_usable(x.topo()))
    return ma_schedule(x, kind, bytes, root);
  const rt::Topology& topo = x.topo();
  const int p = x.nranks();
  const int m = topo.nsockets();  // sockets
  const int n = p / m;            // ranks per socket
  const int r = x.rank();
  const int sock = topo.socket_of(r);
  const int q = topo.socket_rank(r);
  const int base = topo.socket_base(sock);
  const auto S = BlockSlicing::of(kind, bytes, p, x.opts());
  // One p-slot buffer per socket; socket 0's also gathers the node result.
  const std::size_t region = static_cast<std::size_t>(p) * S.slice;
  const auto scratch = x.carve(static_cast<std::size_t>(m) * region);
  const auto sock_shm = [&](int s) {
    return scratch + static_cast<std::size_t>(s) * region;
  };
  x.set_work_set(WorkSet::of(kind, S.total, p, m, S.slice));
  const std::uint64_t seq = x.next_seq();
  const auto lr = static_cast<std::size_t>(r);
  const int local_right = base + (q + 1) % n;

  for (std::size_t t = 0; t < S.nrounds; ++t) {
    // Stage 1: intra-socket MA accumulation into my socket's buffer.
    // Socket slice u covers ownership blocks [u*m, (u+1)*m).
    for (int j = 0; j < n; ++j) {
      // Abort/injection check once per intra-socket slice step.
      x.fault_point("slice");
      const int u = (q + 1 + j) % n;
      const std::uint64_t k = t * static_cast<std::size_t>(n) +
                              static_cast<std::size_t>(j);
      if (k > 0 && n > 1)
        x.step_wait(local_right, rt::RankCtx::step_value(seq, k));
      for (int b = u * m; b < (u + 1) * m; ++b) {
        const auto lb = static_cast<std::size_t>(b);
        const std::size_t len = S.len(lb, t);
        if (len == 0) continue;
        const auto slot = sock_shm(sock) + lb * S.slice;
        const auto src = x.send(S.off(lb, t));
        if (j == 0)
          x.copy_in(slot, src, len);
        else
          x.reduce(slot, src, len);
      }
      x.step_publish(rt::RankCtx::step_value(seq, k + 1));
    }
    x.barrier();  // every socket's stage-1 accumulation complete

    // Stage 2: combine slice r across the m socket buffers — into my
    // receive block for the scatter, else into socket 0's buffer (read
    // again right away).
    x.fault_point("slice");
    const std::size_t len = S.len(lr, t);
    if (len > 0) {
      typename X::Src srcs[rt::kMaxSockets];
      for (int s = 0; s < m; ++s) srcs[s] = sock_shm(s) + lr * S.slice;
      x.reduce_multi(scatters(kind) ? x.recv(S.off_in_block(t))
                                    : sock_shm(0) + lr * S.slice,
                     srcs, m, len, /*deliver=*/scatters(kind));
    }
    x.barrier();  // stage-2 reads of all sockets' buffers complete

    if (!scatters(kind)) {
      if (copies_out(kind, r, root)) copy_out_round(x, S, t, sock_shm(0));
      x.barrier();  // copy-out done before the next round overwrites
    }
  }
}

template void socket_ma_schedule(RankExec&, CollKind, std::size_t, int);
template void socket_ma_schedule(CountExec&, CollKind, std::size_t, int);

}  // namespace detail

// Each entry opens the outermost scope: a fallback to the flat arm nests
// inside it, so the trace still attributes the call to the socket-aware
// algorithm choice.

void socket_ma_reduce_scatter(RankCtx& ctx, const void* send, void* recv,
                              std::size_t count, Datatype d, ReduceOp op,
                              const CollOpts& opts) {
  trace::CollScope coll_scope(
      detail::trace_coll_id(CollKind::reduce_scatter),
      count * dtype_size(d) * static_cast<std::size_t>(ctx.nranks()),
      detail::trace_alg_id(Algorithm::ma_socket_aware));
  detail::check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  detail::RankExec x(ctx, send, recv, opts, d, op);
  detail::socket_ma_schedule(x, CollKind::reduce_scatter,
                             count * dtype_size(d), /*root=*/0);
}

void socket_ma_allreduce(RankCtx& ctx, const void* send, void* recv,
                         std::size_t count, Datatype d, ReduceOp op,
                         const CollOpts& opts) {
  trace::CollScope coll_scope(
      detail::trace_coll_id(CollKind::allreduce), count * dtype_size(d),
      detail::trace_alg_id(Algorithm::ma_socket_aware));
  detail::check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  detail::RankExec x(ctx, send, recv, opts, d, op);
  detail::socket_ma_schedule(x, CollKind::allreduce, count * dtype_size(d),
                             /*root=*/0);
}

void socket_ma_reduce(RankCtx& ctx, const void* send, void* recv,
                      std::size_t count, Datatype d, ReduceOp op, int root,
                      const CollOpts& opts) {
  detail::check_root(ctx, root);
  trace::CollScope coll_scope(
      detail::trace_coll_id(CollKind::reduce), count * dtype_size(d),
      detail::trace_alg_id(Algorithm::ma_socket_aware));
  detail::check_reduction_args(ctx, send, count, d, op);
  if (count == 0) return;
  detail::RankExec x(ctx, send, recv, opts, d, op);
  detail::socket_ma_schedule(x, CollKind::reduce, count * dtype_size(d),
                             root);
}

}  // namespace yhccl::coll
