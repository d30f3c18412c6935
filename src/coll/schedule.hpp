// The executors the collective schedules run on (paper §3: a reduction is
// one schedule — per step, its sources, destination and sync edge).
//
// ma_reduce.cpp, socket_ma.cpp, dpml_two_level.cpp and pipelined.cpp each
// write their schedule once, as a template over an executor `x`, and touch
// nothing but:
//   geometry  x.rank() x.nranks() x.topo() x.opts() x.scratch_bytes()
//   buffers   x.send(off) x.recv(off) x.carve(bytes)        -> X::Addr
//   setup     x.set_work_set(W) x.next_seq()
//   movement  x.copy_in x.copy_out x.reduce x.reduce_out x.reduce_multi
//             x.self_copy; x.batch(phase, n) groups calls into one span
//   sync      x.step_wait x.step_publish x.barrier x.fault_point
//
// RankExec runs a schedule on a RankCtx: it is the only place that opens
// the movement spans, picks the store type from the copy policy, C and W,
// and calls the kernels.  CountExec books, per call, what the instrumented
// kernels and sync primitives count (model::impl::OpCounts); op_counts.cpp
// runs it once per rank, so every arm's op counts come from the schedule
// the ranks run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/detail.hpp"
#include "yhccl/copy/isa.hpp"
#include "yhccl/copy/policy.hpp"
#include "yhccl/copy/reduce_kernels.hpp"
#include "yhccl/model/dav_model.hpp"
#include "yhccl/runtime/topology.hpp"
#include "yhccl/trace/trace.hpp"

namespace yhccl::coll::detail {

// Movement calls, for both executors:
//   copy_in(dst, src, n)     into shared memory read again soon (temporal)
//   copy_out(dst, src, n)    into a receive buffer, not re-read (may stream)
//   reduce(acc, src, n)      acc (+)= src in shared memory (temporal)
//   reduce_out(out, a, b, n) out = a (+) b into a receive buffer (may stream)
//   reduce_multi(out, srcs, m, n, deliver)
//                            out = (+) of m sources in one pass; into a
//                            receive buffer when `deliver`, else shared
//   self_copy(n)             p == 1: send -> recv, temporal, untraced
// Inside a batch a call adds its bytes to the batch's span instead of
// opening its own.

class RankExec {
 public:
  using Addr = std::byte*;
  using CAddr = const std::byte*;
  using Src = const void*;  ///< element of a reduce_multi source list

  RankExec(RankCtx& ctx, const void* send, void* recv, const CollOpts& opts,
           Datatype d = Datatype::u8, ReduceOp op = ReduceOp::sum)
      : ctx_(ctx),
        opts_(opts),
        send_(static_cast<const std::byte*>(send)),
        recv_(static_cast<std::byte*>(recv)),
        carver_(ctx),
        C_(ctx.cache().available(ctx.nranks())),
        d_(d),
        op_(op) {}

  int rank() const noexcept { return ctx_.rank(); }
  int nranks() const noexcept { return ctx_.nranks(); }
  const rt::Topology& topo() const noexcept { return ctx_.team().topo(); }
  const CollOpts& opts() const noexcept { return opts_; }
  std::size_t scratch_bytes() const noexcept { return ctx_.scratch_bytes(); }

  CAddr send(std::size_t off) const noexcept { return send_ + off; }
  Addr recv(std::size_t off) const noexcept { return recv_ + off; }
  Addr carve(std::size_t bytes) { return carver_.take(bytes); }
  void set_work_set(std::size_t w) noexcept { W_ = w; }
  std::uint64_t next_seq() { return ctx_.next_seq(); }

  void fault_point(const char* site) { rt::fault_point(site); }
  void step_wait(int peer, std::uint64_t v) { ctx_.step_wait(peer, v); }
  void step_publish(std::uint64_t v) { ctx_.step_publish(v); }
  void barrier() { ctx_.barrier(); }

  void copy_in(Addr dst, CAddr src, std::size_t n) {
    copy(trace::Phase::copy_in, /*temporal=*/true, dst, src, n);
  }
  void copy_out(Addr dst, CAddr src, std::size_t n) {
    copy(trace::Phase::copy_out, /*temporal=*/false, dst, src, n);
  }
  void reduce(Addr acc, CAddr src, std::size_t n) {
    OpSpan sp(batch_, trace::Phase::reduce, n);
    if (sp.active()) sp.set_nt(false);
    copy::reduce_inplace(acc, src, n, d_, op_);
  }
  void reduce_out(Addr out, CAddr a, CAddr b, std::size_t n) {
    const bool nt = nt_store(/*temporal=*/false, n);
    OpSpan sp(batch_, trace::Phase::reduce, n);
    if (sp.active()) sp.set_nt(nt);
    copy::reduce_out(out, a, b, n, d_, op_, nt);
  }
  void reduce_multi(Addr out, const Src* srcs, int m, std::size_t n,
                    bool deliver) {
    const bool nt = deliver && nt_store(/*temporal=*/false, n);
    OpSpan sp(batch_, trace::Phase::reduce, n);
    if (sp.active()) sp.set_nt(nt);
    copy::reduce_out_multi(out, srcs, m, n, d_, op_, nt);
  }
  void self_copy(std::size_t n) { copy::t_copy(recv_, send_, n); }

  /// Calls until the returned guard leaves scope share one span of `ph`,
  /// whose NT bit is the store rule of `ph` at `n` bytes.
  class Batch {
   public:
    Batch(RankExec& x, trace::Phase ph, std::size_t n) : x_(x), sp_(ph) {
      if (sp_.active())
        sp_.set_variant(variant(ph != trace::Phase::reduce &&
                                x.nt_store(ph == trace::Phase::copy_in, n)));
      x_.batch_ = &sp_;
    }
    ~Batch() { x_.batch_ = nullptr; }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    RankExec& x_;
    trace::Span sp_;
  };
  Batch batch(trace::Phase ph, std::size_t n) { return Batch(*this, ph, n); }

 private:
  static std::uint8_t variant(bool nt) noexcept {
    return trace::copy_variant(nt, static_cast<int>(copy::active_isa()));
  }

  /// One call's span, or its bytes' share of the open batch.
  class OpSpan {
   public:
    OpSpan(trace::Span* batch, trace::Phase ph, std::size_t n) {
      if (batch != nullptr)
        batch->add_bytes(n);
      else
        own_.emplace(ph, n);
    }
    bool active() const noexcept { return own_ && own_->active(); }
    void set_nt(bool nt) noexcept {
      if (own_) own_->set_variant(variant(nt));
    }

   private:
    std::optional<trace::Span> own_;
  };

  bool nt_store(bool temporal, std::size_t n) const noexcept {
    return copy::use_nt_store(opts_.policy, temporal, C_, W_, n);
  }
  void copy(trace::Phase ph, bool temporal, Addr dst, CAddr src,
            std::size_t n) {
    OpSpan sp(batch_, ph, n);
    if (sp.active()) sp.set_nt(nt_store(temporal, n));
    copy::dispatch_copy(opts_.policy, dst, src, n, temporal, C_, W_);
  }

  RankCtx& ctx_;
  const CollOpts& opts_;
  const std::byte* send_;
  std::byte* recv_;
  ScratchCarver carver_;
  std::size_t C_;
  std::size_t W_ = 0;
  Datatype d_;
  ReduceOp op_;
  trace::Span* batch_ = nullptr;
};

/// Books one rank's share of a schedule into `c`.  No memory stands
/// behind it: addresses are placeholders, and carve() has no capacity.
class CountExec {
 public:
  struct Addr {
    Addr operator+(std::size_t) const noexcept { return {}; }
  };
  using CAddr = Addr;
  using Src = Addr;

  CountExec(const rt::Topology& topo, int rank, const CollOpts& opts,
            std::size_t scratch_bytes, model::impl::OpCounts& c) noexcept
      : topo_(topo), opts_(opts), scratch_(scratch_bytes), rank_(rank),
        c_(c) {}

  int rank() const noexcept { return rank_; }
  int nranks() const noexcept { return topo_.nranks(); }
  const rt::Topology& topo() const noexcept { return topo_; }
  const CollOpts& opts() const noexcept { return opts_; }
  std::size_t scratch_bytes() const noexcept { return scratch_; }

  Addr send(std::size_t) const noexcept { return {}; }
  Addr recv(std::size_t) const noexcept { return {}; }
  Addr carve(std::size_t) const noexcept { return {}; }
  void set_work_set(std::size_t) noexcept {}
  std::uint64_t next_seq() noexcept { return 0; }

  void fault_point(const char*) noexcept {}
  void step_wait(int, std::uint64_t) noexcept { ++c_.flag_waits; }
  void step_publish(std::uint64_t) noexcept { ++c_.flag_posts; }
  void barrier() noexcept { ++c_.barriers; }

  // The kernels' booking rules (copy/dav.hpp): a copy loads and stores n,
  // a two-operand reduction loads 2n, an m-ary one m·n; one dispatch each.
  void copy_in(Addr, CAddr, std::size_t n) noexcept { book(n, n); }
  void copy_out(Addr, CAddr, std::size_t n) noexcept { book(n, n); }
  void reduce(Addr, CAddr, std::size_t n) noexcept { book(2 * n, n); }
  void reduce_out(Addr, CAddr, CAddr, std::size_t n) noexcept {
    book(2 * n, n);
  }
  void reduce_multi(Addr, const Src*, int m, std::size_t n, bool) noexcept {
    book(static_cast<std::uint64_t>(m) * n, n);
  }
  void self_copy(std::size_t n) noexcept { book(n, n); }

  struct Batch {
    ~Batch() {}  // non-trivial: the schedules' unread guards draw no warning
  };
  Batch batch(trace::Phase, std::size_t) const noexcept { return {}; }

 private:
  void book(std::uint64_t loads, std::size_t n) noexcept {
    if (n == 0) return;  // the kernels return before counting
    c_.loads += loads;
    c_.stores += n;
    ++c_.kernel_calls;
  }

  const rt::Topology& topo_;
  const CollOpts& opts_;
  std::size_t scratch_;
  int rank_;
  model::impl::OpCounts& c_;
};

/// Delivery of a reduction schedule, from its collective kind: the scatter
/// blocks (reduce-scatter), the whole result everywhere (allreduce) or on
/// the root only (reduce).
inline bool scatters(CollKind k) noexcept {
  return k == CollKind::reduce_scatter;
}
inline bool copies_out(CollKind k, int rank, int root) noexcept {
  return k == CollKind::allreduce || (k == CollKind::reduce && rank == root);
}

/// Round t of every block, from the shared result `res` (block b at
/// b·slice) into the receive buffer: one copy-out span.
template <class X>
void copy_out_round(X& x, const BlockSlicing& S, std::size_t t,
                    typename X::Addr res) {
  auto batch = x.batch(trace::Phase::copy_out, S.slice);
  for (int b = 0; b < x.nranks(); ++b) {
    const auto lb = static_cast<std::size_t>(b);
    const std::size_t len = S.len(lb, t);
    if (len > 0) x.copy_out(x.recv(S.off(lb, t)), res + lb * S.slice, len);
  }
}

// The schedules, one per family.  `bytes` is the per-rank block for
// reduce-scatter and allgather, the whole message otherwise; `root` serves
// reduce and broadcast.  Each family's .cpp instantiates its schedule for
// both executors.
template <class X>
void ma_schedule(X& x, CollKind kind, std::size_t bytes, int root);
template <class X>
void socket_ma_schedule(X& x, CollKind kind, std::size_t bytes, int root);
template <class X>
void dpml_schedule(X& x, CollKind kind, std::size_t bytes, int root);
template <class X>
void pipelined_schedule(X& x, CollKind kind, std::size_t bytes, int root);

}  // namespace yhccl::coll::detail
