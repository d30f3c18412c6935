// The slot-band correctness matrix shared by test_coll_correctness (thread
// teams), test_coll_process (fork()ed ranks) and test_inplace (send ==
// recv).  Through the public entry points it runs allreduce, reduce and
// broadcast over every dtype/op pair and every root, at counts 0, 1,
// ragged, the slot capacity and one past it (which must leave the slot
// arm), optionally misaligned, then a mixed sequence that reuses both slot
// halves between DPML and MA calls.  Every send buffer is scribbled over as
// soon as its call returns: no peer may still be reading it.  Each rank
// checks its own results and records its first failing case in the team's
// shared heap, so the same helper runs on both backends.
#pragma once

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "test_util.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/runtime/team.hpp"

namespace yhccl::test {

struct SlotMatrixOptions {
  bool in_place = false;    ///< send == recv (MPI_IN_PLACE)
  bool misaligned = false;  ///< operands one element off a cacheline
};

inline const std::vector<std::pair<Datatype, ReduceOp>>& slot_dtype_ops() {
  static const std::vector<std::pair<Datatype, ReduceOp>> pairs = [] {
    std::vector<std::pair<Datatype, ReduceOp>> v;
    for (Datatype d : {Datatype::u8, Datatype::i32, Datatype::i64,
                       Datatype::f32, Datatype::f64})
      for (ReduceOp op : {ReduceOp::sum, ReduceOp::prod, ReduceOp::max,
                          ReduceOp::min, ReduceOp::band, ReduceOp::bor})
        if (op_valid_for(op, d)) v.emplace_back(d, op);
    return v;
  }();
  return pairs;
}

/// Element counts of the matrix for dtype size `esize` at p ranks: 0, 1,
/// ragged, at the slot capacity and one past it (index 5).
inline std::vector<std::size_t> slot_counts(int p, std::size_t esize) {
  const std::size_t cap = rt::slot_capacity(p) / esize;
  return {0, 1, 7, cap / 2 + 3, cap, cap + 1};
}

/// Runs the matrix on `team`; returns "" when clean, else the first
/// failure of every failing rank.
inline std::string run_slot_matrix(rt::Team& team,
                                   const SlotMatrixOptions& mo) {
  const int p = team.nranks();
  constexpr int kKinds = 3;  // allreduce, reduce, broadcast
  auto* first = reinterpret_cast<std::int64_t*>(
      team.shared_alloc(sizeof(std::int64_t) * static_cast<std::size_t>(p)));
  for (int r = 0; r < p; ++r) first[r] = -1;
  const bool expect_slot = team.tune_mode() != rt::TuneMode::online;
  const auto& pairs = slot_dtype_ops();

  team.run([&](rt::RankCtx& ctx) {
    const int r = ctx.rank();
    const std::size_t bytes_max = rt::slot_capacity(p) + 64;
    std::vector<std::byte> sbuf(bytes_max + 64), rbuf(bytes_max + 64),
        want(bytes_max + 64);
    auto& epoch = ctx.team().shared().persist[r].slot_epoch;
    const auto fail = [&](std::int64_t id) {
      if (first[r] < 0) first[r] = id;
    };
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
      const auto [d, op] = pairs[pi];
      const std::size_t e = dtype_size(d);
      const std::size_t off = mo.misaligned ? e : 0;
      std::byte* send = sbuf.data() + off;
      std::byte* recv = mo.in_place ? send : rbuf.data() + off;
      const auto counts = slot_counts(p, e);
      for (std::size_t ci = 0; ci < counts.size(); ++ci) {
        const std::size_t n = counts[ci];
        const bool past_cap = ci + 1 == counts.size();
        for (int kind = 0; kind < kKinds; ++kind)
          for (int root = 0; root < (kind == 0 ? 1 : p); ++root) {
            const std::int64_t id =
                ((static_cast<std::int64_t>(pi) * 8 + ci) * kKinds + kind) *
                    rt::kMaxRanks + root;
            fill_buffer(send, n, d, kind == 2 && r != root ? 100 + r : r, op);
            if (!mo.in_place) std::memset(recv, 0xcd, n * e);
            const std::uint64_t e0 = epoch;
            if (kind == 0)
              coll::allreduce(ctx, send, recv, n, d, op);
            else if (kind == 1)
              coll::reduce(ctx, send,
                           mo.in_place || r == root ? recv : nullptr, n, d,
                           op, root);
            else
              coll::broadcast(ctx, send, n, d, root);
            // A slot call advances the slot epoch by one; one past the
            // capacity must take the barrier arms instead.
            const std::uint64_t took = epoch - e0;
            if (past_cap ? took != 0
                         : (expect_slot && n > 0 && p > 1 && took != 1))
              fail(id);
            bool ok = true;
            if (kind == 0 || (kind == 1 && r == root)) {
              ok = static_cast<bool>(check_reduced(recv, n, d, p, op));
            } else if (kind == 1) {
              // A non-root's buffers are untouched (in place: its operand).
              fill_buffer(want.data(), n, d, r, op);
              ok = std::memcmp(send, want.data(), n * e) == 0;
            } else {
              fill_buffer(want.data(), n, d, root, op);
              ok = std::memcmp(send, want.data(), n * e) == 0;
            }
            if (!ok) fail(id);
            std::memset(sbuf.data(), 0xee, sbuf.size());  // free on return
          }
      }
    }

    // Mixed sequence: back-to-back slot calls of every kind reuse both
    // halves, interleaved with DPML and MA calls on the same buffers.
    coll::CollOpts dpml, ma;
    dpml.algorithm = coll::Algorithm::dpml_two_level;
    ma.algorithm = coll::Algorithm::ma_flat;
    const std::size_t n = rt::slot_capacity(p) / 8;
    for (int it = 0; it < 12; ++it) {
      const int root = it % p;
      const std::int64_t id = -2 - it;
      const auto refill = [&] {
        fill_buffer(sbuf.data(), n, Datatype::f64, r, ReduceOp::sum);
      };
      const auto reduced = [&](const coll::CollOpts& o, bool allred) {
        refill();
        if (allred)
          coll::allreduce(ctx, sbuf.data(), rbuf.data(), n, Datatype::f64,
                          ReduceOp::sum, o);
        else
          coll::reduce(ctx, sbuf.data(), r == root ? rbuf.data() : nullptr,
                       n, Datatype::f64, ReduceOp::sum, root, o);
        std::memset(sbuf.data(), 0xee, n * 8);
        if ((allred || r == root) &&
            !check_reduced(rbuf.data(), n, Datatype::f64, p, ReduceOp::sum))
          fail(id);
      };
      const auto bcast = [&] {
        fill_buffer(sbuf.data(), n, Datatype::f64, r == root ? root : 50 + r,
                    ReduceOp::sum);
        coll::broadcast(ctx, sbuf.data(), n, Datatype::f64, root);
        fill_buffer(want.data(), n, Datatype::f64, root, ReduceOp::sum);
        if (std::memcmp(sbuf.data(), want.data(), n * 8) != 0) fail(id);
      };
      reduced({}, true);
      reduced({}, false);
      bcast();
      reduced(dpml, true);
      bcast();
      reduced({}, false);
      reduced(ma, true);
      reduced({}, true);
    }
  });

  std::string report;
  for (int r = 0; r < p; ++r) {
    const std::int64_t id = first[r];
    if (id == -1) continue;
    report += "rank " + std::to_string(r) + ": ";
    if (id < -1) {
      report += "mixed sequence iteration " + std::to_string(-2 - id) + "\n";
      continue;
    }
    const int root = static_cast<int>(id % rt::kMaxRanks);
    const int kind = static_cast<int>(id / rt::kMaxRanks % kKinds);
    const std::size_t ci = id / rt::kMaxRanks / kKinds % 8;
    const auto [d, op] = pairs[static_cast<std::size_t>(
        id / rt::kMaxRanks / kKinds / 8)];
    report += std::string(kind == 0   ? "allreduce"
                          : kind == 1 ? "reduce"
                                      : "broadcast") +
              " " + std::string(dtype_name(d)) + "/" +
              std::string(op_name(op)) + " count " +
              std::to_string(slot_counts(p, dtype_size(d))[ci]) + " root " +
              std::to_string(root) + "\n";
  }
  return report;
}

}  // namespace yhccl::test
