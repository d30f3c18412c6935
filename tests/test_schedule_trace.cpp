// Characterization of the MA, socket-MA, DPML and pipelined schedules: for
// every arm, team shape, count and copy policy, the per-rank sequence of
// trace records — phase, collective id, bytes and the NT bit (ISA bits
// masked) — hashes to a pinned fingerprint.  Sync records (barrier, flag
// wait/post) keep only their position: their arguments carry sequence
// numbers.  A change to a schedule's step order, slicing, span grouping or
// store policy moves a fingerprint; a pure refactor must not.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "yhccl/coll/coll.hpp"
#include "yhccl/copy/cache_model.hpp"
#include "yhccl/copy/policy.hpp"
#include "yhccl/runtime/thread_team.hpp"
#include "yhccl/trace/trace.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::coll;
using test::fill_buffer;

namespace {

using RunFn = void (*)(rt::RankCtx&, std::size_t count, const CollOpts&);

struct Arm {
  const char* name;
  RunFn run;
};

template <auto Fn>
void run_reduce_scatter(rt::RankCtx& ctx, std::size_t count,
                        const CollOpts& o) {
  std::vector<double> send(count * ctx.nranks()), recv(count);
  fill_buffer(send.data(), send.size(), Datatype::f64, ctx.rank(),
              ReduceOp::sum);
  Fn(ctx, send.data(), recv.data(), count, Datatype::f64, ReduceOp::sum, o);
}

template <auto Fn>
void run_allreduce(rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
  std::vector<double> send(count), recv(count);
  fill_buffer(send.data(), count, Datatype::f64, ctx.rank(), ReduceOp::sum);
  Fn(ctx, send.data(), recv.data(), count, Datatype::f64, ReduceOp::sum, o);
}

template <auto Fn>
void run_reduce(rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
  std::vector<double> send(count), recv(count);
  fill_buffer(send.data(), count, Datatype::f64, ctx.rank(), ReduceOp::sum);
  Fn(ctx, send.data(), recv.data(), count, Datatype::f64, ReduceOp::sum,
     /*root=*/ctx.nranks() - 1, o);
}

void run_broadcast(rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
  std::vector<double> buf(count);
  fill_buffer(buf.data(), count, Datatype::f64, ctx.rank(), ReduceOp::sum);
  pipelined_broadcast(ctx, buf.data(), count, Datatype::f64,
                      /*root=*/ctx.nranks() - 1, o);
}

void run_allgather(rt::RankCtx& ctx, std::size_t count, const CollOpts& o) {
  std::vector<double> send(count), recv(count * ctx.nranks());
  fill_buffer(send.data(), count, Datatype::f64, ctx.rank(), ReduceOp::sum);
  pipelined_allgather(ctx, send.data(), recv.data(), count, Datatype::f64, o);
}

const Arm kArms[] = {
    {"ma_reduce_scatter", run_reduce_scatter<ma_reduce_scatter>},
    {"ma_allreduce", run_allreduce<ma_allreduce>},
    {"ma_reduce", run_reduce<ma_reduce>},
    {"socket_ma_reduce_scatter", run_reduce_scatter<socket_ma_reduce_scatter>},
    {"socket_ma_allreduce", run_allreduce<socket_ma_allreduce>},
    {"socket_ma_reduce", run_reduce<socket_ma_reduce>},
    {"dpml_reduce_scatter", run_reduce_scatter<dpml_two_level_reduce_scatter>},
    {"dpml_allreduce", run_allreduce<dpml_two_level_allreduce>},
    {"dpml_reduce", run_reduce<dpml_two_level_reduce>},
    {"pipelined_broadcast", run_broadcast},
    {"pipelined_allgather", run_allgather},
};
constexpr int kNumArms = sizeof(kArms) / sizeof(kArms[0]);

constexpr std::pair<int, int> kShapes[] = {{2, 1}, {3, 1}, {4, 2}, {3, 2}};
constexpr int kNumShapes = 4;
constexpr std::size_t kCounts[] = {4096, 3003, 17};
constexpr copy::CopyPolicy kPolicies[] = {copy::CopyPolicy::adaptive,
                                          copy::CopyPolicy::always_nt};

/// Fingerprints at kShapes order, one row per kArms entry.
constexpr std::uint64_t kExpected[kNumArms][kNumShapes] = {
    {0x763b4074bb5c5bfd, 0x68359d221e6aa0c1,
     0x56134e16fb86d51d, 0x68359d221e6aa0c1},  // ma_reduce_scatter
    {0xa3509a9a38abf9dd, 0xc20219a26ba7ab40,
     0xea57f3a34f75aa70, 0xc20219a26ba7ab40},  // ma_allreduce
    {0x78e281cd1d7c4ac0, 0x396c949d6311b968,
     0xe3901e06f4cd94e5, 0x396c949d6311b968},  // ma_reduce
    {0x509e7c7b2819872d, 0x26cf473cf3f7d7e9,
     0xdb7d1565be76c6b5, 0x26cf473cf3f7d7e9},  // socket_ma_reduce_scatter
    {0xc34d1f4770f1a515, 0x8a5ea38918dd80c8,
     0x5f0428036cbc8b11, 0x8a5ea38918dd80c8},  // socket_ma_allreduce
    {0x3f5463df1d2241b0, 0xf183cfae3ea63508,
     0xfa912b346be1f510, 0xf183cfae3ea63508},  // socket_ma_reduce
    {0x4ca90bf8f53155f5, 0x75556b55529b7d09,
     0xdf0ef43bfdf8f0cd, 0x9eaabc32a9cb11a5},  // dpml_reduce_scatter
    {0x74381a95a5007979, 0xeaa1d320dd80f4b8,
     0xe83473ea933af639, 0xfe894a977de022c0},  // dpml_allreduce
    {0x31a46440828b1890, 0x0315313ba247a76c,
     0x328398aa4d0eb220, 0xe8bc361c9a741f1c},  // dpml_reduce
    {0x62c9fb1af37dd9ad, 0x1ee5bf3e2ca9e99c,
     0xb3a2ed35dee5f935, 0x1ee5bf3e2ca9e99c},  // pipelined_broadcast
    {0x3b056ebe01688c9d, 0x2ab60b2c5c0808c9,
     0x49644f259c48d0cd, 0x2ab60b2c5c0808c9},  // pipelined_allgather
};

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ (v & 0xff)) * 0x100000001b3ull;
      v >>= 8;
    }
  }
};

/// Fold the records rank `r` pushed since index `from` of its ring.
void fold_records(Fnv& f, const trace::TraceBuffer& buf, int r,
                  std::uint64_t from) {
  ASSERT_LE(buf.first_kept(r), from) << "trace ring wrapped within one run";
  for (std::uint64_t i = from; i < buf.count(r); ++i) {
    const trace::Rec rec = buf.read(r, i);
    if (rec.flags & trace::kFlagMarker) continue;  // timing-dependent stalls
    const auto ph = static_cast<trace::Phase>(rec.phase);
    std::uint64_t arg = rec.arg, var = rec.variant;
    switch (ph) {
      case trace::Phase::coll: break;  // payload bytes, algorithm id
      case trace::Phase::copy_in:
      case trace::Phase::copy_out:
      case trace::Phase::reduce: var &= 1; break;  // NT bit, ISA masked
      default: arg = var = 0;
    }
    f.fold(rec.phase | rec.coll << 8 | var << 16);
    f.fold(arg);
  }
}

std::uint64_t fingerprint(const Arm& arm, int p, int m) {
  Fnv f;
  for (copy::CopyPolicy policy : kPolicies) {
    rt::TeamConfig cfg;
    cfg.nranks = p;
    cfg.nsockets = m;
    cfg.scratch_bytes = 8u << 20;
    cfg.trace = trace::Mode::spans;
    // A fixed cache small enough that the adaptive policy streams the
    // larger counts and keeps the small ones temporal, on any host.
    cfg.cache = copy::CacheConfig{.llc_bytes = 64u << 10,
                                  .l2_per_core = 16u << 10,
                                  .llc_counts = false};
    rt::ThreadTeam team(cfg);
    const trace::TraceBuffer& buf = *team.trace_buffer();
    CollOpts o;
    o.policy = policy;
    o.slice_max = 4u << 10;
    o.dpml_chunk = 4u << 10;
    for (std::size_t count : kCounts) {
      std::vector<std::uint64_t> from(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) from[r] = buf.count(r);
      team.run([&](rt::RankCtx& ctx) { arm.run(ctx, count, o); });
      for (int r = 0; r < p; ++r) {
        f.fold(static_cast<std::uint64_t>(r));
        fold_records(f, buf, r, from[r]);
      }
    }
  }
  return f.h;
}

TEST(ScheduleTrace, EveryArmKeepsItsRecordSequence) {
  for (int a = 0; a < kNumArms; ++a) {
    for (int s = 0; s < kNumShapes; ++s) {
      const auto [p, m] = kShapes[s];
      const std::uint64_t got = fingerprint(kArms[a], p, m);
      EXPECT_EQ(got, kExpected[a][s])
          << kArms[a].name << " p=" << p << " m=" << m << " got 0x"
          << std::hex << got;
    }
  }
}

}  // namespace
