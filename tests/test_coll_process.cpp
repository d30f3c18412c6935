// Integration tests: the YHCCL collectives on fork()-backed rank
// *processes* — the paper's real deployment model.  Buffers the parent
// validates live in the team's shared heap; rank-private buffers live in
// each child's own address space, so these tests also prove the
// collectives never dereference another rank's private memory (the bug
// class the shared-memory design must avoid).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "yhccl/baselines/baselines.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/runtime/process_team.hpp"
#include "slot_matrix.hpp"
#include "test_util.hpp"

using namespace yhccl;
using test::fill_buffer;
using test::check_reduced;

namespace {

rt::ProcessTeam& process_team(int p, int m) {
  static std::map<std::pair<int, int>, std::unique_ptr<rt::ProcessTeam>>
      cache;
  auto key = std::make_pair(p, m);
  auto it = cache.find(key);
  if (it == cache.end()) {
    rt::TeamConfig cfg;
    cfg.nranks = p;
    cfg.nsockets = m;
    cfg.scratch_bytes = 16u << 20;
    cfg.shared_heap_bytes = 32u << 20;
    it = cache.emplace(key, std::make_unique<rt::ProcessTeam>(cfg)).first;
  }
  return *it->second;
}

TEST(ProcessColl, AllreduceWithPrivateBuffers) {
  for (auto [p, m] : {std::pair{2, 1}, {4, 2}, {6, 3}}) {
    auto& team = process_team(p, m);
    const std::size_t count = 40000;
    auto* out = reinterpret_cast<double*>(
        team.shared_alloc(static_cast<std::size_t>(p) * count * 8));
    team.run([&](rt::RankCtx& ctx) {
      std::vector<double> send(count), recv(count);
      fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                  ReduceOp::sum);
      coll::allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                      ReduceOp::sum);
      std::memcpy(out + ctx.rank() * count, recv.data(), count * 8);
      ctx.barrier();
    });
    for (int r = 0; r < p; ++r)
      EXPECT_TRUE(check_reduced(out + r * count, count, Datatype::f64, p,
                                ReduceOp::sum))
          << "p=" << p << " rank " << r;
  }
}

TEST(ProcessColl, EveryAlgorithmArmAcrossProcesses) {
  auto& team = process_team(4, 2);
  const std::size_t count = 30000;
  auto* out =
      reinterpret_cast<float*>(team.shared_alloc(4u * count * 4));
  for (auto alg : {coll::Algorithm::ma_flat, coll::Algorithm::ma_socket_aware,
                   coll::Algorithm::dpml_two_level}) {
    coll::CollOpts o;
    o.algorithm = alg;
    o.slice_max = 8u << 10;
    team.run([&](rt::RankCtx& ctx) {
      std::vector<float> send(count), recv(count);
      fill_buffer(send.data(), count, Datatype::f32, ctx.rank(),
                  ReduceOp::sum);
      coll::allreduce(ctx, send.data(), recv.data(), count, Datatype::f32,
                      ReduceOp::sum, o);
      std::memcpy(out + ctx.rank() * count, recv.data(), count * 4);
      ctx.barrier();
    });
    for (int r = 0; r < 4; ++r)
      EXPECT_TRUE(check_reduced(out + r * count, count, Datatype::f32, 4,
                                ReduceOp::sum))
          << algorithm_name(alg) << " rank " << r;
  }
}

// Regression: 3 ranks over 2 sockets leaves rank 2 alone on its socket.
// The DPML stage-1 barrier used to be entered only by multi-rank sockets,
// so the singleton rank ran one barrier ahead and the team deadlocked
// (small messages pick dpml_two_level, so plain allreduce() hit it).
TEST(ProcessColl, SingletonSocketSmallMessageAllreduce) {
  auto& team = process_team(3, 2);
  const std::size_t count = 1024;
  auto* out = reinterpret_cast<double*>(team.shared_alloc(3u * count * 8));
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> send(count), recv(count);
    fill_buffer(send.data(), count, Datatype::f64, ctx.rank(), ReduceOp::sum);
    coll::allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                    ReduceOp::sum);
    std::memcpy(out + ctx.rank() * count, recv.data(), count * 8);
    ctx.barrier();
  });
  for (int r = 0; r < 3; ++r)
    EXPECT_TRUE(check_reduced(out + r * count, count, Datatype::f64, 3,
                              ReduceOp::sum))
        << "rank " << r;
}

TEST(ProcessColl, ReduceScatterBroadcastAllgather) {
  auto& team = process_team(4, 2);
  const std::size_t count = 20000;  // per-rank block
  auto* rs_out = reinterpret_cast<double*>(
      team.shared_alloc(4u * count * 8));
  auto* bc_out = reinterpret_cast<double*>(
      team.shared_alloc(4u * count * 8));
  auto* ag_out = reinterpret_cast<double*>(
      team.shared_alloc(4u * 4u * count * 8));
  team.run([&](rt::RankCtx& ctx) {
    const int r = ctx.rank();
    std::vector<double> send(count * 4), recv(count);
    fill_buffer(send.data(), count * 4, Datatype::f64, r, ReduceOp::sum);
    coll::reduce_scatter(ctx, send.data(), recv.data(), count, Datatype::f64,
                         ReduceOp::sum);
    std::memcpy(rs_out + r * count, recv.data(), count * 8);

    std::vector<double> bbuf(count, r == 2 ? 7.25 : -1.0);
    coll::broadcast(ctx, bbuf.data(), count, Datatype::f64, /*root=*/2);
    std::memcpy(bc_out + r * count, bbuf.data(), count * 8);

    std::vector<double> mine(count, 100.0 + r), gathered(count * 4);
    coll::allgather(ctx, mine.data(), gathered.data(), count, Datatype::f64);
    std::memcpy(ag_out + r * 4 * count, gathered.data(), 4 * count * 8);
    ctx.barrier();
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(check_reduced(rs_out + r * count, count, Datatype::f64, 4,
                              ReduceOp::sum, count * r))
        << "rs rank " << r;
    for (std::size_t i = 0; i < count; i += 999)
      ASSERT_EQ(bc_out[r * count + i], 7.25) << "bcast rank " << r;
    for (int a = 0; a < 4; ++a)
      for (std::size_t i = 0; i < count; i += 1111)
        ASSERT_EQ(ag_out[(r * 4 + a) * count + i], 100.0 + a)
            << "ag rank " << r << " block " << a;
  }
}

TEST(ProcessColl, TwoCopyRingWorksAcrossProcesses) {
  auto& team = process_team(3, 1);
  const std::size_t count = 25000;
  auto* out = reinterpret_cast<double*>(team.shared_alloc(3u * count * 8));
  team.run([&](rt::RankCtx& ctx) {
    std::vector<double> send(count), recv(count);
    fill_buffer(send.data(), count, Datatype::f64, ctx.rank(),
                ReduceOp::sum);
    base::ring_allreduce(ctx, send.data(), recv.data(), count, Datatype::f64,
                         ReduceOp::sum, base::Transport::two_copy);
    std::memcpy(out + ctx.rank() * count, recv.data(), count * 8);
    ctx.barrier();
  });
  for (int r = 0; r < 3; ++r)
    EXPECT_TRUE(check_reduced(out + r * count, count, Datatype::f64, 3,
                              ReduceOp::sum));
}

TEST(ProcessColl, CmaTransportIfKernelAllows) {
  if (!rt::cma_available())
    GTEST_SKIP() << "process_vm_readv not permitted in this environment";
  auto& team = process_team(2, 1);
  const std::size_t n = 1 << 16;
  auto* out = reinterpret_cast<std::uint8_t*>(team.shared_alloc(n));
  team.run([&](rt::RankCtx& ctx) {
    std::vector<std::uint8_t> priv(n, static_cast<std::uint8_t>(0x77));
    if (ctx.rank() == 0) {
      ctx.send_zc(1, priv.data(), n);
    } else {
      std::vector<std::uint8_t> got(n, 0);
      ctx.recv_zc(0, got.data(), n, rt::RemoteMode::cma_pagewise);
      std::memcpy(out, got.data(), n);
    }
    ctx.barrier();
  });
  EXPECT_EQ(out[n - 1], 0x77);
}

TEST(ProcessColl, SlotBandMatrixAcrossProcesses) {
  for (auto [p, m] : {std::pair{2, 1}, {3, 1}, {4, 2}})
    for (const bool misaligned : {false, true})
      EXPECT_EQ(test::run_slot_matrix(process_team(p, m), {false, misaligned}),
                "")
          << "p=" << p << " m=" << m << " misaligned=" << misaligned;
}

TEST(ProcessColl, OutOfRangeRootRaises) {
  auto& team = process_team(4, 2);
  EXPECT_THROW(team.run([&](rt::RankCtx& ctx) {
                 double x = 1, y = 0;
                 coll::reduce(ctx, &x, &y, 1, Datatype::f64, ReduceOp::sum,
                              /*root=*/7);
               }),
               Error);
  EXPECT_THROW(team.run([&](rt::RankCtx& ctx) {
                 double x = 1;
                 coll::broadcast(ctx, &x, 1, Datatype::f64, /*root=*/-1);
               }),
               Error);
  // The misuse touched no shared state: the team runs on, unrecovered.
  auto* out = reinterpret_cast<double*>(team.shared_alloc(4 * sizeof(double)));
  team.run([&](rt::RankCtx& ctx) {
    double x = 1, y = 0;
    coll::allreduce(ctx, &x, &y, 1, Datatype::f64, ReduceOp::sum);
    out[ctx.rank()] = y;
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(out[r], 4.0) << "rank " << r;
}

TEST(ProcessColl, ExplicitRootedArmsAndPartialOverlapRaise) {
  auto& team = process_team(4, 2);
  double x[2] = {1, 1}, y[2] = {0, 0};
  EXPECT_THROW(team.run([&](rt::RankCtx& ctx) {
                 coll::ma_reduce(ctx, x, y, 1, Datatype::f64, ReduceOp::sum,
                                 /*root=*/4);
               }),
               Error);
  EXPECT_THROW(team.run([&](rt::RankCtx& ctx) {
                 coll::socket_ma_reduce(ctx, x, y, 1, Datatype::f64,
                                        ReduceOp::sum, /*root=*/-1);
               }),
               Error);
  EXPECT_THROW(team.run([&](rt::RankCtx& ctx) {
                 coll::dpml_two_level_reduce(ctx, x, y, 1, Datatype::f64,
                                             ReduceOp::sum, /*root=*/9);
               }),
               Error);
  EXPECT_THROW(team.run([&](rt::RankCtx& ctx) {
                 coll::pipelined_broadcast(ctx, x, 1, Datatype::f64,
                                           /*root=*/4);
               }),
               Error);
  EXPECT_THROW(team.run([&](rt::RankCtx& ctx) {
                 double v[3] = {1, 1, 1};
                 coll::allreduce(ctx, v, v + 1, 2, Datatype::f64,
                                 ReduceOp::sum);
               }),
               Error);
  EXPECT_THROW(team.run([&](rt::RankCtx& ctx) {
                 double v[3] = {1, 1, 1};
                 coll::reduce(ctx, v + 1, v, 2, Datatype::f64, ReduceOp::sum,
                              0);
               }),
               Error);
  // No rank got as far as a protocol step: the team runs on, unrecovered.
  auto* out = reinterpret_cast<double*>(team.shared_alloc(4 * sizeof(double)));
  team.run([&](rt::RankCtx& ctx) {
    double v = 1;
    coll::allreduce(ctx, &v, &v, 1, Datatype::f64, ReduceOp::sum);
    out[ctx.rank()] = v;
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(out[r], 4.0) << "rank " << r;
}

TEST(ProcessColl, ByteCountOverflowRaises) {
  auto& team = process_team(4, 2);
  // count × 8 overflows, or count × 8 × p does for reduce_scatter's total
  // and allgather's receive size; the buffers are never read.
  const std::size_t huge = SIZE_MAX / 4;
  const std::size_t wide = SIZE_MAX / 16;
  double x[4] = {1, 1, 1, 1}, y[4] = {0, 0, 0, 0};
  // Forked ranks report their own error: each catches it and records
  // whether it is the overflow check's.
  auto* hit = reinterpret_cast<int*>(team.shared_alloc(4 * sizeof(int)));
  const auto raises = [&](const char* what, auto&& call) {
    team.run([&](rt::RankCtx& ctx) {
      hit[ctx.rank()] = 0;
      try {
        call(ctx);
      } catch (const Error& e) {
        hit[ctx.rank()] =
            std::string(e.what()).find("overflows size_t") != std::string::npos;
      }
    });
    for (int r = 0; r < 4; ++r) EXPECT_EQ(hit[r], 1) << what << " rank " << r;
  };
  raises("allreduce", [&](rt::RankCtx& ctx) {
    coll::allreduce(ctx, x, y, huge, Datatype::f64, ReduceOp::sum);
  });
  raises("reduce", [&](rt::RankCtx& ctx) {
    coll::reduce(ctx, x, y, huge, Datatype::f64, ReduceOp::sum, 0);
  });
  raises("broadcast", [&](rt::RankCtx& ctx) {
    coll::broadcast(ctx, x, huge, Datatype::f64, 0);
  });
  raises("reduce_scatter", [&](rt::RankCtx& ctx) {
    coll::reduce_scatter(ctx, x, y, wide, Datatype::f64, ReduceOp::sum);
  });
  raises("allgather", [&](rt::RankCtx& ctx) {
    coll::allgather(ctx, x, y, wide, Datatype::f64);
  });
  // No rank got as far as a protocol step: the team runs on, unrecovered.
  auto* out = reinterpret_cast<double*>(team.shared_alloc(4 * sizeof(double)));
  team.run([&](rt::RankCtx& ctx) {
    double v = 1, g[4] = {};
    coll::allgather(ctx, &v, g, 1, Datatype::f64);
    out[ctx.rank()] = g[0] + g[1] + g[2] + g[3];
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(out[r], 4.0) << "rank " << r;
}

}  // namespace
