// Correctness sweeps for every YHCCL collective and algorithm arm, across
// rank counts, socket layouts, message sizes (including ragged tails and
// single elements), datatypes, reduce ops, and copy policies.  Results are
// compared against a sequential reference reduction.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"
#include "slot_matrix.hpp"
#include "test_util.hpp"

using namespace yhccl;
using namespace yhccl::coll;
using test::cached_team;
using test::check_reduced;
using test::fill_buffer;

namespace {

struct TeamShape {
  int p, m;
};

// {3, 2} puts a singleton socket next to a multi-rank one: a rank with no
// intra-socket peers must still match the team-uniform barriers of the
// socket-aware arms (regression: DPML stage-1 barrier deadlock).
const TeamShape kShapes[] = {{1, 1}, {2, 1}, {3, 1}, {4, 1}, {4, 2},
                             {6, 2}, {8, 2}, {8, 4}, {5, 2}, {3, 2}};

const std::size_t kCounts[] = {1, 5, 64, 1023, 4096, 100000};

struct RedCase {
  Algorithm alg;
  TeamShape shape;
  std::size_t count;
  Datatype d;
  ReduceOp op;
  std::string name() const {
    std::string s = std::string(algorithm_name(alg)) + "_p" +
                    std::to_string(shape.p) + "m" + std::to_string(shape.m) +
                    "_n" + std::to_string(count) + "_" +
                    std::string(dtype_name(d)) + "_" +
                    std::string(op_name(op));
    for (char& c : s) {
      if (c == '-') c = '_';
    }
    return s;
  }
};

std::vector<RedCase> reduction_cases() {
  const std::pair<Datatype, ReduceOp> dtops[] = {
      {Datatype::f32, ReduceOp::sum}, {Datatype::f64, ReduceOp::sum},
      {Datatype::i32, ReduceOp::sum}, {Datatype::i64, ReduceOp::max},
      {Datatype::i32, ReduceOp::min}, {Datatype::u8, ReduceOp::bor},
      {Datatype::i32, ReduceOp::band}, {Datatype::f64, ReduceOp::prod}};
  std::vector<RedCase> cases;
  for (Algorithm alg : {Algorithm::automatic, Algorithm::ma_flat,
                        Algorithm::ma_socket_aware, Algorithm::dpml_two_level})
    for (const auto& shape : kShapes)
      for (std::size_t count : kCounts)
        for (const auto& [d, op] : dtops) {
          // Keep the sweep affordable: the full dtype/op matrix only at one
          // representative size per shape; f64 sum everywhere.
          if (count != 4096 && !(d == Datatype::f64 && op == ReduceOp::sum) &&
              !(d == Datatype::f32 && op == ReduceOp::sum))
            continue;
          cases.push_back({alg, shape, count, d, op});
        }
  return cases;
}

class ReductionSweep : public ::testing::TestWithParam<RedCase> {};

CollOpts opts_for(const RedCase& c) {
  CollOpts o;
  o.algorithm = c.alg;
  o.slice_max = 16u << 10;  // small Imax => several rounds at larger counts
  return o;
}

TEST_P(ReductionSweep, Allreduce) {
  const auto c = GetParam();
  auto& team = cached_team(c.shape.p, c.shape.m);
  const std::size_t e = dtype_size(c.d);
  std::vector<std::vector<std::uint8_t>> send(c.shape.p),
      recv(c.shape.p);
  for (int r = 0; r < c.shape.p; ++r) {
    send[r].resize(c.count * e);
    recv[r].assign(c.count * e, 0xcd);
    fill_buffer(send[r].data(), c.count, c.d, r, c.op);
  }
  const auto o = opts_for(c);
  team.run([&](RankCtx& ctx) {
    allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(), c.count,
              c.d, c.op, o);
  });
  for (int r = 0; r < c.shape.p; ++r)
    EXPECT_TRUE(
        check_reduced(recv[r].data(), c.count, c.d, c.shape.p, c.op))
        << "rank " << r;
}

TEST_P(ReductionSweep, ReduceScatter) {
  const auto c = GetParam();
  auto& team = cached_team(c.shape.p, c.shape.m);
  const std::size_t e = dtype_size(c.d);
  const int p = c.shape.p;
  // `count` is the per-rank block size for reduce-scatter.
  std::vector<std::vector<std::uint8_t>> send(p), recv(p);
  for (int r = 0; r < p; ++r) {
    send[r].resize(c.count * e * p);
    recv[r].assign(c.count * e, 0xcd);
    fill_buffer(send[r].data(), c.count * p, c.d, r, c.op);
  }
  const auto o = opts_for(c);
  team.run([&](RankCtx& ctx) {
    reduce_scatter(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(),
                   c.count, c.d, c.op, o);
  });
  for (int r = 0; r < p; ++r)
    EXPECT_TRUE(check_reduced(recv[r].data(), c.count, c.d, p, c.op,
                              /*index_offset=*/c.count * r))
        << "rank " << r;
}

TEST_P(ReductionSweep, ReduceToEveryRoot) {
  const auto c = GetParam();
  if (c.count > 4096) GTEST_SKIP() << "root sweep capped at medium sizes";
  auto& team = cached_team(c.shape.p, c.shape.m);
  const std::size_t e = dtype_size(c.d);
  const int p = c.shape.p;
  std::vector<std::vector<std::uint8_t>> send(p), recv(p);
  for (int r = 0; r < p; ++r) {
    send[r].resize(c.count * e);
    recv[r].assign(c.count * e, 0xcd);
    fill_buffer(send[r].data(), c.count, c.d, r, c.op);
  }
  const auto o = opts_for(c);
  for (int root = 0; root < p; ++root) {
    for (int r = 0; r < p; ++r) std::fill(recv[r].begin(), recv[r].end(), 0xcd);
    team.run([&](RankCtx& ctx) {
      reduce(ctx, send[ctx.rank()].data(),
             ctx.rank() == root ? recv[ctx.rank()].data() : nullptr, c.count,
             c.d, c.op, root, o);
    });
    EXPECT_TRUE(check_reduced(recv[root].data(), c.count, c.d, p, c.op))
        << "root " << root;
    // Non-roots untouched.
    for (int r = 0; r < p; ++r) {
      if (r != root) {
        EXPECT_EQ(recv[r][0], 0xcd) << "rank " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReductionSweep,
                         ::testing::ValuesIn(reduction_cases()),
                         [](const auto& info) { return info.param.name(); });

// ---- broadcast / allgather sweeps -----------------------------------------

struct MoveCase {
  TeamShape shape;
  std::size_t count;
  Datatype d;
  copy::CopyPolicy policy;
  std::string name() const {
    return std::string("p") + std::to_string(shape.p) + "m" +
           std::to_string(shape.m) + "_n" + std::to_string(count) + "_" +
           std::string(dtype_name(d)) + "_" +
           (policy == copy::CopyPolicy::adaptive
                ? "adaptive"
                : policy == copy::CopyPolicy::always_nt ? "nt" : "t");
  }
};

std::vector<MoveCase> move_cases() {
  std::vector<MoveCase> cases;
  for (const auto& shape : kShapes)
    for (std::size_t count : kCounts)
      for (auto pol : {copy::CopyPolicy::adaptive,
                       copy::CopyPolicy::always_nt,
                       copy::CopyPolicy::always_temporal}) {
        if (pol != copy::CopyPolicy::adaptive && count != 100000) continue;
        cases.push_back({shape, count, Datatype::f32, pol});
      }
  return cases;
}

class MovementSweep : public ::testing::TestWithParam<MoveCase> {};

TEST_P(MovementSweep, BroadcastFromEveryRoot) {
  const auto c = GetParam();
  auto& team = cached_team(c.shape.p, c.shape.m);
  const std::size_t e = dtype_size(c.d);
  const int p = c.shape.p;
  CollOpts o;
  o.policy = c.policy;
  o.slice_max = 16u << 10;
  std::vector<std::vector<std::uint8_t>> buf(p);
  const int roots_to_try = c.count == 4096 ? p : 1;
  for (int root = 0; root < roots_to_try; ++root) {
    for (int r = 0; r < p; ++r) {
      buf[r].assign(c.count * e, 0);
      fill_buffer(buf[r].data(), c.count, c.d, r == root ? 99 : r,
                  ReduceOp::sum);
    }
    team.run([&](RankCtx& ctx) {
      broadcast(ctx, buf[ctx.rank()].data(), c.count, c.d, root, o);
    });
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(buf[r], buf[root]) << "rank " << r << " root " << root;
  }
}

TEST_P(MovementSweep, AllgatherCollectsRankOrder) {
  const auto c = GetParam();
  auto& team = cached_team(c.shape.p, c.shape.m);
  const std::size_t e = dtype_size(c.d);
  const int p = c.shape.p;
  CollOpts o;
  o.policy = c.policy;
  o.slice_max = 16u << 10;
  std::vector<std::vector<std::uint8_t>> send(p), recv(p);
  for (int r = 0; r < p; ++r) {
    send[r].resize(c.count * e);
    recv[r].assign(c.count * e * p, 0);
    fill_buffer(send[r].data(), c.count, c.d, r, ReduceOp::sum);
  }
  team.run([&](RankCtx& ctx) {
    allgather(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(), c.count,
              c.d, o);
  });
  for (int r = 0; r < p; ++r)
    for (int a = 0; a < p; ++a)
      EXPECT_EQ(0, std::memcmp(recv[r].data() + a * c.count * e,
                               send[a].data(), c.count * e))
          << "rank " << r << " block " << a;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MovementSweep,
                         ::testing::ValuesIn(move_cases()),
                         [](const auto& info) { return info.param.name(); });

// ---- semantics edge cases ---------------------------------------------------

TEST(CollEdge, ZeroCountIsANoOp) {
  auto& team = cached_team(4, 2);
  team.run([&](RankCtx& ctx) {
    allreduce(ctx, nullptr, nullptr, 0, Datatype::f64, ReduceOp::sum);
    reduce_scatter(ctx, nullptr, nullptr, 0, Datatype::f64, ReduceOp::sum);
    broadcast(ctx, nullptr, 0, Datatype::f64, 0);
    allgather(ctx, nullptr, nullptr, 0, Datatype::f64);
    ctx.barrier();
  });
}

TEST(CollEdge, InvalidOpDatatypeComboIsRejected) {
  auto& team = cached_team(2, 1);
  EXPECT_THROW(team.run([&](RankCtx& ctx) {
                 float x = 0, y = 0;
                 allreduce(ctx, &x, &y, 1, Datatype::f32, ReduceOp::band);
               }),
               Error);
}

TEST(CollEdge, BackToBackCollectivesReuseScratchSafely) {
  auto& team = cached_team(4, 2);
  const std::size_t n = 50000;
  std::vector<std::vector<double>> send(4, std::vector<double>(n)),
      recv(4, std::vector<double>(n));
  for (int r = 0; r < 4; ++r) fill_buffer(send[r].data(), n, Datatype::f64, r, ReduceOp::sum);
  CollOpts o;
  o.slice_max = 8u << 10;
  team.run([&](RankCtx& ctx) {
    for (int it = 0; it < 20; ++it) {
      ma_allreduce(ctx, send[ctx.rank()].data(), recv[ctx.rank()].data(), n,
                   Datatype::f64, ReduceOp::sum, o);
      socket_ma_allreduce(ctx, send[ctx.rank()].data(),
                          recv[ctx.rank()].data(), n, Datatype::f64,
                          ReduceOp::sum, o);
    }
  });
  for (int r = 0; r < 4; ++r)
    EXPECT_TRUE(check_reduced(recv[r].data(), n, Datatype::f64, 4,
                              ReduceOp::sum));
}

TEST(CollEdge, SwitchingRespectsThresholdAndTopology) {
  auto& team2 = cached_team(4, 2);
  team2.run([&](RankCtx& ctx) {
    CollOpts o;
    if (choose_reduction_algorithm(ctx, 1024, o) != Algorithm::slot)
      throw Error("p*s within the slot capacity should pick the slot arm");
    // Two sockets of two: socket-MA needs fewer syncs than DPML.
    if (choose_reduction_algorithm(ctx, rt::slot_capacity(4) + 1, o) !=
        Algorithm::ma_socket_aware)
      throw Error("above the slot band 2x2 ranks should pick socket-MA");
    if (choose_reduction_algorithm(ctx, 10u << 20, o) !=
        Algorithm::ma_socket_aware)
      throw Error("large message on 2 sockets should pick socket-MA");
    o.algorithm = Algorithm::ma_flat;
    if (choose_reduction_algorithm(ctx, 10, o) != Algorithm::ma_flat)
      throw Error("forced algorithm must be honoured");
  });
  auto& team1 = cached_team(4, 1);
  team1.run([&](RankCtx& ctx) {
    CollOpts o;
    if (choose_reduction_algorithm(ctx, 10u << 20, o) != Algorithm::ma_flat)
      throw Error("single socket should pick flat MA");
    // Four flat ranks: DPML's 3 barriers beat MA's 2 barriers + 3 flag
    // hand-offs only where the cost model says so.
    const std::size_t x =
        plan::switch_points(CollKind::reduce_scatter, 4, 1, o).dpml_max;
    if (plan::choose_algorithm(ctx.team().topo(), CollKind::reduce_scatter,
                               x, o) != Algorithm::dpml_two_level ||
        plan::choose_algorithm(ctx.team().topo(), CollKind::reduce_scatter,
                               x + 1, o) != Algorithm::ma_flat)
      throw Error("reduce-scatter should switch DPML -> MA at dpml_max");
  });
}

TEST(CollEdge, DpmlFlatModeMatchesReference) {
  auto& team = cached_team(6, 2);
  const std::size_t n = 30000;
  std::vector<std::vector<float>> send(6, std::vector<float>(n)),
      recv(6, std::vector<float>(n));
  for (int r = 0; r < 6; ++r)
    fill_buffer(send[r].data(), n, Datatype::f32, r, ReduceOp::sum);
  CollOpts o;
  o.dpml_flat = true;  // the paper's original single-level DPML baseline
  team.run([&](RankCtx& ctx) {
    dpml_two_level_allreduce(ctx, send[ctx.rank()].data(),
                             recv[ctx.rank()].data(), n, Datatype::f32,
                             ReduceOp::sum, o);
  });
  for (int r = 0; r < 6; ++r)
    EXPECT_TRUE(
        check_reduced(recv[r].data(), n, Datatype::f32, 6, ReduceOp::sum));
}

// ---- the slot band (p·s within rt::kSlotNodeBytes) -------------------------

TEST(SlotBand, MatrixOnThreadTeams) {
  for (auto [p, m] : {std::pair{2, 1}, {3, 1}, {4, 2}, {3, 2}, {1, 1}})
    for (const bool misaligned : {false, true})
      EXPECT_EQ(test::run_slot_matrix(cached_team(p, m), {false, misaligned}),
                "")
          << "p=" << p << " m=" << m << " misaligned=" << misaligned;
}

TEST(SlotBand, HbCheckedMatrixIsClean) {
  rt::TeamConfig cfg;
  cfg.nranks = 3;
  cfg.scratch_bytes = 8u << 20;
  cfg.shared_heap_bytes = 1u << 20;
  cfg.hb_check = rt::HbMode::on;
  rt::ThreadTeam team(cfg);
  EXPECT_EQ(test::run_slot_matrix(team, {}), "");
  EXPECT_EQ(team.hb_races(), 0u) << team.hb_report();
}

TEST(SlotBand, ExplicitArmRefusesWhatDoesNotFit) {
  auto& team = cached_team(4, 2);
  const std::size_t over = rt::slot_capacity(4) / 8 + 1;
  std::vector<double> a(over), b(over);
  EXPECT_THROW(team.run([&](RankCtx& ctx) {
                 slot_allreduce(ctx, a.data(), b.data(), over, Datatype::f64,
                                ReduceOp::sum);
               }),
               Error);
  CollOpts slot;
  slot.algorithm = Algorithm::slot;
  EXPECT_THROW(team.run([&](RankCtx& ctx) {
                 reduce_scatter(ctx, a.data(), b.data(), 1, Datatype::f64,
                                ReduceOp::sum, slot);
               }),
               Error);
}

TEST(CollEdge, OutOfRangeRootRaisesBeforeTouchingSharedState) {
  auto& team = cached_team(4, 2);
  std::vector<std::vector<double>> a(4, std::vector<double>(8, 1.0)),
      b(4, std::vector<double>(8));
  for (const int root : {7, 4, -1}) {
    EXPECT_THROW(team.run([&](RankCtx& ctx) {
                   reduce(ctx, a[ctx.rank()].data(), b[ctx.rank()].data(), 8,
                          Datatype::f64, ReduceOp::sum, root);
                 }),
                 Error)
        << "reduce root " << root;
    EXPECT_THROW(team.run([&](RankCtx& ctx) {
                   broadcast(ctx, a[ctx.rank()].data(), 8, Datatype::f64,
                             root);
                 }),
                 Error)
        << "broadcast root " << root;
  }
  // No rank got as far as a protocol step: the team runs on, unrecovered.
  team.run([&](RankCtx& ctx) {
    allreduce(ctx, a[ctx.rank()].data(), b[ctx.rank()].data(), 8,
              Datatype::f64, ReduceOp::sum);
    reduce(ctx, a[ctx.rank()].data(), b[ctx.rank()].data(), 8, Datatype::f64,
           ReduceOp::sum, 3);
  });
  for (int r = 0; r < 4; ++r)
    for (double x : b[r]) EXPECT_EQ(x, 4.0) << "rank " << r;
}

TEST(CollEdge, ExplicitRootedArmsRejectOutOfRangeRoot) {
  auto& team = cached_team(4, 2);
  std::vector<std::vector<double>> a(4, std::vector<double>(64, 1.0)),
      b(4, std::vector<double>(64));
  using ReduceArm = void (*)(RankCtx&, const void*, void*, std::size_t,
                             Datatype, ReduceOp, int, const CollOpts&);
  for (const int root : {4, -1}) {
    for (const ReduceArm arm :
         {ReduceArm{ma_reduce}, ReduceArm{socket_ma_reduce},
          ReduceArm{dpml_two_level_reduce}})
      EXPECT_THROW(team.run([&](RankCtx& ctx) {
                     arm(ctx, a[ctx.rank()].data(), b[ctx.rank()].data(), 64,
                         Datatype::f64, ReduceOp::sum, root, {});
                   }),
                   Error)
          << "root " << root;
    EXPECT_THROW(team.run([&](RankCtx& ctx) {
                   pipelined_broadcast(ctx, a[ctx.rank()].data(), 64,
                                       Datatype::f64, root);
                 }),
                 Error)
        << "root " << root;
  }
  team.run([&](RankCtx& ctx) {
    ma_reduce(ctx, a[ctx.rank()].data(), b[ctx.rank()].data(), 64,
              Datatype::f64, ReduceOp::sum, 3);
  });
  for (double x : b[3]) EXPECT_EQ(x, 4.0);
}

TEST(CollEdge, ByteCountOverflowRaisesBeforeTouchingSharedState) {
  auto& team = cached_team(4, 2);
  // count × 8 overflows for the rooted and all-reduce kinds; count × 8
  // fits but × p = 4 does not for reduce_scatter's total and allgather's
  // receive size.  The buffers are never read.
  const std::size_t huge = SIZE_MAX / 4;
  const std::size_t wide = SIZE_MAX / 16;
  std::vector<std::vector<double>> a(4, std::vector<double>(8, 1.0)),
      b(4, std::vector<double>(32));
  const auto raises = [&](const char* what, auto&& call) {
    std::string msg = "no error";
    try {
      team.run([&](RankCtx& ctx) {
        call(ctx, a[ctx.rank()].data(), b[ctx.rank()].data());
      });
    } catch (const Error& e) {
      msg = e.what();
    }
    EXPECT_NE(msg.find("overflows size_t"), std::string::npos)
        << what << ": " << msg;
  };
  raises("allreduce", [&](RankCtx& ctx, double* s, double* r) {
    allreduce(ctx, s, r, huge, Datatype::f64, ReduceOp::sum);
  });
  raises("reduce", [&](RankCtx& ctx, double* s, double* r) {
    reduce(ctx, s, r, huge, Datatype::f64, ReduceOp::sum, 0);
  });
  raises("broadcast", [&](RankCtx& ctx, double* s, double*) {
    broadcast(ctx, s, huge, Datatype::f64, 0);
  });
  raises("reduce_scatter", [&](RankCtx& ctx, double* s, double* r) {
    reduce_scatter(ctx, s, r, wide, Datatype::f64, ReduceOp::sum);
  });
  raises("allgather", [&](RankCtx& ctx, double* s, double* r) {
    allgather(ctx, s, r, wide, Datatype::f64);
  });
  // No rank got as far as a protocol step: the team runs on, unrecovered.
  team.run([&](RankCtx& ctx) {
    allreduce(ctx, a[ctx.rank()].data(), b[ctx.rank()].data(), 8,
              Datatype::f64, ReduceOp::sum);
    allgather(ctx, a[ctx.rank()].data(), b[ctx.rank()].data(), 8,
              Datatype::f64);
  });
  for (int r = 0; r < 4; ++r)
    for (double x : b[r]) EXPECT_EQ(x, 1.0) << "rank " << r;
}

TEST(CollEdge, PartialSendRecvOverlapRaises) {
  auto& team = cached_team(4, 2);
  const std::size_t n = 100;
  std::vector<std::vector<double>> buf(4, std::vector<double>(n + 1, 1.0));
  for (const std::ptrdiff_t shift : {1, -1}) {
    EXPECT_THROW(team.run([&](RankCtx& ctx) {
                   double* base = buf[ctx.rank()].data() + 1;
                   allreduce(ctx, base, base + shift, n, Datatype::f64,
                             ReduceOp::sum);
                 }),
                 Error)
        << "allreduce shift " << shift;
    EXPECT_THROW(team.run([&](RankCtx& ctx) {
                   double* base = buf[ctx.rank()].data() + 1;
                   reduce(ctx, base, base + shift, n - 1, Datatype::f64,
                          ReduceOp::sum, 0);
                 }),
                 Error)
        << "reduce shift " << shift;
  }
  // In place and disjoint stay legal; the team runs on.
  team.run([&](RankCtx& ctx) {
    double* v = buf[ctx.rank()].data();
    allreduce(ctx, v, v, n, Datatype::f64, ReduceOp::sum);
    reduce(ctx, v, v + n, 1, Datatype::f64, ReduceOp::sum, 0);
  });
  EXPECT_EQ(buf[0][0], 4.0);
  EXPECT_EQ(buf[0][n], 16.0);
  EXPECT_EQ(buf[1][n - 1], 4.0);
}

}  // namespace
