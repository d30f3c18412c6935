// Ablation (ours): the algorithm-switching rules (§5.1, with the switch
// points derived by the cost model, docs/tuning.md).  Compares the
// three reduction engines (two-level DPML, flat MA, socket-aware MA)
// across the small-to-large message range and checks that the automatic
// switcher tracks the per-size winner, i.e. auto ~= min(arms).
#include "bench_util.hpp"
#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/plan.hpp"

using namespace yhccl;
using namespace yhccl::bench;

int main() {
  const int p = bench_ranks(), m = bench_sockets();
  auto& team = bench_team(p, m);
  const auto sizes = default_sizes(4u << 10, 16u << 20);
  const std::size_t hi = sizes.back();
  auto cnt = [](std::size_t b) { return std::max<std::size_t>(b / 8, 1); };

  auto arm_for = [&](coll::Algorithm a) {
    return [cnt, a](rt::RankCtx& c, const void* s, void* r, std::size_t b) {
      coll::CollOpts o;
      o.algorithm = a;
      coll::allreduce(c, s, r, cnt(b), Datatype::f64, ReduceOp::sum, o);
    };
  };

  const std::vector<std::pair<std::string, CollArm>> arms = {
      {"auto", arm_for(coll::Algorithm::automatic)},
      {"dpml-2l", arm_for(coll::Algorithm::dpml_two_level)},
      {"flat-MA", arm_for(coll::Algorithm::ma_flat)},
      {"socket-MA", arm_for(coll::Algorithm::ma_socket_aware)},
  };

  const auto sp = coll::plan::switch_points(coll::CollKind::allreduce, p, m,
                                            coll::CollOpts{});
  std::printf("Ablation — algorithm switching for all-reduce (p=%d, m=%d, "
              "slot <= %zu B, DPML <= %zu B)\n",
              p, m, sp.slot_max, sp.dpml_max);
  Session session("ablation_switching");
  auto table = sweep(team, "allreduce engines (relative to auto)", arms,
                     sizes, hi, hi, &session, "allreduce");
  table.print();
  session.write();

  // Regret of the switcher vs the per-size oracle.
  double worst = 0;
  for (const auto& row : table.times) {
    const double best = *std::min_element(row.begin() + 1, row.end());
    if (best > 0) worst = std::max(worst, row[0] / best);
  }
  std::printf("\nmax regret of auto vs per-size best arm: %.2fx\n", worst);
  return 0;
}
