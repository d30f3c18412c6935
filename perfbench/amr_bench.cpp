#include "amr_bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <new>
#include <utility>

namespace perfbench {

namespace miniamr = yhccl::apps::miniamr;

miniamr::Config amr_config(bool smoke) {
  miniamr::Config cfg;
  cfg.block_dim = 4;
  cfg.domain_blocks = smoke ? 2 : 4;
  cfg.max_level = 2;
  cfg.tsteps = smoke ? 6 : 40;
  cfg.refine_freq = 2;
  return cfg;
}

std::size_t amr_metric_len(std::uint64_t seed, std::uint64_t idx, bool smoke) {
  static constexpr std::size_t kBands[] = {8192, 16384, 32768, 49152, 65536};
  const std::size_t band = idx % 4;
  const std::size_t lo = kBands[band], hi = kBands[band + 1];
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + idx;
  x = (x ^ (x >> 31)) * 0xbf58476d1ce4e5b9ull;
  x ^= x >> 29;
  const std::size_t len = lo + static_cast<std::size_t>(x % (hi - lo));
  return smoke ? len / 8 : len;
}

std::uint64_t AmrStats::next_config() const noexcept {
  return groups_ * kConfigs + static_cast<std::uint64_t>(open_runs_ % kConfigs);
}

void AmrStats::add_run(std::vector<double> lat_us, std::vector<double> bytes,
                       std::vector<double> cyc_ms) {
  const int slot = open_runs_ % kConfigs;
  open_lat_[slot].push_back(std::move(lat_us));
  open_cyc_[slot].push_back(std::move(cyc_ms));
  open_bytes_[slot] = std::move(bytes);
  if (++open_runs_ == kConfigs * kRepeats) close_group();
}

void AmrStats::close_group() {
  if (open_runs_ == 0) return;
  // The repeats of one configuration make the same calls and cycles.  A
  // call lasts tens of microseconds, and a preempted vCPU of either rank
  // adds milliseconds to it (about one refinement call in six at 10 % host
  // steal), so even a median of five repeats lands on such a spike too
  // often for a 99th percentile.
  std::vector<double> lat, cyc;
  double bytes = 0, busy_us = 0;
  for (int slot = 0; slot < kConfigs; ++slot) {
    const std::vector<double> l = fastest(open_lat_[slot]);
    const std::vector<double> c = fastest(open_cyc_[slot]);
    for (std::size_t i = 0; i < l.size(); ++i) {
      busy_us += l[i];
      bytes += open_bytes_[slot][i];
    }
    lat.insert(lat.end(), l.begin(), l.end());
    cyc.insert(cyc.end(), c.begin(), c.end());
    open_lat_[slot].clear();
    open_cyc_[slot].clear();
  }
  lat_p50.push_back(quantile(lat, 0.50));
  lat_p99.push_back(quantile(lat, 0.99));
  gbs.push_back(bytes / busy_us / 1e3);
  step_p50.push_back(quantile(cyc, 0.50));
  step_p90.push_back(quantile(cyc, 0.90));
  open_runs_ = 0;
  ++groups_;
}

AmrBench::AmrBench(Team& team, std::size_t max_len, std::size_t span_cap)
    : team_(team), max_len_(max_len) {
  barrier_ = make_raw_barrier(team);
  rec_ = new (team.shared_alloc(sizeof(RankRec) *
                                static_cast<std::size_t>(team.nranks())))
      RankRec[static_cast<std::size_t>(team.nranks())];
  slots_ = reinterpret_cast<double*>(team.shared_alloc(
      sizeof(double) * max_len * static_cast<std::size_t>(team.nranks())));
  want_ = reinterpret_cast<double*>(team.shared_alloc(
      sizeof(double) * max_len * static_cast<std::size_t>(team.nranks())));
  if (span_cap > 0) spans_ = make_span_buf(team, span_cap);
}

void AmrBench::reference_allreduce(RankCtx& ctx, const double* in, double* out,
                                   std::size_t n) {
  const int r = ctx.rank(), p = ctx.nranks();
  if (n > max_len_) throw std::length_error("reference all-reduce too long");
  std::memcpy(slots_ + static_cast<std::size_t>(r) * max_len_, in,
              n * sizeof(double));
  barrier_->wait(r, p);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = slots_[i];
    for (int q = 1; q < p; ++q) acc += slots_[static_cast<std::size_t>(q) * max_len_ + i];
    out[i] = acc;
  }
  barrier_->wait(r, p);
}

double AmrBench::run(const miniamr::Config& cfg, bool reference, bool traced,
                     double ref_checksum, AmrStats& out) {
  const int p = team_.nranks();
  try {
    team_.run([&](RankCtx& ctx) {
      const int r = ctx.rank();
      pin_to_cpu(r);
      RankRec& rec = rec_[r];
      rec.ncalls = 0;
      const std::int32_t run_span =
          traced ? spans_->push(r, kSpanAmrRun, -1, 0, now_ns(), 0) : -1;
      const miniamr::AllreduceFn ar = [&](RankCtx& c, const double* in,
                                          double* o, std::size_t n) {
        const std::int64_t t0 = now_ns();
        if (reference)
          reference_allreduce(c, in, o, n);
        else
          yhccl::coll::allreduce(c, in, o, n, Datatype::f64, ReduceOp::sum);
        const std::int64_t t1 = now_ns();
        const std::size_t k = rec.ncalls;
        if (k >= kMaxCalls) throw std::length_error("too many proxy calls");
        rec.t0[k] = t0;
        rec.t1[k] = t1;
        rec.len[k] = n;
        rec.bad[k] = 0;
        rec.check_ns[k] = 0;
        rec.ncalls = k + 1;
        if (traced)
          spans_->push(r, static_cast<std::uint32_t>(Kind::allreduce),
                       run_span, k, t0, t1);
        if (reference) return;
        // Untimed check: the benchmark's all-reduce of the same input.  At
        // p = 2 the sum a + b does not depend on the fold order, so the
        // outputs must match byte for byte (the control sums included).
        double* want = want_ + static_cast<std::size_t>(r) * max_len_;
        reference_allreduce(c, in, want, n);
        rec.bad[k] = std::memcmp(o, want, n * sizeof(double)) != 0;
        const std::int64_t t2 = now_ns();
        rec.check_ns[k] = t2 - t1;
        if (traced) spans_->push(r, kSpanCheck, run_span, k, t1, t2);
      };
      const miniamr::Stats st = miniamr::run_rank(ctx, cfg, ar);
      rec.checksum = st.checksum;
      rec.final_blocks = st.final_blocks;
      if (run_span >= 0) spans_->spans[r][run_span].t1 = now_ns();
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: proxy run failed: %s\n", e.what());
    // The proxy issues one small all-reduce per step plus one per
    // refinement episode; count them all as failed.
    const auto n = static_cast<std::uint64_t>(
        cfg.tsteps + (cfg.refine_freq > 0 ? cfg.tsteps / cfg.refine_freq : 0));
    out.tally.attempted += n;
    out.tally.failed += n;
    team_.recover();
    return std::numeric_limits<double>::quiet_NaN();
  }

  const std::size_t n = rec_[0].ncalls;
  bool ok = true;
  for (int r = 1; r < p; ++r)
    ok = ok && rec_[r].ncalls == n &&
         rec_[r].final_blocks == rec_[0].final_blocks &&
         std::memcmp(&rec_[r].checksum, &rec_[0].checksum, sizeof(double)) == 0;
  if (!reference)
    ok = ok && std::memcmp(&rec_[0].checksum, &ref_checksum, sizeof(double)) == 0;
  std::uint64_t bad = 0;
  for (std::size_t c = 0; ok && c < n; ++c) {
    bool any = false;
    for (int r = 0; r < p; ++r) any = any || rec_[r].bad[c] != 0;
    bad += any ? 1 : 0;
  }
  out.tally.attempted += n;
  out.tally.failed += ok ? bad : n;

  // Per call: from the last rank's entry to the last rank's exit.  The
  // slowest rank's duration would mostly be its wait for the rank with more
  // blocks, a difference of two compute times that the cycle time already
  // holds.  Per cycle: the span between the returns of consecutive
  // refinement all-reduces, less the checks inside it (the first cycle also
  // builds the root grid, so it is skipped).
  std::vector<double> run_lat_us, run_bytes, run_cyc_ms;
  for (std::size_t c = 0; c < n; ++c) {
    std::int64_t last_entry = rec_[0].t0[c], first_exit = rec_[0].t1[c],
                 last_exit = first_exit;
    for (int r = 0; r < p; ++r) {
      const std::int64_t d = rec_[r].t1[c] - rec_[r].t0[c];
      last_entry = std::max(last_entry, rec_[r].t0[c]);
      first_exit = std::min(first_exit, rec_[r].t1[c]);
      last_exit = std::max(last_exit, rec_[r].t1[c]);
      if (out.detail) out.self_us.push_back(static_cast<double>(d) / 1e3);
    }
    run_lat_us.push_back(static_cast<double>(last_exit - last_entry) / 1e3);
    run_bytes.push_back(static_cast<double>(rec_[0].len[c] * sizeof(double)));
    if (out.detail)
      out.skew_us.push_back(static_cast<double>(last_exit - first_exit) / 1e3);
  }
  std::vector<std::vector<double>> cyc(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const RankRec& rr = rec_[r];
    std::int64_t prev_end = -1, comm = 0, check = 0;
    for (std::size_t c = 0; c < n; ++c) {
      comm += rr.t1[c] - rr.t0[c];
      if (rr.len[c] != cfg.refine_metric_len) {
        check += rr.check_ns[c];
        continue;
      }
      if (prev_end >= 0) {
        const std::int64_t cycle = rr.t1[c] - prev_end - check;
        cyc[static_cast<std::size_t>(r)].push_back(static_cast<double>(cycle) / 1e6);
        if (out.detail) {
          out.comm_ms.push_back(static_cast<double>(comm) / 1e6);
          out.compute_ms.push_back(static_cast<double>(cycle - comm) / 1e6);
        }
      }
      prev_end = rr.t1[c];
      comm = 0;
      check = rr.check_ns[c];
    }
  }
  for (std::size_t k = 0; k < cyc[0].size(); ++k) {
    double worst = 0;
    for (const auto& v : cyc) worst = std::max(worst, k < v.size() ? v[k] : 0.0);
    out.cycle_ms.push_back(worst);
    run_cyc_ms.push_back(worst);
  }
  out.add_run(std::move(run_lat_us), std::move(run_bytes), std::move(run_cyc_ms));
  return rec_[0].checksum;
}

}  // namespace perfbench
