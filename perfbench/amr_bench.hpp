// The app_amr workload: the miniAMR proxy on a process (fork) team, with
// the injected all-reduce wrapped so every collective call is timed (and,
// traced, recorded as a child span of the run span).
#pragma once

#include <vector>

#include "perfbench.hpp"
#include "yhccl/apps/miniamr.hpp"

namespace perfbench {

struct AmrStats {
  /// A group is kConfigs proxy configurations (refinement lengths), run in
  /// turn kRepeats times each: 80 runs, about 1.1 s, 960 distinct calls and
  /// 300 distinct cycles.
  static constexpr int kConfigs = 16;
  static constexpr int kRepeats = 5;

  explicit AmrStats(bool detail_ = false) : detail(detail_) {}
  std::vector<double> cycle_ms;    ///< per refinement cycle, slowest rank
  std::vector<double> self_us;     ///< per rank and call (detail only)
  std::vector<double> skew_us;     ///< per call: last exit minus first exit
  std::vector<double> compute_ms;  ///< per rank and cycle: cycle minus comm
  std::vector<double> comm_ms;     ///< per rank and cycle: all-reduce spans
  /// The end-to-end figures of each group, over its distinct calls and
  /// cycles, each timed as the fastest of its kRepeats repeats.  A run
  /// reports the medians over groups, so a burst of host steal that slows
  /// a few groups does not move it.
  std::vector<double> lat_p50, lat_p99, gbs, step_p50, step_p90;
  Tally tally;
  bool detail;  ///< also fill self_us, skew_us, compute_ms and comm_ms

  /// Index of the configuration the next run should use: its slot in the
  /// open group, numbered on across groups.
  std::uint64_t next_config() const noexcept;
  /// Fold the open group into the per-group figures (no-op when empty).
  void close_group();

 private:
  friend class AmrBench;
  /// Fold one completed run (per-call times and bytes, per-cycle times)
  /// into its slot of the open group.
  void add_run(std::vector<double> lat_us, std::vector<double> bytes,
               std::vector<double> cyc_ms);

  /// Per configuration slot of the open group: each repeat's per-call and
  /// per-cycle times, and the calls' message bytes.
  std::vector<std::vector<double>> open_lat_[kConfigs], open_cyc_[kConfigs];
  std::vector<double> open_bytes_[kConfigs];
  int open_runs_ = 0;
  std::uint64_t groups_ = 0;
};

/// Proxy configuration of the workload (`smoke` shrinks it).
yhccl::apps::miniamr::Config amr_config(bool smoke);
/// Seeded length of the refinement all-reduce of configuration `idx`:
/// configurations cycle through four bands between 64 KB and 512 KB,
/// straddling the 256 KB small-message switch.
std::size_t amr_metric_len(std::uint64_t seed, std::uint64_t idx, bool smoke);

class AmrBench {
 public:
  static constexpr std::size_t kMaxCalls = 4096;

  AmrBench(Team& team, std::size_t max_len, std::size_t span_cap);

  /// One Team::run of the proxy.  `reference` swaps in the benchmark's own
  /// all-reduce.  Otherwise every call's output is compared byte for byte
  /// with the benchmark's all-reduce of the same input (untimed; a mismatch
  /// fails that call), and the run's checksum is compared bit for bit with
  /// `ref_checksum` (a mismatch fails all of its calls).  Returns the run's
  /// checksum (NaN when the run threw).
  double run(const yhccl::apps::miniamr::Config& cfg, bool reference,
             bool traced, double ref_checksum, AmrStats& out);

  Team& team() noexcept { return team_; }
  SpanBuf* spans() noexcept { return spans_; }

 private:
  struct alignas(64) RankRec {
    std::size_t ncalls = 0;
    double checksum = 0;
    int final_blocks = 0;
    std::int64_t t0[kMaxCalls];
    std::int64_t t1[kMaxCalls];
    std::size_t len[kMaxCalls];
    std::int64_t check_ns[kMaxCalls];  ///< time spent checking the call
    std::uint8_t bad[kMaxCalls];       ///< output differed from reference
  };

  void reference_allreduce(RankCtx& ctx, const double* in, double* out,
                           std::size_t n);

  Team& team_;
  std::size_t max_len_;
  RawBarrier* barrier_;
  RankRec* rec_;
  double* slots_;  ///< reference all-reduce staging, nranks * max_len
  double* want_;   ///< per-rank reference output, nranks * max_len
  SpanBuf* spans_ = nullptr;
};

}  // namespace perfbench
