// Closed-loop collective runner for the small_mix and large_mix workloads
// (and the ledger's overhead rows): every rank issues the generated calls
// back to back, times each one, and checks every output against the scalar
// reference outside the timed interval.
#pragma once

#include <memory>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {

/// Per-call outcome folded by the parent after each Team::run.
struct CollStats {
  explicit CollStats(std::size_t lat_capacity = 1u << 22)
      : lat_us(lat_capacity) {}
  Samples lat_us;               ///< per call: slowest rank's duration
  std::vector<double> run_lat_us;  ///< the same, per call of the last run
  std::vector<double> step_ms;  ///< per round: sum of its calls' lat
  std::vector<double> skew_us;  ///< per call: last exit minus first exit
  std::vector<double> self_us[kKinds];  ///< per rank and call (detail only)
  /// Per run: message bytes ÷ the sum of its calls' slowest-rank times.
  std::vector<double> run_gbs;
  Tally tally;
  bool detail = false;  ///< also fill skew_us and self_us
};

/// Exact per-call counts of one untimed pass (Team::total_* of one run).
struct Counts {
  std::uint64_t calls = 0, dav = 0, kernels = 0, barriers = 0, flags = 0;
  bool operator==(const Counts&) const = default;
};

/// The team's exact counts for its last run, which made `calls` calls.
Counts read_counts(const Team& team, std::uint64_t calls);

class CollBench {
 public:
  /// Team-bound shared state: per-rank timestamp/fail records and the raw
  /// barrier, all in the team's shared heap.
  struct Bound {
    Team* team = nullptr;
    RawBarrier* barrier = nullptr;
    std::int64_t* t0[yhccl::rt::kMaxRanks] = {};
    std::int64_t* t1[yhccl::rt::kMaxRanks] = {};
    std::uint8_t* fail[yhccl::rt::kMaxRanks] = {};
    SpanBuf* spans = nullptr;
  };

  /// Buffers sized for calls up to `max_send`/`max_out` bytes per rank and
  /// runs of up to `max_calls` calls.
  CollBench(const Patterns& pat, std::size_t max_send, std::size_t max_out,
            std::size_t round_len, std::size_t max_calls);
  ~CollBench();
  CollBench(const CollBench&) = delete;
  CollBench& operator=(const CollBench&) = delete;

  Bound attach(Team& team, std::size_t span_cap = 0);

  /// One Team::run over `rounds`; folds into `out`.  With `traced`, every
  /// call and round also gets a span.  Returns false if the run threw (its
  /// calls then count as failed and the team is recovered).
  bool run(Bound& b, const std::vector<std::vector<Op>>& rounds,
           const yhccl::coll::CollOpts& opts, bool traced,
           std::uint64_t call_base, CollStats& out);

  /// Untimed counter pass over `rounds` (its checks add to `tally`).
  Counts count(Bound& b, const std::vector<std::vector<Op>>& rounds,
               Tally& tally);

 private:
  struct RankBufs {
    std::byte* send[3] = {};  ///< per dtype (or one shared, refilled)
    int filled = -1;          ///< dtype held by a shared send buffer
    std::byte* out = nullptr;
  };

  void rank_body(RankCtx& ctx, Bound& b,
                 const std::vector<std::vector<Op>>& rounds,
                 const yhccl::coll::CollOpts& opts, bool traced,
                 std::uint64_t call_base);
  std::byte* send_for(int rank, Datatype d);
  void prep(int rank, const Op& o, std::byte* out);
  bool check(int rank, const Op& o, const std::byte* out) const;

  const Patterns& pat_;
  std::size_t send_cap_, slot_, max_calls_;
  bool per_dtype_;    ///< a send buffer per dtype (small calls)
  bool whole_round_;  ///< a round runs as one batch between prep/check
                      ///< (needs per-dtype send buffers)
  std::vector<RankBufs> bufs_;
  std::vector<void*> owned_;
};

/// Issue one generated call through the library's public API.
void issue(RankCtx& ctx, const Op& o, const void* send, void* out,
           const yhccl::coll::CollOpts& opts);

}  // namespace perfbench
