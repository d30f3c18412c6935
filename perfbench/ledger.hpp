// Per-layer rows of the traced run (the layer ledger): each layer timed
// through its public functions, next to a floor measured in the same
// process.  Module names follow src/: runtime, copy, coll, apps, plus the
// metrics and trace overhead pins.
#pragma once

#include "amr_bench.hpp"
#include "perfbench.hpp"

namespace perfbench {

struct LedgerOptions {
  std::uint64_t seed = 1;
  bool smoke = false;
};

/// runtime.*: team construction, empty-run spawn, barrier and flag hand-off
/// against the benchmark's raw atomic barrier.
void ledger_runtime(Metrics& m, const LedgerOptions& o);
/// copy.*: copy and reduce kernels against libc memcpy.
void ledger_copy(Metrics& m, const LedgerOptions& o);
/// coll.*: dispatch cost and switch regret per size class.
void ledger_coll(Metrics& m, const LedgerOptions& o);
/// metrics.overhead_ratio / trace.overhead_ratio on small_mix rounds.
void ledger_overheads(Metrics& m, const LedgerOptions& o, const Patterns& pat,
                      Tally& tally);
/// apps.amr.*: per-cycle compute and communication of the proxy.
void ledger_amr(Metrics& m, const AmrStats& s);

}  // namespace perfbench
