// Exact op counts of one collective call, derived from the schedule the
// ranks run (src/coll/schedule.hpp): the MA, socket-MA, DPML and pipelined
// bodies are replayed on a counting executor, once per rank.  The slot arm
// has no round loop and keeps its closed form (model::impl::slot_*_ops).
#pragma once

#include <cstddef>

#include "yhccl/coll/coll.hpp"
#include "yhccl/coll/profiler.hpp"
#include "yhccl/model/dav_model.hpp"

namespace yhccl::coll {

/// Node totals (summed over the p ranks) of every deterministic counter
/// the runtime instruments — DAV bytes, kernel dispatches, barrier
/// arrivals, flag posts and waits — for one call of `kind` served by `a`
/// on rt::Topology(ranks, sockets) with `opts` and a team scratch of
/// `scratch_bytes`.  Exact for ragged tails and odd shapes.  `s` is the
/// reduce-scatter input vector (p·count·esize) for reduce_scatter, the
/// per-rank message otherwise.  A reduction `a` other than slot, DPML or
/// socket-MA counts flat MA; broadcast and allgather count the pipeline
/// unless `a` is slot.  Raises yhccl::Error for a shape no team can have
/// (ranks outside [1, kMaxRanks], sockets outside [1, min(ranks,
/// kMaxSockets)]).
model::impl::OpCounts op_counts(CollKind kind, Algorithm a, std::size_t s,
                                int ranks, int sockets, const CollOpts& opts,
                                std::size_t scratch_bytes = 64u << 20);

}  // namespace yhccl::coll
