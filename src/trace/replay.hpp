// Virtual-time what-if replay of a recorded trace.
//
// The replayer re-executes the recorded communication skeleton without the
// application. It is the what-if observer of the one event walker
// (trace/walk.hpp), which runs two clock frames per rank: the recorded
// frame re-simulates the header's machine and must reproduce the recorded
// clock bit for bit (the walk's integrity check), and the what-if frame
// re-charges compute gaps (optionally rescaled) and re-costs every message,
// collective entry and rendezvous through a caller-chosen MachineModel
// using the *recorded* RNG keys. When the what-if model equals the recorded
// one the frames stay in lockstep and the replay is bit-identical to the
// original run. The observer collects the what-if frame's section totals,
// per-instance spans and timeline; the offline analyzer
// (analysis/interp.hpp) is the walk's other observer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/sections/metrics.hpp"
#include "mpisim/faults/plan.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/progress.hpp"
#include "trace/file.hpp"

namespace mpisect::trace {

struct ReplayOptions {
  /// Multiplier applied to recorded compute gaps (e.g. 0.5 = CPU twice as
  /// fast). 1.0 keeps recorded compute time.
  double compute_scale = 1.0;
  /// Collect per-instance section metrics (Fig. 3 statistics).
  bool collect_metrics = true;
  /// Keep a merged, time-ordered section timeline (chrome export, tests).
  bool timeline = false;
  /// Fault plan re-costed onto the what-if frame: drop/delay/degrade rules
  /// perturb wire costs, slow rules scale compute gaps, stall rules charge
  /// at the first event past their trigger. Messages lost for good (retry
  /// budget exhausted) and kill rules make the recorded skeleton
  /// unsatisfiable and throw TraceError. Empty = no faults.
  mpisim::faults::FaultPlan faults = {};
  /// Seed for the plan's fault draws; 0 = the trace header's recorded
  /// seed, so a replay under the original run's plan re-draws identically.
  std::uint64_t fault_seed = 0;
  /// Progress model for the what-if frame. Unset = the trace header's own
  /// model (no change; pre-v4 traces recorded blocking-only). The caller
  /// must pass a `machine` whose overheads are already folded for this
  /// model — see mpisim::fold_progress().
  std::optional<mpisim::ProgressModel> progress = std::nullopt;
};

/// Per-(comm, label) section statistics of the replayed timeline.
struct ReplaySectionStat {
  std::string label;
  int comm = 0;
  int ranks = 0;               ///< ranks that entered the section
  std::uint64_t instances = 0; ///< entries summed over ranks
  double total_inclusive = 0.0;  ///< inclusive seconds summed over ranks
  double mean_per_process = 0.0; ///< total_inclusive / ranks
  sections::AggregatedMetrics agg;  ///< Tmin/Tmax span, imbalance, ...
};

/// One section boundary in the merged timeline (sorted by (t, rank)).
struct TimelineEntry {
  double t = 0.0;
  int rank = 0;
  int comm = 0;
  std::uint32_t label = 0;
  bool enter = false;
  int depth = 0;        ///< nesting depth at the boundary
  long instance = 0;    ///< per-rank instance ordinal
};

struct ReplayResult {
  int nranks = 0;
  std::vector<double> final_times;
  double makespan = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t collectives = 0;
  std::uint64_t bytes_sent = 0;
  std::vector<std::string> labels;  ///< copied from the trace
  std::vector<ReplaySectionStat> sections;  ///< sorted by (comm, label)
  /// Per-rank (comm, label) totals in recorded footer order — compared
  /// against the trace footer by verify.
  std::vector<std::vector<SectionTotal>> rank_totals;
  std::vector<TimelineEntry> timeline;  ///< only when options.timeline
};

/// Replay `tf` under `machine`. Throws TraceError on dependency stalls
/// (truncated or internally inconsistent traces) and on integrity-check
/// failures of the recorded-model frame.
[[nodiscard]] ReplayResult replay(const TraceFile& tf,
                                  const mpisim::MachineModel& machine,
                                  const ReplayOptions& options = {});

/// Same-model, scale-1 replay with exact comparison against the recorded
/// footer (per-rank final times and section totals).
struct VerifyResult {
  bool ok = true;
  std::string detail;  ///< first mismatch, empty when ok
};
[[nodiscard]] VerifyResult verify_roundtrip(const TraceFile& tf);

}  // namespace mpisect::trace
