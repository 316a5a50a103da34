// The asynchronous-progress engine's time model.
//
// Real MPI implementations differ in *when* a pending transfer advances:
// some only progress the rendezvous protocol when the application is inside
// a blocking MPI call, some poll the network on every MPI entry, and some
// dedicate a core (or hardware thread) to a progress thread that completes
// transfers asynchronously — the design space "MPI Progress For All"
// surveys. MiniMPI models the three classic points of that space:
//
//   blocking-only    today's semantics: transfers complete when the parties
//                    reach their completion calls; the default, bit-compatible
//                    with every trace and telemetry artifact recorded before
//                    this model existed.
//   opportunistic    the library polls on every MPI entry: each send/recv/
//                    collective entry pays an extra `entry_overhead`, folded
//                    into the NetworkModel's per-message CPU overheads so the
//                    charge sites (and recorded machine headers) stay
//                    unchanged.
//   progress-thread  a dedicated progress thread completes rendezvous
//                    transfers `thread_latency` after the wire is done,
//                    independent of what the peer is executing, and steals
//                    `core_tax` of every compute charge (the core it owns).
//
// The model is deterministic by construction: all three presets change only
// *charged virtual time*, never matching order, so results remain a pure
// function of (program, machine, seed, progress model).
#pragma once

#include <cstdint>
#include <string>

#include "mpisim/machine.hpp"

namespace mpisect::mpisim {

enum class ProgressMode {
  BlockingOnly,    ///< progress only inside blocking completion calls
  Opportunistic,   ///< poll at every MPI entry (per-entry overhead)
  ProgressThread,  ///< async completion thread (latency + core tax)
};

[[nodiscard]] const char* progress_mode_name(ProgressMode m) noexcept;

/// One world's progress model: a preset plus its tunable charges.
struct ProgressModel {
  ProgressMode mode = ProgressMode::BlockingOnly;
  /// Opportunistic: extra CPU seconds folded into the network model's
  /// send/recv overheads (the poll executed on every MPI entry).
  double entry_overhead = 5e-8;
  /// Progress-thread: seconds between wire completion and the progress
  /// thread publishing a rendezvous delivery to the application.
  double thread_latency = 2e-6;
  /// Progress-thread: fraction of every compute charge lost to the core
  /// (or hardware thread) the progress thread occupies.
  double core_tax = 0.05;

  bool operator==(const ProgressModel&) const = default;

  /// Rendezvous delivery surcharge this model adds in the channel.
  [[nodiscard]] double rendezvous_extra() const noexcept {
    return mode == ProgressMode::ProgressThread ? thread_latency : 0.0;
  }
  /// Multiplier applied to compute charges (1 + core_tax under a
  /// progress thread, 1 otherwise).
  [[nodiscard]] double compute_factor() const noexcept {
    return mode == ProgressMode::ProgressThread ? 1.0 + core_tax : 1.0;
  }
  /// Completion time of a nonblocking collective at its wait fence, given
  /// the waiter's entry time, the last member's post time, and the modeled
  /// background-algorithm cost. Shared by the live simulator and the trace
  /// replayer so the two can never drift.
  [[nodiscard]] double nbc_complete_time(double t_wait_entry, double max_post,
                                         double algo_cost) const noexcept;

  [[nodiscard]] const char* name() const noexcept {
    return progress_mode_name(mode);
  }
  /// Canonical spec string: round-trips through parse().
  [[nodiscard]] std::string spec() const;

  /// Parse a spec: "blocking-only" | "opportunistic[:entry=S]" |
  /// "progress-thread[:tax=F][,lat=S]" (options comma-separated, any
  /// order). Throws MpiError(Err::Arg) on an unknown preset or option.
  [[nodiscard]] static ProgressModel parse(const std::string& spec);

  /// "blocking-only|opportunistic|progress-thread" — shared help text.
  [[nodiscard]] static std::string choices();
};

/// Adjust a machine's per-message CPU overheads for a progress model: the
/// opportunistic entry poll is folded into send/recv overheads. For a
/// what-if change of model, `machine_is_recorded` says whether `m` came
/// from a trace header (already folded for `rec`, which is removed first)
/// or is a pristine preset (unfolded; `rec` is ignored). A World folds its
/// own model this way at construction.
[[nodiscard]] MachineModel fold_progress(MachineModel m,
                                         const ProgressModel& rec,
                                         const ProgressModel& cur,
                                         bool machine_is_recorded);

/// Modeled cost of the background algorithm behind a nonblocking
/// collective: ceil(log2 p) rounds of one link latency plus the
/// contribution's streaming time. Jitter-free — the jittered CPU overhead
/// is charged separately at the post.
[[nodiscard]] double nbc_algo_cost(double latency, double bandwidth, int p,
                                   std::uint64_t bytes) noexcept;

}  // namespace mpisect::mpisim
