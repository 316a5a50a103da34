// Machine performance models.
//
// A MachineModel bundles everything the virtual-time engine needs to charge
// realistic durations: per-core scalar throughput, node topology, the
// network model, hardware-threading yields, and the OpenMP-substrate
// overhead curve. Three calibrated presets mirror the paper's testbeds:
//
//   nehalem_cluster() — 57 nodes x 8-core Xeon X5560, IB fabric (Fig. 5-6)
//   knl()             — 68-core Xeon Phi, 4 hyper-threads/core (Fig. 9-10)
//   broadwell_2s()    — dual-socket 2 x 18 cores, 2 HT/core (Fig. 8)
//
// Calibration targets the paper's *shapes* (crossovers, inflexion points,
// who-wins ordering), not its absolute seconds — the substitution table in
// DESIGN.md discusses why that is the meaningful reproduction criterion.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "mpisim/netmodel.hpp"

namespace mpisect::mpisim {

/// Parameters of the MiniOMP fork/join + worksharing overhead model.
struct OmpModel {
  double fork_join_base = 1e-6;        ///< seconds per parallel region
  double fork_join_per_thread = 3e-7;  ///< linear growth with team size
  double barrier_log_cost = 1e-6;      ///< * ceil(log2 threads)
  /// Relative imbalance charged by static scheduling (fraction of the
  /// parallel span); dynamic scheduling halves it but doubles per-chunk cost.
  double static_imbalance = 0.03;
  /// Per-chunk dispatch cost for dynamic scheduling (seconds).
  double dynamic_chunk_cost = 2e-7;
  /// Multiplier applied when ranks*threads exceed hardware threads.
  double oversubscription_penalty = 1.0;
};

class MachineModel {
 public:
  std::string name = "generic";
  int cores_per_node = 1;
  int nodes = 1;
  int hw_threads_per_core = 1;
  /// Effective sustained scalar rate per core for the stencil/hydro kernels
  /// we model (flops/second). Deliberately far below peak.
  double flops_per_core = 2.0e9;
  /// Marginal throughput of the k-th hardware thread sharing a core
  /// (index 0 = first thread = 1.0).
  std::array<double, 4> smt_yield{1.0, 0.3, 0.15, 0.1};
  /// Relative sigma of multiplicative compute-time noise.
  double compute_noise_sigma = 0.0;
  NetworkModel net;
  OmpModel omp;

  [[nodiscard]] int total_cores() const noexcept {
    return cores_per_node * nodes;
  }
  [[nodiscard]] int total_hw_threads() const noexcept {
    return total_cores() * hw_threads_per_core;
  }

  /// Seconds to execute `flops` floating-point operations on one core
  /// (no noise; the runtime layers noise keyed per rank/op).
  [[nodiscard]] double compute_seconds(double flops) const noexcept {
    return flops / flops_per_core;
  }

  /// Aggregate throughput (in units of one core) of `threads` software
  /// threads confined to `cores_avail` cores of this machine, accounting
  /// for SMT yield. cores_avail may be fractional when ranks share cores.
  [[nodiscard]] double thread_capacity(int threads,
                                       double cores_avail) const noexcept;

  // --- calibrated presets -------------------------------------------------
  /// Paper Section 5.1 testbed: Intel Nehalem cluster, 8-core X5560 nodes,
  /// 24 GB/node, up to 456 cores, hyper-threading disabled.
  [[nodiscard]] static MachineModel nehalem_cluster();
  /// Paper Section 5.2: Intel Knights Landing, 68 cores x 4 HT.
  [[nodiscard]] static MachineModel knl();
  /// Paper Section 5.2: dual-socket Broadwell, 2 x 18 cores x 2 HT.
  [[nodiscard]] static MachineModel broadwell_2s();
  /// Idealized machine for unit tests: no jitter, no noise, round numbers.
  [[nodiscard]] static MachineModel ideal(int cores_per_node = 8,
                                          int nodes = 64);

  // --- introspection (CLI tools, trace headers) ---------------------------
  /// Look up a calibrated preset by its `name` field ("nehalem-cluster",
  /// "knl", "broadwell-2s", "ideal"). Returns nullopt for unknown names.
  [[nodiscard]] static std::optional<MachineModel> preset(
      std::string_view name);
  /// "nehalem-cluster|knl|broadwell-2s|ideal": the names preset() accepts,
  /// in presentation order — shared help text.
  [[nodiscard]] static std::string choices();
  /// Human-readable multi-line parameter dump (mpisect-replay info).
  [[nodiscard]] std::string describe() const;
};

}  // namespace mpisect::mpisim
