// Shared sweep drivers for the figure-regeneration benches.
//
// Every bench binary regenerates one table or figure of the paper by
// running the instrumented apps on the calibrated machine models and
// post-processing profiler output. The drivers here own the repetition /
// averaging protocol (the paper: "runs were done twenty times and
// averaged") and return plain series keyed by section label.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/speedup/partial_bound.hpp"
#include "core/speedup/series.hpp"
#include "minomp/schedule.hpp"
#include "mpisim/faults/plan.hpp"
#include "mpisim/machine.hpp"

namespace mpisect::bench {

/// Result of one app execution, averaged over repetitions.
struct RunPoint {
  double walltime = 0.0;      ///< virtual makespan (max rank finish time)
  double walltime_stddev = 0.0;
  /// label -> mean time per process (inclusive).
  std::map<std::string, double> per_process;
  /// label -> sum over processes.
  std::map<std::string, double> total;
  /// label -> attributed MPI time per process.
  std::map<std::string, double> mpi_time;
};

struct ConvolutionSweepOptions {
  int width = 5616;
  int height = 3744;
  int steps = 1000;
  int reps = 3;        ///< averaged repetitions (paper used 20)
  std::uint64_t seed = 0xC0FFEE;
  mpisim::MachineModel machine = mpisim::MachineModel::nehalem_cluster();
  /// Deterministic fault plan applied to every repetition (empty = none).
  mpisim::faults::FaultPlan faults;
  /// Execution backend spec, e.g. "cooperative:workers=4,stack=128".
  std::string exec = "cooperative";
  /// Matching engine spec: "hashed" or "legacy".
  std::string match = "hashed";
};

/// Run the Modeled-fidelity convolution benchmark at one rank count,
/// averaged over reps (distinct seeds), returning section timings.
RunPoint run_convolution_point(int nranks, const ConvolutionSweepOptions& o);

struct LuleshRunOptions {
  int s = 48;           ///< per-rank edge (set from Table 7 helper)
  int steps = 1000;
  int omp_threads = 1;
  int reps = 1;
  std::uint64_t seed = 0x10113;
  minomp::Schedule schedule = minomp::Schedule::Static;
  mpisim::MachineModel machine = mpisim::MachineModel::knl();
  /// Execution backend / matching engine specs (see WorldBuilder).
  std::string exec = "cooperative";
  std::string match = "hashed";
};

/// Run the Modeled-fidelity mini-Lulesh at one (ranks, threads) point.
RunPoint run_lulesh_point(int nranks, const LuleshRunOptions& o);

/// Assemble a BoundAnalysis from a p -> RunPoint sweep for the given
/// section labels (numerator = sequential walltime of the p=1 point).
speedup::BoundAnalysis make_bound_analysis(
    const std::map<int, RunPoint>& sweep,
    const std::vector<std::string>& labels);

/// Convenience: section series (per-process time vs p or threads).
speedup::ScalingSeries section_series(const std::map<int, RunPoint>& sweep,
                                      const std::string& label);
speedup::ScalingSeries walltime_series(const std::map<int, RunPoint>& sweep);

/// Standard header every bench prints (experiment id, protocol, machine).
void print_banner(const std::string& experiment, const std::string& paper_ref,
                  const std::string& protocol);

/// Machine-readable bench results: google-benchmark-compatible JSON with an
/// mpisect provenance context (git describe, build type, machine preset,
/// seed). Every figure bench accepts `--json_out BENCH_<name>.json` and
/// funnels its sweep through one of these so CI can archive and diff runs.
///
///   BenchJson out("knl", seed);
///   out.add("fig10/threads:24", walltime, {{"bound", 8.16}});
///   out.write(args.get_string("json_out"));
class BenchJson {
 public:
  BenchJson(std::string machine, std::uint64_t seed);

  /// Record one result row. `real_time_s` lands in google-benchmark's
  /// real_time/cpu_time fields (time_unit "s"); counters become extra keys.
  void add(const std::string& name, double real_time_s,
           const std::map<std::string, double>& counters = {});

  [[nodiscard]] std::string str() const;
  /// Write to `path` ("" = no-op returning true). False + stderr on error.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Entry {
    std::string name;
    double real_time = 0.0;
    std::map<std::string, double> counters;
  };
  std::string machine_;
  std::uint64_t seed_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace mpisect::bench
