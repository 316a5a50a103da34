// Sessions-style world construction (the MPI-4 Sessions shape, simulated).
//
// Every World is lazy: construction holds O(1) state per rank, the world
// communicator appears at run() (which rebuilt it each run anyway) and
// CommImpl defers each peer channel to first touch. The Sessions-style API
// separates *naming* the process set from *configuring* its world:
//
//   Session session(65536);
//   auto world = session.world_builder()     // "mpi://WORLD" by default
//                    .exec_spec("cooperative:workers=8,stack=128")
//                    .build();               // World(nranks, options)
//   world->run(rank_main);                   // per-rank state appears here
//
// WorldBuilder only assembles WorldOptions from the shared spec strings;
// `World(nranks, options)` built directly is the same world.
//
// Process sets follow the MPI standard's two built-ins: "mpi://WORLD"
// (all nranks) and "mpi://SELF" (one rank). Queries mirror
// MPI_Session_get_num_psets / get_nth_pset / pset size.
#pragma once

#include <memory>
#include <string>

#include "mpisim/runtime.hpp"

namespace mpisect::mpisim {

/// Fluent, lazy construction of a World. Setters return *this for
/// chaining; build() may be called repeatedly (each call yields an
/// independent World). Spec-string setters accept the shared
/// `preset[:key=value,...]` vocabulary and throw MpiError(Err::Arg) on
/// malformed specs, so CLI flags can feed them directly.
class WorldBuilder {
 public:
  explicit WorldBuilder(int nranks = 1) : nranks_(nranks) {}

  WorldBuilder& ranks(int nranks) {
    nranks_ = nranks;
    return *this;
  }
  /// Replace the options wholesale (migration aid for call sites that
  /// already assemble a WorldOptions).
  WorldBuilder& options(WorldOptions opts) {
    opts_ = std::move(opts);
    return *this;
  }
  WorldBuilder& machine(MachineModel m) {
    opts_.machine = std::move(m);
    return *this;
  }
  WorldBuilder& seed(std::uint64_t s) {
    opts_.seed = s;
    return *this;
  }
  WorldBuilder& scatter_algo(CollAlgo a) {
    opts_.scatter_algo = a;
    return *this;
  }
  WorldBuilder& gather_algo(CollAlgo a) {
    opts_.gather_algo = a;
    return *this;
  }
  WorldBuilder& start_skew_sigma(double sigma) {
    opts_.start_skew_sigma = sigma;
    return *this;
  }
  WorldBuilder& validate_sections(bool on) {
    opts_.validate_sections = on;
    return *this;
  }
  /// Execution backend + workers + stack size in one knob.
  WorldBuilder& exec(const ExecModel& m) {
    opts_.exec = m;
    return *this;
  }
  /// e.g. "cooperative:workers=4,stack=256" or "threads".
  WorldBuilder& exec_spec(const std::string& spec) {
    return exec(ExecModel::parse(spec));
  }
  WorldBuilder& progress(const ProgressModel& m) {
    opts_.progress = m;
    return *this;
  }
  /// e.g. "progress-thread:threads=1" or "blocking-only".
  WorldBuilder& progress_spec(const std::string& spec) {
    return progress(ProgressModel::parse(spec));
  }
  WorldBuilder& faults(faults::FaultPlan plan) {
    opts_.faults = std::move(plan);
    return *this;
  }

  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] const WorldOptions& peek_options() const noexcept {
    return opts_;
  }

  /// One-line summary of the configuration using canonical round-trip
  /// spec strings (feeding each `x=<spec>` back through the matching
  /// setter reproduces this builder).
  [[nodiscard]] std::string describe() const;

  /// Construct the World (lazy: per-rank communicator state is deferred
  /// to run()). Throws MpiError(Err::Arg) if nranks <= 0.
  [[nodiscard]] std::unique_ptr<World> build() const;

 private:
  int nranks_;
  WorldOptions opts_;
};

/// A simulation session: names the available process sets and hands out
/// WorldBuilders over them. Mirrors MPI-4 Sessions — an application asks
/// the session what process sets exist ("mpi://WORLD", "mpi://SELF"),
/// then derives a world (communicator) from one, instead of assuming a
/// pre-built global communicator.
class Session {
 public:
  /// A session over `nranks` simulated processes with the given default
  /// options (every builder it hands out starts from these).
  explicit Session(int nranks, WorldOptions defaults = {});

  [[nodiscard]] int nranks() const noexcept { return nranks_; }
  [[nodiscard]] const WorldOptions& defaults() const noexcept {
    return defaults_;
  }

  /// Process-set queries (MPI_Session_get_num_psets / get_nth_pset).
  [[nodiscard]] int num_psets() const noexcept;
  /// Name of the n-th process set. Throws MpiError(Err::Arg) out of range.
  [[nodiscard]] std::string pset_name(int n) const;
  /// Size of a named process set ("mpi://WORLD" = nranks, "mpi://SELF" =
  /// 1). Throws MpiError(Err::Arg) for unknown names.
  [[nodiscard]] int pset_size(const std::string& name) const;
  /// Whether `name` is one of this session's process sets.
  [[nodiscard]] bool has_pset(const std::string& name) const noexcept;

  /// A builder over the named process set, seeded with the session
  /// defaults. Throws MpiError(Err::Arg) for unknown names.
  [[nodiscard]] WorldBuilder world_builder(
      const std::string& pset = "mpi://WORLD") const;

  /// Convenience: build the named process set's World directly.
  [[nodiscard]] std::unique_ptr<World> build_world(
      const std::string& pset = "mpi://WORLD") const {
    return world_builder(pset).build();
  }

 private:
  int nranks_;
  WorldOptions defaults_;
};

}  // namespace mpisect::mpisim
