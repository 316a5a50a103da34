// mpicheck — a MUST-style MPI correctness analyzer.
//
// MpiChecker attaches to a World exactly the way a real PMPI tool attaches
// to an MPI application: it registers with the world's hooks::ToolStack
// (composing with the section profiler, recorder and sampler without any
// hand-rolled chaining) and as an Extension for per-rank lifecycle. The
// application is never modified.
//
// Four analyses:
//   * deadlock: rank tasks publish blocked states into a WaitGraph; the
//     scheduler reports exact quiescence (every live rank parked with no
//     wake pending) through World::set_deadlock_handler, at which point the
//     checker analyzes the wait-for snapshot for cycles/orphaned waits,
//     reports them and lets the world abort so the blocked ranks unwind
//     with Err::Aborted. Detection is deterministic — no timeouts;
//   * resource leaks: nonblocking requests never completed and derived
//     communicators never freed at MPI_Finalize;
//   * call consistency: collective call/root/count agreement across ranks
//     and conservative send/recv size pairing;
//   * section lint: rejected MPIX_Section operations plus cross-rank
//     comparison of the per-communicator section sequences.
//
// Usage:
//   auto checker = checker::MpiChecker::install(world);
//   world.run(app);              // or catch Err::Aborted on deadlock
//   checker->analyze();          // post-run passes
//   std::cout << checker::render_text(checker->diagnostics());
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "checker/comm_registry.hpp"
#include "checker/consistency.hpp"
#include "checker/diagnostics.hpp"
#include "checker/resource_tracker.hpp"
#include "checker/section_lint.hpp"
#include "checker/waitgraph.hpp"
#include "mpisim/hooks.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/toolstack.hpp"

namespace mpisect::checker {

struct CheckerOptions {
  /// Hook the scheduler's quiescence signal for deadlock analysis.
  /// Off = post-run passes only.
  bool deadlock_detection = true;
};

class MpiChecker final : public mpisim::Extension,
                         public mpisim::hooks::Tool {
 public:
  /// Create a checker, install its hooks on `world` (chaining whatever was
  /// installed before) and attach it as an Extension. Call before run().
  static std::shared_ptr<MpiChecker> install(mpisim::World& world,
                                             CheckerOptions options = {});

  MpiChecker(mpisim::World& world, CheckerOptions options);
  ~MpiChecker() override;
  MpiChecker(const MpiChecker&) = delete;
  MpiChecker& operator=(const MpiChecker&) = delete;

  /// Run the post-run analyses (leaks, consistency, section sequences).
  /// Call after World::run() returned or threw. Idempotent.
  void analyze();

  /// Unhook the deadlock handler and restore the previously installed hook
  /// table. Called automatically on destruction.
  void detach();

  [[nodiscard]] std::vector<Diagnostic> diagnostics() const {
    return sink_.diagnostics();
  }
  [[nodiscard]] const DiagnosticSink& sink() const noexcept { return sink_; }
  [[nodiscard]] DiagnosticSink& sink() noexcept { return sink_; }
  [[nodiscard]] bool deadlock_reported() const noexcept {
    return deadlock_reported_.load();
  }
  [[nodiscard]] const CheckerOptions& options() const noexcept {
    return options_;
  }

  // Extension interface.
  void on_rank_init(mpisim::Ctx& ctx) override;
  void on_rank_finalize(mpisim::Ctx& ctx) override;

  // Tool interface (invoked by the world's ToolStack).
  void on_call_begin(mpisim::Ctx& ctx, const mpisim::CallInfo& info) override;
  void on_call_end(mpisim::Ctx& ctx, const mpisim::CallInfo& info) override;
  void on_section_enter(mpisim::Ctx& ctx, mpisim::Comm& comm,
                        const char* label, char* data) override;
  void on_section_leave(mpisim::Ctx& ctx, mpisim::Comm& comm,
                        const char* label, char* data) override;
  void on_section_error(mpisim::Ctx& ctx, mpisim::Comm& comm,
                        const char* label, int code) override;
  void on_comm_create(mpisim::Ctx& ctx,
                      const mpisim::CommLifecycle& info) override;
  void on_comm_free(mpisim::Ctx& ctx, int context) override;

 private:
  void handle_begin(mpisim::Ctx& ctx, const mpisim::CallInfo& info);
  void handle_end(mpisim::Ctx& ctx, const mpisim::CallInfo& info);
  /// Map a CallInfo peer (comm rank) to a world rank; -1 stays -1.
  [[nodiscard]] int peer_world(int context, int comm_rank) const;

  /// Scheduler callback: every live rank is parked, nothing can wake them.
  /// Snapshot the wait graph and report; the world aborts right after.
  void on_quiescence();
  void report_deadlock(const std::vector<RankWaitState>& states);

  mpisim::World* world_;
  CheckerOptions options_;
  bool attached_ = false;
  bool handler_installed_ = false;

  DiagnosticSink sink_;
  CommRegistry comms_;
  WaitGraph waitgraph_;
  ResourceTracker resources_;
  ConsistencyChecker consistency_;
  SectionLint lint_;

  std::atomic<bool> deadlock_reported_{false};
  std::atomic<bool> analyzed_{false};
};

}  // namespace mpisect::checker
