// mpisect-analyze — offline happens-before analysis of a recorded .mpst
// trace: no re-execution, pure post-mortem.
//
//   mpisect-analyze --trace run.mpst                  # text report
//   mpisect-analyze --trace run.mpst --json --out report.json
//   mpisect-analyze --scenario race                   # seeded 3-rank fixture
//   mpisect-analyze --app convolution --ranks 8       # record, then analyze
//
// Passes (all offline, all deterministic):
//   * message races — every wildcard receive's ISP/MUST-style match set;
//     more than one concurrent eligible sender means the run's outcome
//     depended on message timing (reported with the concrete alternates);
//   * latent deadlocks — each alternate matching is greedily re-simulated;
//     matchings that wedge are reported with the wait-for cycle even
//     though the recorded run completed;
//   * critical path — the longest happens-before chain in virtual time,
//     with per-section on-path attribution (the complement of the windowed
//     Eq. 6 bound: time a section spends *off* the path is imbalance that
//     speedup projections overstate). The path total equals the replay
//     makespan bit-exactly.
//
// Scenarios (always 3 ranks) seed analyzable histories:
//   race            one wildcard receive, two concurrent senders
//   latent-deadlock a race whose alternate matching wedges the run
//   clean           deterministic sectioned ring — zero findings
//
// Exit status: 0 = no findings, 2 = findings reported, 1 = usage error.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "analysis/analyzer.hpp"
#include "codec/mpstz.hpp"
#include "core/sections/api.hpp"
#include "core/sections/runtime.hpp"
#include "launch.hpp"
#include "mpisim/message.hpp"
#include "serve/queries.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "trace/recorder.hpp"

namespace {

using namespace mpisect;

// Rank 0 posts a wildcard receive that both rank 1 and rank 2 can satisfy
// concurrently (rank 2's send is causally independent of rank 0): one
// MESSAGE_RACE with one alternate. Either matching completes, so no
// latent deadlock.
void scenario_race(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  char buf[4] = {};
  static const char payload[4] = {};
  switch (world.rank()) {
    case 0:
      world.recv(buf, sizeof buf, mpisim::kAnySource, /*tag=*/5);
      world.recv(buf, sizeof buf, mpisim::kAnySource, /*tag=*/5);
      break;
    case 1:
      world.send(payload, sizeof payload, 0, /*tag=*/5);
      world.send(payload, sizeof payload, 2, /*tag=*/9);
      break;
    case 2:
      world.recv(buf, sizeof buf, 1, /*tag=*/9);
      world.send(payload, sizeof payload, 0, /*tag=*/5);
      break;
    default:
      break;
  }
}

// Same race, but rank 0's *second* receive insists on rank 2. The recorded
// matching (wildcard <- rank 1) completes; the alternate (wildcard <- rank
// 2) starves the second receive while rank 2 sits in a receive rank 0 only
// reaches afterwards — a 0 <-> 2 wait-for cycle the recorded run never hit.
void scenario_latent(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  char buf[4] = {};
  static const char payload[4] = {};
  switch (world.rank()) {
    case 0:
      world.recv(buf, sizeof buf, mpisim::kAnySource, /*tag=*/5);
      world.recv(buf, sizeof buf, 2, /*tag=*/5);
      world.send(payload, sizeof payload, 2, /*tag=*/6);
      break;
    case 1:
      world.send(payload, sizeof payload, 0, /*tag=*/5);
      world.send(payload, sizeof payload, 2, /*tag=*/9);
      break;
    case 2:
      world.recv(buf, sizeof buf, 1, /*tag=*/9);
      world.send(payload, sizeof payload, 0, /*tag=*/5);
      world.recv(buf, sizeof buf, 0, /*tag=*/6);
      break;
    default:
      break;
  }
}

// Deterministic sectioned ring: fixed sources only, so the analyzer must
// report zero findings and a critical path fully attributed to "RING".
void scenario_clean(mpisim::Ctx& ctx) {
  mpisim::Comm world = ctx.world_comm();
  sections::MPIX_Section_enter(world, "RING");
  char buf[8] = {};
  static const char payload[8] = {};
  const int next = (world.rank() + 1) % world.size();
  const int prev = (world.rank() + world.size() - 1) % world.size();
  for (int i = 0; i < 4; ++i) {
    if (world.rank() == 0) {
      world.send(payload, sizeof payload, next, /*tag=*/3);
      world.recv(buf, sizeof buf, prev, /*tag=*/3);
    } else {
      world.recv(buf, sizeof buf, prev, /*tag=*/3);
      world.send(payload, sizeof payload, next, /*tag=*/3);
    }
  }
  sections::MPIX_Section_exit(world, "RING");
}

/// Record a scenario or app in-process and return the trace.
trace::TraceFile record_trace(const support::ArgParser& args) {
  const std::string scenario = args.get_string("scenario");
  const std::string app_name = args.get_string("app");

  mpisim::World::RankMain body;
  int ranks = static_cast<int>(args.get_int("ranks"));
  if (scenario == "race") {
    body = scenario_race;
  } else if (scenario == "latent-deadlock") {
    body = scenario_latent;
  } else if (scenario == "clean") {
    body = scenario_clean;
  } else if (scenario != "none") {
    throw std::invalid_argument("unknown scenario '" + scenario +
                                "' (none|race|latent-deadlock|clean)");
  }
  if (body) {
    ranks = 3;
  } else {
    body = launch::app_main(app_name, static_cast<int>(args.get_int("steps")));
  }

  const auto world_ptr = launch::make_world(args, ranks);
  mpisim::World& world = *world_ptr;
  sections::SectionRuntime::install(world);
  const std::string provenance =
      (scenario != "none" ? "scenario-" + scenario : app_name) +
      " --ranks " + std::to_string(ranks);
  auto rec = trace::TraceRecorder::install(world, {.app = provenance});
  world.run(body);
  return rec->finish();
}

int run(int argc, char** argv) {
  support::ArgParser args(
      "mpisect-analyze",
      "Offline happens-before analysis of a recorded .mpst trace");
  args.add_string("trace", "", "trace to analyze ('' = record one now)");
  args.add_string("scenario", "none",
                  "none | race | latent-deadlock | clean (3-rank fixtures)");
  args.add_string("app", "convolution",
                  "convolution | lulesh (when recording without --trace)");
  support::add_unified_flags(args, /*model_default=*/"nehalem-cluster",
                             /*export_default=*/"text",
                             /*seed_default=*/0x5EED);
  args.add_int("ranks", 8, "MPI processes (scenarios use 3)");
  args.add_int("steps", 10, "time-steps (app recording)");
  support::add_world_flags(args);
  args.add_string("out", "", "report file ('' = stdout)");
  args.add_string("save-trace", "", "also save the recorded trace here");
  args.add_string("telemetry", "",
                  "write analysis counters as Prometheus text to this file");
  if (!launch::parse_args(args, argc, argv)) return 1;

  const std::string format = support::unified_export(args);
  if (format != "text" && format != "csv" && format != "json") {
    std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
    return 1;
  }

  trace::TraceFile tf;
  if (!args.get_string("trace").empty()) {
    tf = codec::load_trace(args.get_string("trace"));
  } else {
    tf = record_trace(args);
    if (!args.get_string("save-trace").empty()) {
      tf.save(args.get_string("save-trace"));
    }
  }

  if (!args.get_string("telemetry").empty()) {
    const analysis::AnalysisResult res = analysis::analyze(tf);
    telemetry::Registry reg(tf.header.nranks);
    analysis::fill_telemetry(res, reg);
    launch::emit(telemetry::prometheus_text(reg),
                 args.get_string("telemetry"));
  }

  // The report runs on the shared serve engine, so the bytes here match a
  // served "analyze" response for the same trace exactly.
  serve::AnalyzeQuery q;
  q.format = format;
  std::size_t findings = 0;
  const std::string text = serve::run_analyze(tf, q, &findings);
  launch::emit(text, args.get_string("out"));
  return findings > 0 ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Corrupt traces and usage errors must surface as a one-line diagnostic
  // with a nonzero exit, never an uncaught-exception abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "mpisect-analyze: %s\n", err.what());
    return 1;
  }
}
