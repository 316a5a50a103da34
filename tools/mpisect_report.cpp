// mpisect-report — run an instrumented application on a machine model and
// emit every report the toolchain produces, from one command line:
//
//   mpisect-report --app convolution --ranks 64 --steps 200
//                  --model nehalem --export text
//   mpisect-report --app lulesh --ranks 8 --threads 16 --model knl
//                  --export tree
//   mpisect-report --app lulesh --export chrome --out trace.json
//   mpisect-report --app convolution --export snapshot --out before.csv
//
// Formats: text (per-section table), csv, json, tree (phase call-tree),
// balance (load-balance triage), chrome (chrome://tracing JSON),
// snapshot (ProfileSnapshot CSV for mpisect-diff).
#include <cstdio>

#include "core/sections/runtime.hpp"
#include "launch.hpp"
#include "profiler/balance.hpp"
#include "profiler/diff.hpp"
#include "profiler/report.hpp"
#include "profiler/section_profiler.hpp"
#include "profiler/tree.hpp"
#include "support/strings.hpp"

using namespace mpisect;

int run(int argc, char** argv) {
  support::ArgParser args("mpisect-report",
                          "Run an instrumented app and emit section reports");
  args.add_string("app", "convolution", "convolution | lulesh");
  support::add_unified_flags(args, /*model_default=*/"nehalem",
                             /*export_default=*/"text",
                             /*seed_default=*/0x5EED);
  args.add_int("ranks", 8, "MPI processes (lulesh: perfect cube)");
  support::add_world_flags(args);
  args.add_int("threads", 1, "MiniOMP threads per rank (lulesh)");
  args.add_int("steps", 100, "time-steps");
  args.add_int("size", 0,
               "problem size (convolution: image height scale x100; lulesh: "
               "per-rank edge; 0 = default)");
  args.add_string("out", "", "output file ('' = stdout)");
  args.add_flag("validate", "enable section validation mode");
  if (!launch::parse_args(args, argc, argv)) return 1;

  const std::string app_name = args.get_string("app");
  const std::string format = support::unified_export(args);
  const int ranks = static_cast<int>(args.get_int("ranks"));
  const bool keep_instances = format == "tree" || format == "chrome";

  const auto world_ptr = launch::make_world(
      args, ranks, {.validate_sections = args.get_flag("validate")});
  mpisim::World& world = *world_ptr;
  sections::SectionRuntime::install(world);
  profiler::SectionProfiler prof(world, {.keep_instances = keep_instances});
  world.run(launch::app_main(app_name, static_cast<int>(args.get_int("steps")),
                             static_cast<int>(args.get_int("size")),
                             static_cast<int>(args.get_int("threads"))));

  std::string text;
  if (format == "text") {
    text = profiler::render_text(prof);
    text += "virtual walltime: " + support::fmt_seconds(world.elapsed()) +
            " on " + std::to_string(ranks) + " ranks (" +
            world.machine().name + ")\n";
  } else if (format == "csv") {
    text = profiler::render_csv(prof);
  } else if (format == "json") {
    text = profiler::render_json(prof);
  } else if (format == "tree") {
    text = profiler::render_tree(profiler::build_section_tree(prof));
  } else if (format == "balance") {
    text = profiler::render_balance(profiler::balance_report(prof));
  } else if (format == "chrome") {
    text = profiler::render_chrome_trace(prof);
  } else if (format == "snapshot") {
    text = profiler::ProfileSnapshot::capture(prof, app_name).to_csv();
  } else {
    std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
    return 1;
  }
  launch::emit(text, args.get_string("out"));
  return 0;
}

int main(int argc, char** argv) {
  // Usage errors (bad --exec/--match specs and friends) must surface as a
  // one-line diagnostic with exit 1, never an uncaught-exception abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "mpisect-report: %s\n", err.what());
    return 1;
  }
}
