// The one launcher behind the mpisect-* tools that start a simulated world
// (mpisect-report, mpisect-replay record, mpisect-top, mpisect-check,
// mpisect-analyze): flags -> machine -> World, app name -> rank main, plus
// the argument parsing and output plumbing every tool shares.
//
//   support::ArgParser args("mpisect-x", "...");
//   support::add_unified_flags(args, "nehalem", "text", 0x5EED);
//   support::add_world_flags(args);
//   if (!launch::parse_args(args, argc, argv)) return 1;
//   const auto world = launch::make_world(args, ranks);
//   world->run(launch::app_main("lulesh", steps, size, threads));
//   launch::emit(text, args.get_string("out"));
//
// Errors (unknown model or app, unwritable output) throw; each tool's
// main() prints them as one "mpisect-<tool>: ..." line and exits 1.
#pragma once

#include <memory>
#include <string>

#include "mpisim/runtime.hpp"
#include "support/cli.hpp"

namespace mpisect::launch {

/// Declare --self-trace, parse argv, and arm the wall-clock self-tracer
/// when the flag names a file (MPISECT_SELF_TRACE is the env equivalent).
/// Returns false when the tool should exit 1 (--help, --version, bad args).
[[nodiscard]] bool parse_args(support::ArgParser& args, int argc,
                              const char* const* argv);

/// Print `text` to stdout, or write it to `out_path` and print
/// "wrote [<what> ]<path> (<n> bytes)".
void emit(const std::string& text, const std::string& out_path,
          const std::string& what = "");

/// The World the shared flags describe: the --model preset, --seed, and
/// the --exec/--match specs (support::add_world_flags) over `opts`, which
/// carries whatever else the tool sets (progress model, fault plan, ...).
[[nodiscard]] std::unique_ptr<mpisim::World> make_world(
    const support::ArgParser& args, int ranks, mpisim::WorldOptions opts = {});

/// Rank main of a proxy app ("convolution" | "lulesh") at modeled
/// fidelity. `size` 0 keeps the default problem (convolution: image scale
/// x100 by x75; lulesh: per-rank edge); `threads` is lulesh's MiniOMP team.
/// The returned function owns the app.
[[nodiscard]] mpisim::World::RankMain app_main(const std::string& app,
                                               int steps, int size = 0,
                                               int threads = 1);

}  // namespace mpisect::launch
