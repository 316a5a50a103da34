// mpisect-diff — compare two profile snapshots written by
// `mpisect-report --export snapshot`:
//
//   mpisect-report --app lulesh --threads 1  --export snapshot --out t1.csv
//   mpisect-report --app lulesh --threads 16 --export snapshot --out t16.csv
//   mpisect-diff t1.csv t16.csv
//
// Prints the per-section deltas, biggest movers first.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "launch.hpp"
#include "profiler/diff.hpp"

namespace {

std::optional<mpisect::profiler::ProfileSnapshot> load(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto snap = mpisect::profiler::ProfileSnapshot::from_csv(buf.str(), path);
  if (!snap) std::fprintf(stderr, "%s is not a profile snapshot\n", path);
  return snap;
}

}  // namespace

int main(int argc, char** argv) {
  mpisect::support::ArgParser args(
      "mpisect-diff", "Compare two profile snapshots, biggest movers first");
  args.add_positional("before", "baseline snapshot CSV");
  args.add_positional("after", "comparison snapshot CSV");
  if (!mpisect::launch::parse_args(args, argc, argv)) return 1;
  const auto before = load(args.get_string("before").c_str());
  const auto after = load(args.get_string("after").c_str());
  if (!before || !after) return 1;
  const auto deltas = mpisect::profiler::diff_profiles(*before, *after);
  std::fputs(mpisect::profiler::render_diff(deltas, before->name(),
                                            after->name())
                 .c_str(),
             stdout);
  // Headline: the biggest improvement and the biggest regression.
  const mpisect::profiler::SectionDelta* best = nullptr;
  const mpisect::profiler::SectionDelta* worst = nullptr;
  for (const auto& d : deltas) {
    if (d.only_in_before || d.only_in_after) continue;
    if (best == nullptr || d.abs_delta < best->abs_delta) best = &d;
    if (worst == nullptr || d.abs_delta > worst->abs_delta) worst = &d;
  }
  if (best != nullptr && best->abs_delta < 0.0) {
    std::printf("biggest improvement: %s (%.2fx faster)\n",
                best->label.c_str(), best->speedup);
  }
  if (worst != nullptr && worst->abs_delta > 0.0) {
    std::printf("biggest regression:  %s (%.2fx slower)\n",
                worst->label.c_str(),
                worst->speedup > 0.0 ? 1.0 / worst->speedup : 0.0);
  }
  return 0;
}
