// mpisect_perfbench — runs one benchmark workload and prints its metrics.
//
//   mpisect_perfbench --workload sim-16k --seed 7 --seconds 20 --trace 0
//                     [--workdir .bench_build/work]
//
// Human-readable report lines come first; the last line of standard
// output is one JSON object:
//   {"correct":true,"attempted":N,"failed":0,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end table, with --trace 1 the
// per-layer table (see bench.cpp). Exit status is 0 whenever a result was
// printed, 1 on bad arguments or an unexpected error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

void usage() {
  std::fprintf(stderr,
               "usage: mpisect_perfbench --workload "
               "<sim-16k|record-lulesh|whatif-serve> --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n");
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      opt.trace = v == "1";
    } else if (a == "--workdir") {
      opt.workdir = v;
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

void print_result(const Result& r, bool trace) {
  for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
  const auto& table = trace ? per_layer_table() : end_to_end_table();
  for (const MetricSpec& m : table) {
    const auto it = r.values.find(m.name);
    std::printf("  %-40s %18.6g %s\n", m.name,
                it == r.values.end() ? 0.0 : it->second, m.unit);
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const MetricSpec& m : table) {
    const auto it = r.values.find(m.name);
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                first ? "" : ",", m.name,
                it == r.values.end() ? 0.0 : it->second, m.unit);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 1;
  }
  Result r;
  try {
    if (opt.workload == "sim-16k") {
      run_sim_16k(opt, r);
    } else if (opt.workload == "record-lulesh") {
      run_record_lulesh(opt, r);
    } else if (opt.workload == "whatif-serve") {
      run_whatif_serve(opt, r);
    } else {
      usage();
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpisect_perfbench: %s\n", e.what());
    return 1;
  }
  if (r.attempted == 0) {
    std::fprintf(stderr, "mpisect_perfbench: no operation attempted\n");
    return 1;
  }
  r.set("ok_frac", static_cast<double>(r.attempted - r.failed) /
                       static_cast<double>(r.attempted));
  r.note("failed_frac = " +
         std::to_string(static_cast<double>(r.failed) /
                        static_cast<double>(r.attempted)) +
         " (" + std::to_string(r.failed) + " of " +
         std::to_string(r.attempted) + " attempted)");
  print_result(r, opt.trace);
  return 0;
}
