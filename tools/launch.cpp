#include "launch.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "apps/convolution/convolution.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "mpisim/session.hpp"
#include "obs/spans.hpp"

namespace mpisect::launch {

bool parse_args(support::ArgParser& args, int argc, const char* const* argv) {
  args.add_string("self-trace", "",
                  "wall-clock self-trace of the simulator itself "
                  "(.json = chrome://tracing, else CSV)");
  if (!args.parse(argc, argv)) return false;
  if (const auto& path = args.get_string("self-trace"); !path.empty()) {
    obs::enable_self_trace(path);
  }
  return true;
}

void emit(const std::string& text, const std::string& out_path,
          const std::string& what) {
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return;
  }
  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  out << text;
  const std::string prefix = what.empty() ? "" : what + " ";
  std::printf("wrote %s%s (%zu bytes)\n", prefix.c_str(), out_path.c_str(),
              text.size());
}

std::unique_ptr<mpisim::World> make_world(const support::ArgParser& args,
                                          int ranks,
                                          mpisim::WorldOptions opts) {
  const std::string& model = args.get_string("model");
  const auto preset = mpisim::MachineModel::preset(model);
  if (!preset) {
    throw std::invalid_argument("unknown model '" + model + "' (" +
                                mpisim::MachineModel::choices() + ")");
  }
  opts.machine = *preset;
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  return mpisim::Session(ranks, std::move(opts))
      .world_builder()
      .exec_spec(args.get_string("exec"))
      .build();
}

mpisim::World::RankMain app_main(const std::string& app, int steps, int size,
                                 int threads) {
  if (app == "convolution") {
    apps::conv::ConvolutionConfig cfg;
    cfg.steps = steps;
    if (size > 0) {
      cfg.width = size * 100;
      cfg.height = size * 75;
    }
    cfg.full_fidelity = false;
    auto conv = std::make_shared<apps::conv::ConvolutionApp>(cfg);
    return [conv](mpisim::Ctx& ctx) { (*conv)(ctx); };
  }
  if (app == "lulesh") {
    apps::lulesh::LuleshConfig cfg;
    cfg.steps = steps;
    cfg.omp_threads = threads;
    if (size > 0) cfg.s = size;
    cfg.full_fidelity = false;
    auto lulesh = std::make_shared<apps::lulesh::LuleshApp>(cfg);
    return [lulesh](mpisim::Ctx& ctx) { (*lulesh)(ctx); };
  }
  throw std::invalid_argument("unknown app '" + app +
                              "' (convolution|lulesh)");
}

}  // namespace mpisect::launch
