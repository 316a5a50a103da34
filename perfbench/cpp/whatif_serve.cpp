// whatif-serve: the read path. Set-up records a 64-rank, 200-step modeled
// convolution, compresses it, writes the .mpstz once and loads it into a
// serve::Service whose result cache holds fewer entries than the query mix
// has distinct keys. Then one closed-loop client sends seeded replay,
// timeline, sweep, analyze and info queries to Service::handle_line, the
// dispatcher the daemon uses; half of them repeat an earlier key.
//
// Output checks: every response is ok:true with the trace's digest, and
// for a seeded sample of queries the served result is byte-identical to
// calling serve::run_* directly on an independently decoded trace. The
// trace and .mpstz digests are printed for run.py to compare with the
// stored digests of the seed.
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "analysis/critical_path.hpp"
#include "analysis/interp.hpp"
#include "analysis/latent.hpp"
#include "analysis/races.hpp"
#include "apps/convolution/convolution.hpp"
#include "bench.hpp"
#include "codec/mpstz.hpp"
#include "core/sections/runtime.hpp"
#include "mpisim/error.hpp"
#include "mpisim/session.hpp"
#include "obs/spans.hpp"
#include "serve/queries.hpp"
#include "serve/service.hpp"
#include "support/digest.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "telemetry/timeline.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

namespace perfbench {

namespace {

using namespace mpisect;

constexpr int kRanks = 64;
constexpr int kSteps = 200;
constexpr int kSetups = 3;
constexpr double kRankSteps = static_cast<double>(kRanks) * kSteps;
/// Result-cache capacity (the daemon's --cache-entries): below the 94
/// distinct keys of the query mix, so the LRU evicts and some repeats miss.
constexpr std::size_t kCacheEntries = 64;
/// Share of queries whose result is re-derived directly for the check; a
/// key is checked at most once per run.
constexpr double kCheckShare = 1.0 / 16.0;

/// One query: the parameter struct handed to serve::run_*, and the LDJSON
/// request line that asks the service for the same thing.
struct Query {
  std::string op;
  serve::ReplayQuery replay;
  serve::TimelineQuery timeline;
  serve::SweepQuery sweep;
  serve::AnalyzeQuery analyze;
  std::string key;   ///< the request without its id
  std::string line;  ///< {"id":N,<key>}
};

std::string quoted(const std::string& s) {
  return "\"" + support::json_escape(s) + "\"";
}

std::string model_json(const serve::ModelParams& m) {
  return "\"model\":" + quoted(m.model) +
         ",\"progress\":" + quoted(m.progress);
}

/// Deals 0..n-1 in a seeded shuffled order, reshuffling after every pass,
/// so each value's share of a run is the same whatever the seed.
class Deck {
 public:
  explicit Deck(std::size_t n) : order_(n) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
  }
  std::size_t deal(SeedStream& rng) {
    if (pos_ == 0) {
      for (std::size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng.below(i)]);
      }
    }
    const std::size_t v = order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return v;
  }

 private:
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

/// Seeded query generator. Ops get equal shares; their parameters come
/// from the repository's documented serve recipes: models from
/// serve::model_choices(), so the mix only ever names models the service
/// accepts; replay and timeline formats from the query engine's format
/// lists; progress specs and sweep axes from the README and EXPERIMENTS.md
/// recipes. Ops, each op's parameter combinations, and the ops of repeats
/// are dealt from seeded decks: the seed decides the order, not the
/// shares, so runs of different seeds do the same mix of work.
class QueryMix {
 public:
  QueryMix(std::uint64_t seed, std::string trace_path)
      : rng_(seed ^ 0x5E12E7ULL),
        path_(std::move(trace_path)),
        models_(support::split(serve::model_choices(), '|')) {
    const std::size_t m = models_.size();
    combos_ = {Deck(1), Deck(m * 3 * 3), Deck(m * 3), Deck(m * 3 * 2),
               Deck(3)};
  }

  /// Half of the draws repeat an earlier new draw of a dealt op.
  Query next() {
    if (repeat_.deal(rng_) == 0) {
      const auto& earlier = history_[repeat_op_.deal(rng_)];
      if (!earlier.empty()) return earlier[rng_.below(earlier.size())];
    }
    const std::size_t op = op_.deal(rng_);
    Query q = fresh(op, combos_[op].deal(rng_));
    history_[op].push_back(q);
    return q;
  }

  SeedStream& rng() noexcept { return rng_; }

 private:
  static constexpr std::size_t kOps = 5;

  /// Combination `i` of op `op`: each parameter's index is one digit of
  /// `i` in mixed radix.
  Query fresh(std::size_t op, std::size_t i) {
    static const char* kOpNames[kOps] = {"info", "replay", "sweep",
                                         "timeline", "analyze"};
    // EXPERIMENTS.md, progress-model sweep.
    static const char* kProgress[] = {"recorded", "opportunistic",
                                      "progress-thread:tax=0.1"};
    static const char* kFormats[] = {"text", "csv", "json"};
    auto digit = [&i](std::size_t radix) {
      const std::size_t d = i % radix;
      i /= radix;
      return d;
    };
    Query q;
    q.op = kOpNames[op];
    std::string params;
    if (q.op == "replay" || q.op == "timeline") {
      serve::ModelParams m;
      m.model = models_[digit(models_.size())];
      m.progress = kProgress[digit(3)];
      params = model_json(m) + ",\"format\":";
      if (q.op == "replay") {
        q.replay.model = m;
        q.replay.format = kFormats[digit(3)];
        params += quoted(q.replay.format);
      } else {
        q.timeline.model = m;
        q.timeline.format = kFormats[1 + digit(2)];  // csv | json
        params += quoted(q.timeline.format);
      }
    } else if (q.op == "sweep") {
      // One model, swept along one documented axis: latency scales
      // (README), drop rates (EXPERIMENTS.md, cached drop-rate sweep) or
      // progress models (EXPERIMENTS.md, progress-model sweep).
      q.sweep.models = {models_[digit(models_.size())]};
      params = "\"models\":[" + quoted(q.sweep.models[0]) + "],";
      switch (digit(3)) {
        case 0:
          q.sweep.latency_scales = {1.0, 2.0, 4.0};
          params += "\"latency_scales\":[1,2,4]";
          break;
        case 1:
          q.sweep.drop_rates = {0.0, 0.01, 0.02, 0.05, 0.1};
          params += "\"drop_rates\":[0,0.01,0.02,0.05,0.1]";
          break;
        default:
          q.sweep.progress = {kProgress[0], kProgress[1], kProgress[2]};
          params += "\"progress\":[\"recorded\",\"opportunistic\","
                    "\"progress-thread:tax=0.1\"]";
          break;
      }
    } else if (q.op == "analyze") {
      q.analyze.format = kFormats[digit(3)];
      params = "\"format\":" + quoted(q.analyze.format);
    }
    q.key = "\"op\":\"" + q.op + "\",\"trace\":" + quoted(path_) +
            (params.empty() ? "" : ",\"params\":{" + params + "}") + "}";
    q.line = "{\"id\":" + std::to_string(++ids_) + "," + q.key;
    return q;
  }

  SeedStream rng_;
  std::string path_;
  std::vector<std::string> models_;
  Deck op_{kOps}, repeat_op_{kOps}, repeat_{2};
  std::vector<Deck> combos_;  ///< per op: its parameter combinations
  std::vector<Query> history_[kOps];  ///< per op: its new draws so far
  std::uint64_t ids_ = 0;
};

std::string run_direct(const trace::TraceFile& tf, const Query& q) {
  if (q.op == "replay") return serve::run_replay(tf, q.replay);
  if (q.op == "timeline") return serve::run_timeline(tf, q.timeline);
  if (q.op == "sweep") return serve::run_sweep(tf, q.sweep);
  if (q.op == "analyze") return serve::run_analyze(tf, q.analyze);
  return serve::run_info(tf);
}

struct Setup {
  double total = 0.0;
  double build = 0.0;
  double run = 0.0;
  double finish = 0.0;
  double encode = 0.0;
  double compress = 0.0;
  double load = 0.0;
  std::uint64_t events = 0;
  std::size_t flat_bytes = 0;
  std::size_t packed_bytes = 0;
  std::uint64_t packed_digest = 0;
  std::uint64_t digest = 0;
  SchedDelta sched;
  double bytes_per_rank = 0.0;
  double stack_hwm = 0.0;
  std::optional<RankProbe> probe;
};

/// Record, compress and write the trace, then load it into `svc`.
Setup set_up(std::uint64_t world_seed, int width, const std::string& path,
             bool traced, SpanLog& log, serve::Service& svc) {
  Setup s;
  const double t0 = now_s();
  std::unique_ptr<mpisim::World> world;
  s.build = timed(log, "mpisim.WorldBuilder::build", [&] {
    world = mpisim::Session(kRanks)
                .world_builder()
                .machine(mpisim::MachineModel::nehalem_cluster())
                .seed(world_seed)
                .build();
  });
  sections::SectionRuntime::install(*world);
  auto recorder =
      trace::TraceRecorder::install(*world, {.app = "convolution perfbench"});
  std::optional<Probes> probes;
  if (traced) probes.emplace(*world);
  apps::conv::ConvolutionConfig cfg;
  cfg.width = width;
  cfg.steps = kSteps;
  cfg.full_fidelity = false;
  apps::conv::ConvolutionApp app(cfg);
  {
    if (traced) obs::set_timing(true);
    const SchedWatch watch;
    s.run = timed(log, "mpisim.World::run", [&] { world->run(std::ref(app)); });
    s.sched = watch.delta();
    obs::set_timing(false);
  }
  trace::TraceFile tf;
  s.finish = timed(log, "trace.finish", [&] { tf = recorder->finish(); });
  std::vector<std::uint8_t> packed;
  s.compress = timed(log, "codec.compress", [&] { packed = codec::compress(tf); });
  timed(log, "io.write_mpstz", [&] {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(packed.data()),
              static_cast<std::streamsize>(packed.size()));
    if (!out) throw std::runtime_error("cannot write '" + path + "'");
  });
  std::shared_ptr<const serve::LoadedTrace> lt;
  s.load = timed(log, "serve.load", [&] { lt = svc.trace(path); });
  s.total = now_s() - t0;

  s.events = tf.total_events();
  s.packed_bytes = packed.size();
  s.packed_digest = digest_bytes(packed.data(), packed.size());
  s.digest = lt->digest;
  s.bytes_per_rank = world->mem_account().bytes_per_rank();
  s.stack_hwm =
      static_cast<double>(world->executor().stats().stack_bytes_hwm.load());
  if (probes) s.probe = probes->total();
  std::vector<std::uint8_t> flat;
  s.encode = timed(log, "trace.encode", [&] { flat = tf.encode(); });
  s.flat_bytes = flat.size();
  return s;
}

/// Median wall seconds of `reps` calls of `fn`.
template <typename Fn>
double med_time(SpanLog& log, const char* name, int reps, Fn&& fn) {
  std::vector<double> xs;
  for (int i = 0; i < reps; ++i) xs.push_back(timed(log, name, fn));
  return median(xs);
}

}  // namespace

void run_whatif_serve(const Options& opt, Result& r) {
  SeedStream inputs(opt.seed ^ 0x5E7A9ULL);
  const std::uint64_t world_seed = inputs.next();
  const int width = 5600 + 2 * static_cast<int>(inputs.below(9));
  const std::string path = opt.workdir + "/serve.mpstz";
  SpanLog log(opt.trace);
  r.note("whatif-serve: " + std::to_string(kRanks) + "-rank " +
         std::to_string(kSteps) + "-step convolution trace, cache " +
         std::to_string(kCacheEntries) + " entries, 1 closed-loop client");

  // Set-up, several times on fresh services; keep the last service.
  Calibration cal;
  std::unique_ptr<serve::Service> svc;
  std::vector<Setup> setups;
  Samples setup;
  double first_rss = 0.0;  ///< after one set-up: trace recorded and loaded
  for (int i = 0; i < kSetups; ++i) {
    svc = std::make_unique<serve::Service>(kCacheEntries);
    cal.measure(r);
    const double start = now_s();
    setups.push_back(set_up(world_seed, width, path, opt.trace, log, *svc));
    setup.add(start, setups.back().total);
    if (i == 0) first_rss = peak_rss_mb();
    if (setups.back().digest != setups.front().digest ||
        setups.back().packed_digest != setups.front().packed_digest) {
      r.fail_check("trace differs between set-ups");
    }
  }
  const Setup& s0 = setups.front();
  note_digest(r, "trace", s0.digest);
  note_digest(r, "mpstz", s0.packed_digest);
  // The traced run sends every query to a second service as well; only
  // the second one's calls are wrapped in spans.
  std::unique_ptr<serve::Service> traced_svc;
  if (opt.trace) {
    traced_svc = std::make_unique<serve::Service>(kCacheEntries);
    (void)traced_svc->trace(path);
  }
  const std::string digest_str = support::format_digest(s0.digest);

  QueryMix mix(opt.seed, path);
  std::vector<double> warm_s, traced_s;
  Samples cold, all;
  std::vector<std::pair<Query, std::string>> sampled;
  std::set<std::string> checked;
  std::uint64_t hits = 0;
  auto send = [&](serve::Service& service, const Query& q, bool spans,
                  double* secs) -> std::optional<support::JsonValue> {
    std::string resp;
    try {
      const std::uint32_t id = spans ? log.open("serve.handle_line") : 0;
      const double t0 = now_s();
      resp = service.handle_line(q.line);
      *secs = now_s() - t0;
      log.close(id);
      support::JsonValue v = support::json_parse(resp);
      const support::JsonValue* ok = v.find("ok");
      if (ok == nullptr || !ok->is_bool() || !ok->boolean) {
        const support::JsonValue* err = v.find("error");
        r.note("query failed: " + q.line + " -> " +
               (err != nullptr && err->is_string() ? err->string : resp));
        return std::nullopt;
      }
      const support::JsonValue* d = v.find("digest");
      if (d == nullptr || !d->is_string() || d->string != digest_str) {
        r.fail_check("response digest mismatch: " + q.line);
      }
      return v;
    } catch (const trace::TraceError& e) {
      r.note(std::string("query threw: ") + e.what());
    } catch (const mpisim::MpiError& e) {
      r.note(std::string("query threw: ") + e.what());
    }
    return std::nullopt;
  };

  run_for(opt.seconds, kMinMedianSamples, kCapSeconds, [&] {
    const Query q = mix.next();
    const bool check = mix.rng().unit() < kCheckShare;
    ++r.attempted;
    cal.refresh(r, 1.0);
    const double start = now_s();
    double secs = 0.0;
    const auto v = send(*svc, q, false, &secs);
    if (!v) {
      ++r.failed;
      return true;
    }
    all.add(start, secs);
    const support::JsonValue* cached = v->find("cached");
    const bool warm = cached != nullptr && cached->is_bool() && cached->boolean;
    if (warm) {
      warm_s.push_back(secs);
      ++hits;
    } else {
      cold.add(start, secs);
    }
    if (check && checked.insert(q.key).second) {
      const support::JsonValue* res = v->find("result");
      sampled.emplace_back(q, res != nullptr ? res->string : std::string());
    }
    if (traced_svc) {
      double tsecs = 0.0;
      if (send(*traced_svc, q, true, &tsecs)) traced_s.push_back(tsecs);
    }
    return true;
  });

  const std::size_t evictions = cold.secs.size() - svc->cache().entries();
  r.set("peak_rss_mb", first_rss);
  r.set("process.rss_growth_mb", peak_rss_mb() - first_rss);

  // Served bytes == direct engine bytes on an independently decoded trace.
  {
    const trace::TraceFile tf = codec::load_trace(path);
    for (const auto& [q, served] : sampled) {
      if (run_direct(tf, q) != served) {
        r.fail_check("served result differs from serve::run_" + q.op +
                     ": " + q.line);
      }
    }
    r.note("checked " + std::to_string(sampled.size()) +
           " served results against direct serve::run_* calls");
  }

  double total = 0.0;
  for (const double x : all.secs) total += x;
  double total_ref = 0.0;
  for (const double x : cal.scale(all.secs, all.at)) total_ref += x;
  const double cold_ref = median(cal.scale(cold.secs, cold.at));
  const double n_ok = static_cast<double>(all.secs.size());
  r.set("setup_s", median(cal.scale(setup.secs, setup.at)));
  r.set("work_per_s", n_ok / total_ref);
  r.set("op_ms_p50", cold_ref * 1e3);
  r.note("queries_per_s = " + std::to_string(n_ok / total_ref) +
         " queries/s at reference speed, " + std::to_string(n_ok / total) +
         " as measured (" + std::to_string(all.secs.size()) + " queries)");
  note_measured(r, median(setup.secs), n_ok / total,
                median(cold.secs) * 1e3);
  cal.note(r);
  auto pct = [&](const char* name, const std::vector<double>& v, double q,
                 double scale, const char* unit) {
    if (reportable(v.size(), q)) {
      r.note(std::string(name) + " = " + std::to_string(quantile(v, q) * scale) +
             " " + unit + " (n=" + std::to_string(v.size()) + ")");
    } else {
      r.note(std::string(name) + " not reported: n=" +
             std::to_string(v.size()) + " leaves fewer than 10 beyond it");
    }
  };
  pct("query_cold_ms_p50", cold.secs, 0.5, 1e3, "ms");
  pct("query_cold_ms_p90", cold.secs, 0.9, 1e3, "ms");
  pct("query_warm_us_p50", warm_s, 0.5, 1e6, "us");
  pct("query_warm_us_p90", warm_s, 0.9, 1e6, "us");

  if (!opt.trace) return;
  auto med = [&](double Setup::*field) {
    std::vector<double> xs;
    for (const Setup& s : setups) xs.push_back(s.*field);
    return median(xs);
  };
  const double events = static_cast<double>(s0.events);
  r.set("mpisim.build_ms", med(&Setup::build) * 1e3);
  r.set("mpisim.run_ns_per_rank_step", med(&Setup::run) / kRankSteps * 1e9);
  std::vector<SchedDelta> sched;
  RankProbe sum;
  for (const Setup& s : setups) {
    sched.push_back(s.sched);
    sum += *s.probe;
  }
  set_sched_layers(r, sched, kRankSteps);
  r.set("mpisim.mem.bytes_per_rank", med(&Setup::bytes_per_rank));
  r.set("mpisim.mem.stack_bytes_hwm", med(&Setup::stack_hwm));
  set_world_layers(r, sum, static_cast<double>(setups.size()), kRankSteps);
  r.set("trace.events", events);
  r.set("trace.finish_ms", med(&Setup::finish) * 1e3);
  r.set("trace.encode_ns_per_event", med(&Setup::encode) / events * 1e9);
  r.set("codec.compress_ns_per_event", med(&Setup::compress) / events * 1e9);
  r.set("codec.compress_share", med(&Setup::compress) / med(&Setup::total));
  r.set("codec.ratio", static_cast<double>(s0.flat_bytes) /
                           static_cast<double>(s0.packed_bytes));
  r.set("serve.load_ms", med(&Setup::load) * 1e3);

  // Layer calls on the decoded trace, outside the service.
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  trace::TraceFile tf;
  r.set("codec.decompress_ns_per_event",
        med_time(log, "codec.decompress", 3,
                 [&] { tf = codec::decompress(bytes); }) /
            events * 1e9);
  serve::ModelParams knl;
  knl.model = "knl";
  const serve::ResolvedModel rm = serve::resolve_model(tf, knl);
  trace::ReplayOptions ropts;
  ropts.compute_scale = rm.compute_scale;
  ropts.timeline = true;
  ropts.progress = rm.progress;
  trace::ReplayResult rr;
  r.set("replay.ns_per_event",
        med_time(log, "trace.replay", 3,
                 [&] { rr = trace::replay(tf, rm.machine, ropts); }) /
            events * 1e9);
  r.set("telemetry.timeline_ms",
        med_time(log, "telemetry.timeline_from_replay", 3, [&] {
          (void)telemetry::timeline_from_replay(rr, rr.makespan / 100.0);
        }) * 1e3);
  analysis::InterpResult interp;
  std::vector<analysis::RaceFinding> races;
  r.set("analysis.interp_ms",
        med_time(log, "analysis.interpret", 3,
                 [&] { interp = analysis::interpret(tf); }) * 1e3);
  r.set("analysis.races_ms",
        med_time(log, "analysis.find_races", 3,
                 [&] { races = analysis::find_races(interp); }) * 1e3);
  r.set("analysis.latent_ms",
        med_time(log, "analysis.find_latent_deadlocks", 3, [&] {
          (void)analysis::find_latent_deadlocks(tf, interp, races);
        }) * 1e3);
  r.set("analysis.critical_path_ms",
        med_time(log, "analysis.extract_critical_path", 3, [&] {
          (void)analysis::extract_critical_path(interp);
        }) * 1e3);

  // Warm dispatch: one cached key, asked repeatedly.
  Query info;
  info.op = "info";
  info.line = "{\"id\":0,\"op\":\"info\",\"trace\":" + quoted(path) + "}";
  std::vector<double> dispatch;
  for (int i = 0; i < 201; ++i) {
    double secs = 0.0;
    if (send(*svc, info, true, &secs) && i > 0) dispatch.push_back(secs);
  }
  r.set("serve.dispatch_us", median(dispatch) * 1e6);
  r.set("serve.cache_hit_ratio",
        static_cast<double>(hits) / static_cast<double>(all.secs.size()));
  r.set("serve.cache_evictions", static_cast<double>(evictions));
  if (reportable(cold.secs.size(), 0.9)) {
    r.set("serve.query_cold_ms_p90", quantile(cold.secs, 0.9) * 1e3);
  }
  if (reportable(warm_s.size(), 0.5)) {
    r.set("serve.query_warm_us_p50", quantile(warm_s, 0.5) * 1e6);
  }
  if (reportable(warm_s.size(), 0.9)) {
    r.set("serve.query_warm_us_p90", quantile(warm_s, 0.9) * 1e6);
  }
  double ttotal = 0.0;
  for (const double x : traced_s) ttotal += x;
  r.set("obs.trace_overhead_pct", (ttotal - total) / total * 100.0);
  log.write_chrome(opt.workdir + "/whatif-serve.spans.json");
}

}  // namespace perfbench
