#include "mpisim/progress.hpp"

#include <algorithm>
#include <stdexcept>

#include "mpisim/error.hpp"
#include "support/spec.hpp"

namespace mpisect::mpisim {

namespace {

using support::spec_value;

}  // namespace

const char* progress_mode_name(ProgressMode m) noexcept {
  switch (m) {
    case ProgressMode::BlockingOnly:
      return "blocking-only";
    case ProgressMode::Opportunistic:
      return "opportunistic";
    case ProgressMode::ProgressThread:
      return "progress-thread";
  }
  return "?";
}

std::string ProgressModel::spec() const {
  std::string s = name();
  switch (mode) {
    case ProgressMode::BlockingOnly:
      break;
    case ProgressMode::Opportunistic:
      s += ":entry=" + spec_value(entry_overhead);
      break;
    case ProgressMode::ProgressThread:
      s += ":tax=" + spec_value(core_tax) + ",lat=" + spec_value(thread_latency);
      break;
  }
  return s;
}

ProgressModel ProgressModel::parse(const std::string& spec) {
  support::SpecParts parts;
  try {
    parts = support::parse_spec(spec);
  } catch (const std::invalid_argument& e) {
    throw MpiError(Err::Arg, std::string("progress ") + e.what());
  }

  ProgressModel m;
  if (parts.preset == "blocking-only") {
    m.mode = ProgressMode::BlockingOnly;
  } else if (parts.preset == "opportunistic") {
    m.mode = ProgressMode::Opportunistic;
  } else if (parts.preset == "progress-thread") {
    m.mode = ProgressMode::ProgressThread;
  } else {
    throw MpiError(Err::Arg, "unknown progress preset '" + parts.preset +
                                 "' (expected " + choices() + ")");
  }
  require(parts.options.empty() || m.mode != ProgressMode::BlockingOnly,
          Err::Arg, "blocking-only takes no options");

  for (const auto& [key, raw] : parts.options) {
    double value = 0.0;
    try {
      value = support::spec_number(raw);
    } catch (const std::invalid_argument& e) {
      throw MpiError(Err::Arg, std::string("progress ") + e.what());
    }
    if (m.mode == ProgressMode::Opportunistic && key == "entry") {
      m.entry_overhead = value;
    } else if (m.mode == ProgressMode::ProgressThread && key == "tax") {
      m.core_tax = value;
    } else if (m.mode == ProgressMode::ProgressThread && key == "lat") {
      m.thread_latency = value;
    } else {
      throw MpiError(Err::Arg, "unknown progress option '" + key + "' for " +
                                   std::string(m.name()));
    }
  }
  return m;
}

std::string ProgressModel::choices() {
  return "blocking-only|opportunistic|progress-thread";
}

MachineModel fold_progress(MachineModel m, const ProgressModel& rec,
                           const ProgressModel& cur,
                           bool machine_is_recorded) {
  if (machine_is_recorded && rec.mode == ProgressMode::Opportunistic) {
    m.net.send_overhead -= rec.entry_overhead;
    m.net.recv_overhead -= rec.entry_overhead;
  }
  if (cur.mode == ProgressMode::Opportunistic) {
    m.net.send_overhead += cur.entry_overhead;
    m.net.recv_overhead += cur.entry_overhead;
  }
  return m;
}

double ProgressModel::nbc_complete_time(double t_wait_entry, double max_post,
                                        double algo_cost) const noexcept {
  switch (mode) {
    case ProgressMode::BlockingOnly:
      // No background progress: the algorithm only starts once the waiter
      // blocks at the fence, after every member has posted.
      return std::max(t_wait_entry, max_post) + algo_cost;
    case ProgressMode::Opportunistic:
      // The algorithm runs behind other MPI entries, finishing `algo_cost`
      // after the last post; a late waiter pays nothing extra.
      return std::max(max_post + algo_cost, t_wait_entry);
    case ProgressMode::ProgressThread:
      // As opportunistic, plus the thread's completion-publication lag.
      return std::max(max_post + thread_latency + algo_cost, t_wait_entry);
  }
  return t_wait_entry;
}

double nbc_algo_cost(double latency, double bandwidth, int p,
                     std::uint64_t bytes) noexcept {
  double rounds = 0.0;
  for (int k = 1; k < p; k <<= 1) rounds += 1.0;
  return rounds * (latency + static_cast<double>(bytes) / bandwidth);
}

}  // namespace mpisect::mpisim
