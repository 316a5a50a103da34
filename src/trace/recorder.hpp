// TraceRecorder — the third PMPI-style tool (after the profiler and the
// checker), capturing a compact per-rank event stream suitable for
// offline what-if replay.
//
// Like MpiChecker it registers with the world's hooks::ToolStack, so it
// stacks with the profiler and checker in any order; unlike them it also
// observes the TraceTap events for collective-internal messages and the
// RNG keys of every modelled charge. Taps and hooks never charge virtual
// time, so recording perturbs the simulated timeline by exactly zero.
//
//   World world(16, {...});
//   sections::SectionRuntime::install(world);
//   auto rec = trace::TraceRecorder::install(world, {.app = "convolution"});
//   world.run(app);
//   rec->finish().save("run.mpst");
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpisim/hooks.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/toolstack.hpp"
#include "trace/file.hpp"

namespace mpisect::trace {

struct RecorderOptions {
  /// Free-form provenance string stored in the trace header.
  std::string app;
  /// Telemetry sampling interval hint stamped into the trace header
  /// (seconds of virtual time); 0 = none. Purely metadata — never set by
  /// the sampler itself, so installing telemetry leaves trace bytes
  /// untouched. Replay uses it to re-derive the sampler's timeline.
  double telemetry_dt = 0.0;
};

class TraceRecorder : public mpisim::Extension, public mpisim::hooks::Tool {
 public:
  /// Create and attach a recorder (idempotent per world).
  static std::shared_ptr<TraceRecorder> install(mpisim::World& world,
                                                RecorderOptions options = {});

  TraceRecorder(mpisim::World& world, RecorderOptions options);
  ~TraceRecorder() override;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Unregister from the world's ToolStack. Idempotent.
  void detach();

  /// Assemble the trace for the last completed run. Label ids are
  /// remapped to lexicographic order so same-seed runs produce
  /// byte-identical files regardless of thread interleaving.
  [[nodiscard]] TraceFile finish() const;

  /// Header, sorted label table and per-rank metadata (t0/t_final/section
  /// totals) of the last run with every event list EMPTY — the cheap part
  /// of finish(), and the skeleton codec::compress_stream wants.
  [[nodiscard]] TraceFile skeleton() const;
  /// One rank's full stream with labels remapped — finish() restricted to
  /// rank r. Peak memory for a whole-trace save through this is one
  /// rank's copy instead of all of them.
  [[nodiscard]] RankStream finish_rank(int r) const;
  /// Stream the last run straight to a .mpst file, one rank at a time
  /// (byte-identical to finish().save(path), without ever materializing
  /// the whole TraceFile).
  void save(const std::string& path) const;
  /// Events recorded in the last run, across all ranks (no assembly).
  [[nodiscard]] std::uint64_t total_events() const noexcept;

  // Tool interface (invoked by the world's ToolStack).
  void on_call_begin(mpisim::Ctx& ctx, const mpisim::CallInfo& info) override;
  void on_call_end(mpisim::Ctx& ctx, const mpisim::CallInfo& info) override;
  void on_section_enter(mpisim::Ctx& ctx, mpisim::Comm& comm,
                        const char* label, char* data) override;
  void on_section_leave(mpisim::Ctx& ctx, mpisim::Comm& comm,
                        const char* label, char* data) override;
  void on_pcontrol(mpisim::Ctx& ctx, int level, const char* label) override;
  void on_send_post(mpisim::Ctx& ctx, const mpisim::TapSend& t) override;
  void on_send_wait(mpisim::Ctx& ctx, const mpisim::TapSendWait& t) override;
  void on_recv_post(mpisim::Ctx& ctx, const mpisim::TapRecvPost& t) override;
  void on_recv_wait(mpisim::Ctx& ctx, const mpisim::TapRecvWait& t) override;
  void on_probe(mpisim::Ctx& ctx, const mpisim::TapProbe& t) override;
  // on_request_test is deliberately NOT overridden: a test() poll count is
  // scheduling-dependent (how often the app polled before completion), and
  // recording it would break the byte-identical-traces guarantee.
  void on_nbc_post(mpisim::Ctx& ctx, const mpisim::TapNbcPost& t) override;
  void on_nbc_complete(mpisim::Ctx& ctx,
                       const mpisim::TapNbcComplete& t) override;
  void on_comm_sync(mpisim::Ctx& ctx, const mpisim::TapCommSync& t) override;
  void on_coll_entry(mpisim::Ctx& ctx, std::uint64_t op,
                     double t_before) override;

 private:
  struct RankBuf {
    std::vector<Event> events;
    double t0 = 0.0;
    double t_final = 0.0;
    double last_t = 0.0;  ///< clock after the previous event's charges
    std::uint64_t send_count = 0;
    std::uint64_t recv_post_count = 0;
    /// Outstanding operations: token -> post ordinal.
    std::unordered_map<const void*, std::uint64_t> open_sends;
    std::unordered_map<const void*, std::uint64_t> open_recvs;
    /// token -> index of the RecvPost event awaiting match backpatch.
    std::unordered_map<const void*, std::size_t> recv_event_index;
    /// Open sections: (comm, label, t_enter).
    std::vector<std::tuple<int, std::uint32_t, double>> section_stack;
    /// (comm, label) -> (instances, inclusive seconds).
    std::map<std::pair<int, std::uint32_t>, std::pair<std::uint64_t, double>>
        totals;
    bool finalized = false;

    void reset(double now) {
      *this = RankBuf{};
      t0 = now;
      last_t = now;
    }
  };

  RankBuf& buf(const mpisim::Ctx& ctx) {
    return bufs_[static_cast<std::size_t>(ctx.rank())];
  }
  /// Append an event whose charges begin at `t_before`; sets the gap flag
  /// when the clock moved since the previous event on this rank.
  Event& push(RankBuf& b, EventKind kind, double t_before);
  std::uint32_t intern(const char* label);

  void on_begin(mpisim::Ctx& ctx, const mpisim::CallInfo& info);
  void on_end(mpisim::Ctx& ctx, const mpisim::CallInfo& info);
  void on_section(mpisim::Ctx& ctx, mpisim::Comm& comm, const char* label,
                  bool enter);
  /// Lexicographically sorted label table + old-id -> new-id remap.
  void label_remap(std::vector<std::string>& sorted,
                   std::vector<std::uint32_t>& remap) const;
  [[nodiscard]] RankStream build_rank(
      int r, const std::vector<std::uint32_t>& remap) const;

  mpisim::World* world_;
  RecorderOptions options_;
  bool attached_ = false;
  std::vector<RankBuf> bufs_;
  std::mutex label_mu_;
  std::vector<std::string> label_names_;
  std::unordered_map<std::string, std::uint32_t> label_ids_;
};

}  // namespace mpisect::trace
