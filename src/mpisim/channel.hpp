// Per-destination matching engine.
//
// Each communicator owns one Channel per member rank; senders deposit into
// the destination's channel, receivers post into their own. Matching follows
// MPI's rules: a posted receive matches the earliest queued message whose
// envelope is compatible (envelope_matches, message.hpp), and messages from
// one source never overtake each other because a sender deposits in
// program order.
//
// Matching is O(1) amortized. Posted receives live in exactly one of four
// lanes keyed by their wildcard class — (src,tag), (src,ANY), (ANY,tag),
// (ANY,ANY) — each lane a FIFO; every receive carries a global post
// ordinal, and a deposit takes the minimum-ordinal head across the four
// candidate lanes, which is precisely "first compatible receive in post
// order". Unexpected messages are one node linked into up to four index
// lists (by pair, by source, by tag, arrival order), so a posting receive
// of any wildcard class finds its earliest-arrival candidate at a list head
// and a match unlinks in O(1) with no tombstones. Collective-internal
// messages (tag >= kInternalTagBase) are linked only by pair and by tag,
// so wildcard-tag receives and probes never see them — the separate
// context a real MPI gives collective traffic. tests/match_oracle.hpp is
// the linear-scan reference the tests compare this engine against.
//
// Matching is where virtual time crosses rank boundaries:
//   eager:       t_deliver = max(t_post, t_avail)
//   rendezvous:  t_deliver = max(t_send_start, t_post) + wire_cost + extra
// Probe reports the completion time of a hypothetical receive posted at
// t_probe, so it follows the same two formulas with t_post := t_probe.
// Both are mpisim::delivery_time (cost_rules.hpp), the rule the trace
// walker applies too.
// The second party to arrive performs the match under the channel mutex and
// wakes any rank blocked on it through a WaitPoint — the executor parks the
// rank until delivery, with no polling; World::abort() wakes all waiters so
// one rank's failure cannot deadlock the world.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "mpisim/message.hpp"
#include "mpisim/scheduler.hpp"
#include "obs/memory.hpp"

namespace mpisect::mpisim {

class Channel {
 public:
  /// `rendezvous_extra` is added to every rendezvous delivery time — the
  /// progress model's completion-publication latency (a progress thread
  /// hands the delivery to the application `thread_latency` after the wire
  /// finishes; zero for synchronous progress).
  ///
  /// `mem` is the owning rank's memory-accounting slot (nullptr = no
  /// accounting, e.g. channels constructed directly by unit tests): every
  /// byte queued in this channel is charged there and credited back on
  /// match, giving an exact per-rank high-water mark. Accounting observes,
  /// never decides — matching and delivery times are unaffected.
  Channel(Executor& exec, const std::atomic<bool>* abort_flag,
          double rendezvous_extra = 0.0,
          obs::MemAccount::RankMem* mem = nullptr) noexcept
      : abort_(abort_flag), rendezvous_extra_(rendezvous_extra), mem_(mem),
        wp_(exec, mu_) {}

  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Sender side: enqueue a message, matching an already-posted receive if
  /// one is compatible. Returns the number of unmatched queued messages
  /// after the call (0 = matched immediately) — a telemetry gauge, computed
  /// under the mutex the call already holds. Messages flagged fault_lost by
  /// the fault engine are black-holed: never queued, never matched.
  std::size_t deposit(const MessagePtr& msg);

  /// Receiver side: register a receive; matches immediately against queued
  /// messages when possible. Returns the number of unmatched posted
  /// receives after the call (0 = matched immediately).
  std::size_t post(const PostedRecvPtr& recv);

  /// Block until the posted receive completes. Throws Err::Aborted if the
  /// world aborts and Err::Truncate if the matched message was larger than
  /// the receive buffer's declared size.
  Status wait_recv(const PostedRecvPtr& recv);

  /// Non-blocking completion test (finalizes nothing; pair with
  /// wait_recv once true to collect the status).
  [[nodiscard]] bool test_recv(const PostedRecvPtr& recv);

  /// Non-blocking completion test, sender side: true once the message needs
  /// no further progress (eager always; rendezvous once delivered).
  [[nodiscard]] bool test_send(const MessagePtr& msg);

  /// Park the caller until the channel sees traffic that may have completed
  /// `recv` (returns immediately if it already has). One blocking wait, no
  /// predicate loop: spurious wakeups return early and the caller's test
  /// loop re-polls. Throws Err::Aborted on an abort wake. Request::test()
  /// parks here after its spin budget so a pure test loop reaches exact
  /// quiescence instead of spinning forever.
  void park_recv_incomplete(const PostedRecvPtr& recv);
  /// Sender-side twin of park_recv_incomplete.
  void park_send_incomplete(const MessagePtr& msg);

  /// Block until a rendezvous message has been delivered (sender side).
  /// Returns the delivery time to sync the sender clock to.
  double wait_delivered(const MessagePtr& msg);

  /// Blocking probe: wait until a message matching (src, tag) is queued and
  /// return its envelope without consuming it. t_probe is the prober's
  /// current virtual time; t_complete is when a receive posted at t_probe
  /// would deliver (delivery_time with t_post := t_probe).
  Status probe(int src, int tag, double t_probe);

  /// Number of queued (unmatched) messages — diagnostic for tests.
  [[nodiscard]] std::size_t pending_messages();
  /// Number of unmatched posted receives — diagnostic for tests.
  [[nodiscard]] std::size_t pending_recvs();

 private:
  // One node per unexpected message, linked into up to four index lists at
  // once. Index 0: (src,tag) pair bucket; 1: per-source; 2: per-tag; 3:
  // arrival order. Internal-tag messages are on lists 0 and 2 only (every
  // message is on its pair list, which is how teardown finds them all).
  // Every list preserves arrival order, so each list's head is the
  // earliest compatible message for that wildcard class.
  struct MsgNode {
    MessagePtr msg;
    MsgNode* prev[4] = {nullptr, nullptr, nullptr, nullptr};
    MsgNode* next[4] = {nullptr, nullptr, nullptr, nullptr};
  };
  struct MsgList {
    MsgNode* head = nullptr;
    MsgNode* tail = nullptr;
  };
  /// A posted receive lives in exactly one lane (its wildcard class); `ord`
  /// is the channel-global post ordinal that totally orders receives across
  /// lanes.
  struct RecvNode {
    PostedRecvPtr recv;
    std::uint64_t ord = 0;
    RecvNode* next = nullptr;
  };
  struct RecvList {
    RecvNode* head = nullptr;
    RecvNode* tail = nullptr;
  };

  /// Pair up msg and recv: compute times, copy payload, flag completion.
  /// Caller holds the mutex.
  void complete_match(const MessagePtr& msg, const PostedRecvPtr& recv) const;
  void check_abort() const;

  static std::uint64_t pair_key(int src, int tag) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  /// Whether a message is visible to wildcard-tag receives and probes.
  static bool user_tag(int tag) noexcept { return tag < kInternalTagBase; }

  // Helpers below run with the mutex held.
  const Message* probe_head(int src, int tag) const;
  /// The index lists `m` is linked into, by index (nullptr: not on it).
  std::array<MsgList*, 4> lists_of(const Message& m);
  void link_msg(const MessagePtr& msg);
  void unlink_msg(MsgNode* n);
  MsgNode* alloc_msg_node();
  void free_msg_node(MsgNode* n);
  RecvNode* alloc_recv_node();
  void free_recv_node(RecvNode* n);

  /// Accounted footprint of a queued unexpected message.
  static std::size_t queued_bytes(const Message& m) noexcept {
    return sizeof(Message) + m.payload.size();
  }

  std::mutex mu_;
  std::unordered_map<std::uint64_t, MsgList> um_by_pair_;
  std::unordered_map<int, MsgList> um_by_src_;
  std::unordered_map<int, MsgList> um_by_tag_;
  MsgList um_all_;  ///< arrival order of user-tag messages
  std::unordered_map<std::uint64_t, RecvList> pr_by_pair_;
  std::unordered_map<int, RecvList> pr_by_src_;  ///< (src, ANY)
  std::unordered_map<int, RecvList> pr_by_tag_;  ///< (ANY, tag)
  RecvList pr_any_;                              ///< (ANY, ANY)
  MsgNode* msg_free_ = nullptr;   ///< node freelist (allocation reuse)
  RecvNode* recv_free_ = nullptr;
  std::size_t um_count_ = 0;  ///< unmatched queued messages
  std::size_t pr_count_ = 0;  ///< unmatched posted receives
  std::uint64_t pr_ord_ = 0;  ///< next post ordinal

  const std::atomic<bool>* abort_;
  double rendezvous_extra_;
  obs::MemAccount::RankMem* mem_;
  WaitPoint wp_;
};

}  // namespace mpisect::mpisim
