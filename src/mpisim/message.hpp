// Message and posted-receive records for the matching engine.
//
// A Message may carry a real payload (Full-fidelity apps) or only a modelled
// byte count (bench sweeps) — the charge/execute decoupling described in
// DESIGN.md. Virtual-time fields record when the send started, when an eager
// message becomes available at the receiver, and (once matched) when the
// transfer completes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mpisect::mpisim {

/// Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// User tags must be in [0, kTagUb); higher values are reserved for the
/// runtime's internal collective algorithms.
inline constexpr int kTagUb = 1 << 20;
inline constexpr int kInternalTagBase = kTagUb;

/// MPI's envelope rule: does a receive (or probe) posted for
/// (post_src, post_tag) accept a message from `src` with `tag`? A wildcard
/// tag never matches collective-internal traffic, which a real MPI keeps
/// in a separate context.
[[nodiscard]] constexpr bool envelope_matches(int post_src, int post_tag,
                                              int src, int tag) noexcept {
  const bool src_ok = post_src == kAnySource || post_src == src;
  const bool tag_ok =
      post_tag == kAnyTag ? tag < kInternalTagBase : post_tag == tag;
  return src_ok && tag_ok;
}

/// Completion record returned by receive operations.
struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;     ///< size of the message that matched
  double t_complete = 0.0;   ///< virtual completion time
  /// Wire sequence number of the matched message on its (comm,src,dst)
  /// edge — the jitter-draw key trace tools need to re-cost the transfer.
  std::uint64_t seq = 0;
};

struct Message {
  int src = 0;               ///< rank in the communicator
  int tag = 0;
  std::uint64_t seq = 0;     ///< per-(src,dst) sequence in this comm
  std::size_t bytes = 0;     ///< modelled size
  std::vector<std::byte> payload;  ///< empty when modelled-only

  double t_send_start = 0.0; ///< sender clock when the wire transfer begins
  double wire_cost = 0.0;    ///< latency + bytes/bw (+ jitter), precomputed
  double t_avail = 0.0;      ///< eager: arrival time at the receiver
  bool rendezvous = false;

  // Injected-fault transport flags (set by the fault engine, consumed by
  // the channel): a lost message is black-holed at deposit; a duplicate
  // copy is suppressed when the retransmit policy dedups.
  bool fault_lost = false;
  bool fault_duplicate = false;

  // Set at match time:
  bool delivered = false;
  double t_deliver = 0.0;
};

struct PostedRecv {
  int src = kAnySource;      ///< requested source (or kAnySource)
  int tag = kAnyTag;         ///< requested tag (or kAnyTag)
  double t_post = 0.0;       ///< receiver clock when the receive was posted
  void* buf = nullptr;       ///< destination buffer (nullptr = discard)
  std::size_t max_bytes = 0;

  // Set at match time:
  bool completed = false;
  bool truncated = false;
  Status status;
};

using MessagePtr = std::shared_ptr<Message>;
using PostedRecvPtr = std::shared_ptr<PostedRecv>;

}  // namespace mpisect::mpisim
