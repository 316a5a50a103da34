// Virtual-time cost rules shared by the live simulator (Channel, Comm) and
// the trace walker behind replay and offline analysis.
//
// Each rule that moves a clock across rank boundaries is written exactly
// once, here, so the three clocks cannot drift apart. The expression order
// is part of the contract: it fixes every rounding, and recorded traces
// replay bit for bit only while it stays as written.
#pragma once

#include <algorithm>

#include "mpisim/netmodel.hpp"

namespace mpisect::mpisim {

/// Completion of a rendezvous transfer: the wire starts once both the send
/// and the matching receive post exist; `extra` is the progress engine's
/// surcharge (ProgressModel::rendezvous_extra).
[[nodiscard]] inline double rendezvous_time(double t_send_start,
                                            double t_post, double wire_cost,
                                            double extra) noexcept {
  return std::max(t_send_start, t_post) + wire_cost + extra;
}

/// Delivery time of a message to a receive posted at `t_post`:
///   eager:       max(t_post, t_avail)
///   rendezvous:  max(t_send_start, t_post) + wire_cost + extra
/// A probe reports the completion of a hypothetical receive posted at the
/// probe, i.e. the same rule with t_post := t_probe.
[[nodiscard]] inline double delivery_time(bool rendezvous, double t_send_start,
                                          double wire_cost, double t_avail,
                                          double t_post,
                                          double extra) noexcept {
  return rendezvous ? rendezvous_time(t_send_start, t_post, wire_cost, extra)
                    : std::max(t_post, t_avail);
}

/// Leave time of a communicator-synchronizing call (split, dup): every
/// member leaves `rounds` fabric latencies after the last entrant.
[[nodiscard]] inline double sync_leave_time(double max_entry, double rounds,
                                            const NetworkModel& net) noexcept {
  return max_entry + rounds * net.inter_node.latency;
}

}  // namespace mpisect::mpisim
