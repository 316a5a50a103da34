#include "analysis/races.hpp"

#include "mpisim/message.hpp"

namespace mpisect::analysis {

std::vector<RaceFinding> find_races(const InterpResult& in) {
  std::vector<RaceFinding> out;
  if (in.clocks.empty()) return out;  // no wildcards or no envelopes

  for (std::size_t slot = 0; slot < in.recvs.size(); ++slot) {
    const RecvInfo& r = in.recvs[slot];
    if (!r.completed) continue;
    const bool any_src = r.post_src == mpisim::kAnySource;
    const bool any_tag = r.post_tag == mpisim::kAnyTag;
    if (!any_src && !any_tag) continue;

    RaceFinding finding;
    finding.recv_slot = slot;

    const auto members_it = in.comm_members.find(r.comm);
    if (members_it == in.comm_members.end()) continue;
    for (const int q : members_it->second) {
      const auto chan_it =
          in.channels.find(ChannelKey{r.comm, q, r.rank});
      if (chan_it == in.channels.end()) continue;
      if (!any_src && q != r.post_src) continue;
      // FIFO scan: the first send from q that was still available when r
      // posted is the only one r could have taken from this source.
      for (const SendInfo& s : chan_it->second) {
        if (!mpisim::envelope_matches(r.post_src, r.post_tag, q, s.tag)) {
          continue;
        }
        if (s.matched && s.recv_post_idx == r.post_idx) {
          break;  // the recorded match itself — not an alternate
        }
        // Claimed by a receive this rank posted earlier? Matching is
        // decided at post time, so FIFO moves on to q's next send.
        if (s.matched && s.recv_post_idx < r.post_idx) continue;
        // Concurrency: a send that causally depends on r's completion
        // could never have matched r.
        if (in.happens_before(r.rank, r.wait_idx, q, s.event_idx)) break;
        finding.alternates.push_back(AltSender{
            q, s.seq, s.tag, s.event_idx,
            in.times[static_cast<std::size_t>(q)][s.event_idx].t});
        break;  // only the earliest eligible send per source (FIFO)
      }
    }
    if (!finding.alternates.empty()) out.push_back(std::move(finding));
  }
  return out;
}

}  // namespace mpisect::analysis
