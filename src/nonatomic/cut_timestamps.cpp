#include "nonatomic/cut_timestamps.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "support/contracts.hpp"

namespace syncon {

namespace {

// Folds the stored stamps of two events on one process into a running meet
// (of `lo`) and join (of `hi`) of |P| components: the row-wide min and max,
// then the owner's components, which are stale in a shared row, from the
// views. The first pair is copied.
void fold(ClockValue* meet, ClockValue* join, const StampView& lo,
          const StampView& hi, bool first) {
  const ClockValue* a = lo.row().data();
  const ClockValue* b = hi.row().data();
  const std::size_t n = lo.size();
  const ProcessId owner = lo.owner();  // == hi.owner()
  const ClockValue own_lo = first ? lo.own() : std::min(meet[owner], lo.own());
  const ClockValue own_hi = first ? hi.own() : std::max(join[owner], hi.own());
  if (first) {
    std::copy(a, a + n, meet);
    std::copy(b, b + n, join);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      meet[i] = std::min(meet[i], a[i]);
      join[i] = std::max(join[i], b[i]);
    }
  }
  meet[owner] = own_lo;
  join[owner] = own_hi;
}

// Clocks in flight across a sweep's messages, |P| values per slot, each
// with a word beside it: the joins still to read the slot, or the next free
// slot while it is free. It starts with room for |P| clocks, as many as the
// running clocks (offline_trace keeps at most 167 of 256 in flight), and
// doubles when the free list runs dry, so it allocates per doubling, never
// per message.
class ClockPool {
 public:
  explicit ClockPool(std::size_t width) : width_(width) {
    grow(std::max<std::size_t>(width, 1));
  }

  // A free slot that `readers` joins will read.
  std::uint32_t acquire(std::uint32_t readers) {
    if (free_ == kNone) grow(words_.size());
    const std::uint32_t s = free_;
    free_ = words_[s];
    words_[s] = readers;
    return s;
  }
  ClockValue* clock(std::uint32_t s) { return clocks_.data() + s * width_; }
  // One join has read slot s; the last one frees it.
  void release(std::uint32_t s) {
    if (--words_[s] == 0) {
      words_[s] = free_;
      free_ = s;
    }
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  void grow(std::size_t more) {
    const std::size_t first = words_.size();
    words_.resize(first + more);
    clocks_.resize(words_.size() * width_);
    for (std::size_t s = words_.size(); s-- > first;) {
      words_[s] = free_;
      free_ = static_cast<std::uint32_t>(s);
    }
  }

  std::size_t width_;
  std::uint32_t free_ = kNone;
  std::vector<std::uint32_t> words_;
  std::vector<ClockValue> clocks_;
};

}  // namespace

void seal_cut_blocks(const Execution& exec, std::span<const CutBlock> blocks) {
  if (blocks.empty()) return;
  const std::size_t n = exec.total_real_count();
  const std::size_t w = exec.process_count();
  const std::vector<EventId>& order = exec.topological_order();
  const std::vector<Message>& messages = exec.messages();

  // Each event's sent messages as a CSR fan-out: the messages of the event
  // at seq are sent[fanout[seq]..fanout[seq+1]). Both CSR indexes count per
  // seq and prefix-sum, so seq's entries end at offsets[seq]; filling each
  // at --offsets[seq] leaves them starting there.
  std::vector<std::uint32_t> fanout(n + 1, 0);
  for (const Message& m : messages) ++fanout[exec.topological_index(m.source)];
  std::partial_sum(fanout.begin(), fanout.end(), fanout.begin());
  std::vector<std::uint32_t> sent(messages.size());
  for (std::size_t k = messages.size(); k-- > 0;) {
    sent[--fanout[exec.topological_index(messages[k].source)]] =
        static_cast<std::uint32_t>(k);
  }

  // The block halves each event's final clock folds into, as a CSR over
  // seq: half 2b + k is block b's proxy k (0 = L_X, 1 = U_X), listed at each
  // node's least (L_X) or greatest (U_X) member. Meets start at the top and
  // joins at zero, so every fold is a plain min or max.
  std::vector<std::uint32_t> folds(n + 1, 0);
  const auto for_each_member = [&](const auto& visit) {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      SYNCON_REQUIRE(!blocks[b].spans.empty(),
                     "a nonatomic event has at least one node");
      for (const NonatomicEvent::NodeSpan& s : blocks[b].spans) {
        for (const ProxyKind kind : {ProxyKind::Begin, ProxyKind::End}) {
          const EventId e{s.process, s.*proxy_end(kind)};
          visit(exec.topological_index(e),
                static_cast<std::uint32_t>(2 * b + (kind == ProxyKind::End)));
        }
      }
    }
  };
  std::size_t members = 0;
  for_each_member([&](std::uint32_t seq, std::uint32_t) {
    ++folds[seq];
    ++members;
  });
  std::partial_sum(folds.begin(), folds.end(), folds.begin());
  std::vector<std::uint32_t> halves(members);
  for_each_member([&](std::uint32_t seq, std::uint32_t half) {
    halves[--folds[seq]] = half;
  });
  constexpr ClockValue kTop = std::numeric_limits<ClockValue>::max();
  for (const CutBlock& b : blocks) {
    for (ClockValue* c : {b.cuts, b.cuts + 4 * w}) {
      std::fill_n(c, w, kTop);
      std::fill_n(c + w, w, ClockValue{0});
      std::fill_n(c + 2 * w, w, kTop);
      std::fill_n(c + 3 * w, w, ClockValue{0});
    }
  }
  // Cut k (0..3, PosetCut order) of a listed block half.
  const auto cut = [&](std::uint32_t half, std::size_t k) {
    return blocks[half / 2].cuts + (half % 2 * 4 + k) * w;
  };

  // Each process's running clock, T (forward) or F (backward) of its latest
  // visited event; `slot` holds each message's clock in the pool.
  std::vector<ClockValue> running(w * w, ClockValue{1});
  ClockPool pool(w);
  std::vector<std::uint32_t> slot(messages.size());

  // Forward, in creation order (topological for ≺): T(e) joins its
  // predecessor's clock (the all-ones floor for a first event, ⊥_i ≺ e) with
  // each source's T, which the send left in the pool, and pins the owner to
  // index + 1. A send leaves its clock for its receivers; C1 and C2 meet and
  // join T of the listed members.
  std::size_t msg = 0;
  for (std::size_t seq = 0; seq < n; ++seq) {
    const EventId e = order[seq];
    ClockValue* c = running.data() + e.process * w;
    for (; msg < messages.size() && messages[msg].target == e; ++msg) {
      const ClockValue* s = pool.clock(slot[msg]);
      for (std::size_t i = 0; i < w; ++i) c[i] = std::max(c[i], s[i]);
      pool.release(slot[msg]);
    }
    // Every joined clock is causally before e, so none knows e itself.
    SYNCON_ASSERT(c[e.process] <= e.index,
                  "a joined clock must not know the receiving event");
    c[e.process] = e.index + 1;
    if (fanout[seq] != fanout[seq + 1]) {
      const std::uint32_t s = pool.acquire(fanout[seq + 1] - fanout[seq]);
      std::copy_n(c, w, pool.clock(s));
      for (std::uint32_t k = fanout[seq]; k < fanout[seq + 1]; ++k) {
        slot[sent[k]] = s;
      }
    }
    for (std::uint32_t k = folds[seq]; k < folds[seq + 1]; ++k) {
      ClockValue* meet = cut(halves[k], 0);
      ClockValue* join = cut(halves[k], 1);
      for (std::size_t i = 0; i < w; ++i) {
        meet[i] = std::min(meet[i], c[i]);
        join[i] = std::max(join[i], c[i]);
      }
    }
  }
  SYNCON_ASSERT(msg == messages.size(), "messages out of creation order");

  // Backward, the mirror image: F(e) meets its successor's clock (the
  // ceiling n_i + 1 for a last event, e ≺ ⊤_i) with each receiver's F, which
  // the receive left in the pool, and pins the owner to index. A receive
  // leaves its clock for its sources; C3 and C4 meet and join F + 1 of the
  // listed members.
  for (std::size_t p = 0; p < w; ++p) {
    for (std::size_t i = 0; i < w; ++i) {
      running[p * w + i] = exec.real_count(static_cast<ProcessId>(i)) + 1;
    }
  }
  for (std::size_t seq = n; seq-- > 0;) {
    const EventId e = order[seq];
    ClockValue* c = running.data() + e.process * w;
    for (std::uint32_t k = fanout[seq]; k < fanout[seq + 1]; ++k) {
      const ClockValue* r = pool.clock(slot[sent[k]]);
      for (std::size_t i = 0; i < w; ++i) c[i] = std::min(c[i], r[i]);
      pool.release(slot[sent[k]]);
    }
    c[e.process] = e.index;  // e itself is the earliest event ⪰ e
    std::size_t first = msg;
    while (first > 0 && messages[first - 1].target == e) --first;
    if (first != msg) {
      const std::uint32_t s =
          pool.acquire(static_cast<std::uint32_t>(msg - first));
      std::copy_n(c, w, pool.clock(s));
      for (std::size_t k = first; k < msg; ++k) slot[k] = s;
      msg = first;
    }
    for (std::uint32_t k = folds[seq]; k < folds[seq + 1]; ++k) {
      ClockValue* meet = cut(halves[k], 2);
      ClockValue* join = cut(halves[k], 3);
      for (std::size_t i = 0; i < w; ++i) {
        meet[i] = std::min(meet[i], c[i] + 1);
        join[i] = std::max(join[i], c[i] + 1);
      }
    }
  }
}

const char* to_string(PosetCut which) {
  switch (which) {
    case PosetCut::IntersectPast: return "C1 (∩⇓X)";
    case PosetCut::UnionPast: return "C2 (∪⇓X)";
    case PosetCut::IntersectFuture: return "C3 (∩⇑X)";
    case PosetCut::UnionFuture: return "C4 (∪⇑X)";
  }
  return "?";
}

VectorClock poset_cut_counts_reference(const Timestamps& ts,
                                       const NonatomicEvent& x,
                                       PosetCut which) {
  SYNCON_REQUIRE(&ts.execution() == &x.execution(),
                 "timestamps belong to a different execution");
  const bool past = which == PosetCut::IntersectPast ||
                    which == PosetCut::UnionPast;
  const bool is_min = which == PosetCut::IntersectPast ||
                      which == PosetCut::IntersectFuture;
  VectorClock acc;
  bool first = true;
  for (const EventId& e : x.events()) {
    VectorClock c = past ? ts.past_cut_counts(e) : ts.future_cut_counts(e);
    if (first) {
      acc = std::move(c);
      first = false;
    } else if (is_min) {
      acc.merge_min(c);
    } else {
      acc.merge_max(c);
    }
  }
  return acc;
}

void compute_cut_counts(const Timestamps& ts,
                        std::span<const NonatomicEvent::NodeSpan> spans,
                        EventIndex NonatomicEvent::NodeSpan::*least,
                        EventIndex NonatomicEvent::NodeSpan::*greatest,
                        const std::array<ClockValue*, 4>& out) {
  SYNCON_REQUIRE(!spans.empty(), "a nonatomic event has at least one node");
  // Minima over ↓/↑ cuts are attained at the per-node least events and
  // maxima at the per-node greatest events (§2.3), so only extremes are
  // consulted.
  bool first = true;
  for (const NonatomicEvent::NodeSpan& s : spans) {
    const EventId lo{s.process, s.*least};
    const EventId hi{s.process, s.*greatest};
    fold(out[0], out[1], ts.forward_ref(lo), ts.forward_ref(hi), first);
    fold(out[2], out[3], ts.future_start_ref(lo), ts.future_start_ref(hi),
         first);
    first = false;
  }
  // The future cuts fold F(x); the e↑ counts are F(x) + 1 per component,
  // and the uniform +1 commutes with min/max — apply it once at the end.
  const std::size_t width = ts.execution().process_count();
  for (ClockValue* f : {out[2], out[3]}) {
    for (std::size_t i = 0; i < width; ++i) ++f[i];
  }
}

EventCuts::EventCuts(const Timestamps& ts, const NonatomicEvent& x)
    : ts_(&ts), event_(&x) {
  SYNCON_REQUIRE(&ts.execution() == &x.execution(),
                 "timestamps belong to a different execution");
  std::array<std::vector<ClockValue>, 4> counts;
  for (std::vector<ClockValue>& c : counts) {
    c.resize(ts.execution().process_count());
  }
  compute_cut_counts(ts, x.spans(), &NonatomicEvent::NodeSpan::least,
                     &NonatomicEvent::NodeSpan::greatest,
                     {counts[0].data(), counts[1].data(), counts[2].data(),
                      counts[3].data()});
  for (std::size_t k = 0; k < counts.size(); ++k) {
    c_[k] = VectorClock(std::move(counts[k]));
  }
}

}  // namespace syncon
