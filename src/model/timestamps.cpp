#include "model/timestamps.hpp"

#include <algorithm>
#include <numeric>

#include "obs/span.hpp"

namespace syncon {

VectorClock StampView::dense() const {
  VectorClock c(std::vector<ClockValue>(row_.begin(), row_.end()));
  c.set(owner_, own_);
  return c;
}

bool operator==(const StampView& v, const VectorClock& c) {
  if (v.size() != c.size()) return false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (v.at(i) != c.at(i)) return false;
  }
  return true;
}

bool operator==(const StampView& a, const StampView& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.at(i) != b.at(i)) return false;
  }
  return true;
}

Timestamps::Timestamps(const Execution& exec)
    : exec_(&exec), width_(exec.process_count()) {
  SYNCON_SPAN("model/stamp");
  const std::size_t n = exec.total_real_count();
  const std::size_t w = width_;
  const auto& order = exec.topological_order();
  const auto& messages = exec.messages();

  // Each event's message receivers as a CSR fan-out: the receivers of the
  // event at seq are receivers[fanout[seq]..fanout[seq+1]). Messages come
  // grouped by receive event, in creation order, which counts the receives
  // on the way and lets the forward pass walk them with one cursor.
  std::vector<std::uint32_t> fanout(n + 1, 0);
  for (const Message& m : messages) ++fanout[exec.topological_index(m.source)];
  forward_rows_ = 1;
  for (std::size_t k = 0; k < messages.size(); ++k) {
    if (k == 0 || messages[k].target != messages[k - 1].target) {
      ++forward_rows_;
    }
  }
  future_rows_ = 1 + n - static_cast<std::size_t>(std::count(
                             fanout.begin(), fanout.end() - 1, 0u));
  std::partial_sum(fanout.begin(), fanout.end(), fanout.begin());
  std::vector<std::uint32_t> receivers(messages.size());
  for (const Message& m : messages) {
    receivers[--fanout[exec.topological_index(m.source)]] =
        exec.topological_index(m.target);
  }
  // The row each process's latest visited event reads.
  std::vector<std::uint32_t> latest(w, 0);

  // Forward pass, in creation order (topological for ≺). An event without
  // incoming messages shares its predecessor's row, or the all-ones floor at
  // index 1 (⊥_i ≺ e for every process i, the paper's axiom). A receive
  // joins that row with each source's view into a new row: the source's own
  // component comes from its index, because its row's slot is stale unless
  // the source made the row itself (stale slots only ever lag).
  forward_.reset(new ClockValue[forward_rows_ * w]);
  std::fill_n(forward_.get(), w, ClockValue{1});
  forward_row_.resize(n);
  std::uint32_t next = 1;
  std::size_t msg = 0;
  for (std::size_t seq = 0; seq < n; ++seq) {
    const EventId e = order[seq];
    std::uint32_t& current = latest[e.process];
    if (msg == messages.size() || messages[msg].target != e) {
      forward_row_[seq] = current;
      continue;
    }
    ClockValue* row = forward_.get() + next * w;
    const ClockValue* base = forward_.get() + current * w;
    for (; msg < messages.size() && messages[msg].target == e; ++msg) {
      const EventId src = messages[msg].source;
      const ClockValue* s =
          forward_.get() + forward_row_[exec.topological_index(src)] * w;
      std::transform(base, base + w, s, row, [](ClockValue a, ClockValue b) {
        return std::max(a, b);
      });
      base = row;
      row[src.process] = std::max(row[src.process], src.index + 1);
    }
    // Every joined clock is causally before e, so none knows e itself.
    SYNCON_ASSERT(row[e.process] <= e.index,
                  "a joined clock must not know the receiving event");
    row[e.process] = e.index + 1;
    current = forward_row_[seq] = next++;
  }
  SYNCON_ASSERT(msg == messages.size(), "messages out of creation order");

  // Backward pass, the mirror image. An event without receivers shares its
  // successor's row, or the ceiling (e ≺ ⊤_i, so F(e)[i] <= index(⊤_i)) for
  // a process's last event. A send meets that row with each receiver's view
  // into a new row, the receiver's own component again from its index
  // (stale slots only ever lead).
  future_.reset(new ClockValue[future_rows_ * w]);
  for (std::size_t i = 0; i < w; ++i) {
    future_[i] = exec.real_count(static_cast<ProcessId>(i)) + 1;
  }
  future_row_.resize(n);
  std::fill(latest.begin(), latest.end(), 0u);
  next = 1;
  for (std::size_t seq = n; seq-- > 0;) {
    const EventId e = order[seq];
    std::uint32_t& current = latest[e.process];
    if (fanout[seq] == fanout[seq + 1]) {
      future_row_[seq] = current;
      continue;
    }
    ClockValue* row = future_.get() + next * w;
    const ClockValue* base = future_.get() + current * w;
    for (std::uint32_t k = fanout[seq]; k < fanout[seq + 1]; ++k) {
      const EventId r = order[receivers[k]];
      const ClockValue* s = future_.get() + future_row_[receivers[k]] * w;
      std::transform(base, base + w, s, row, [](ClockValue a, ClockValue b) {
        return std::min(a, b);
      });
      base = row;
      row[r.process] = std::min(row[r.process], r.index);
    }
    row[e.process] = e.index;  // e itself is the earliest event ⪰ e
    current = future_row_[seq] = next++;
  }
}

StampView Timestamps::forward_ref(EventId e) const {
  SYNCON_REQUIRE(exec_->is_real(e), "forward_ref requires a real event");
  const std::size_t r = forward_row_[exec_->topological_index(e)];
  return StampView({forward_.get() + r * width_, width_}, e.process,
                   e.index + 1);
}

StampView Timestamps::future_start_ref(EventId e) const {
  SYNCON_REQUIRE(exec_->is_real(e), "future_start_ref requires a real event");
  const std::size_t r = future_row_[exec_->topological_index(e)];
  return StampView({future_.get() + r * width_, width_}, e.process, e.index);
}

VectorClock Timestamps::forward(EventId e) const {
  SYNCON_REQUIRE(exec_->valid_event(e), "forward() of invalid event");
  if (exec_->is_initial(e)) {
    VectorClock t(width_, 0);
    t.set(e.process, 1);
    return t;
  }
  if (exec_->is_final(e)) {
    VectorClock t(width_, 0);
    for (std::size_t i = 0; i < width_; ++i) {
      t.set(i, exec_->real_count(static_cast<ProcessId>(i)) + 1);
    }
    t.set(e.process, e.index + 1);  // = n_p + 2: includes ⊤_p itself
    return t;
  }
  return forward_ref(e).dense();
}

VectorClock Timestamps::future_start(EventId e) const {
  SYNCON_REQUIRE(exec_->valid_event(e), "future_start() of invalid event");
  if (exec_->is_initial(e)) {
    // ⊥_p ≺ every non-dummy event and every ⊤_i; earliest on p is itself.
    VectorClock f(width_, 1);
    f.set(e.process, 0);
    return f;
  }
  if (exec_->is_final(e)) {
    // Nothing follows ⊤_p except itself; sentinel total_count elsewhere.
    VectorClock f(width_, 0);
    for (std::size_t i = 0; i < width_; ++i) {
      f.set(i, exec_->total_count(static_cast<ProcessId>(i)));
    }
    f.set(e.process, e.index);
    return f;
  }
  return future_start_ref(e).dense();
}

VectorClock Timestamps::reverse(EventId e) const {
  const VectorClock f = future_start(e);
  VectorClock r(width_, 0);
  for (std::size_t i = 0; i < width_; ++i) {
    r.set(i, exec_->total_count(static_cast<ProcessId>(i)) - f.at(i));
  }
  return r;
}

VectorClock Timestamps::future_cut_counts(EventId e) const {
  VectorClock f = future_start(e);
  for (std::size_t i = 0; i < f.size(); ++i) f.set(i, f.at(i) + 1);
  return f;
}

bool Timestamps::leq(EventId a, EventId b) const {
  SYNCON_REQUIRE(exec_->valid_event(a) && exec_->valid_event(b),
                 "leq() of invalid event");
  if (a == b) return true;
  if (exec_->is_initial(a)) {
    // ⊥_i precedes everything except the other initial events.
    return !(exec_->is_initial(b) && b.process != a.process);
  }
  if (exec_->is_final(a)) return false;  // nothing follows a final event
  if (exec_->is_initial(b)) return false;
  if (exec_->is_final(b)) return true;  // every non-dummy event precedes ⊤_j
  // Both real: a ⪯ b iff b knows at least index(a)+1 events of a's process.
  return a.index + 1 <= forward_ref(b).at(a.process);
}

}  // namespace syncon
