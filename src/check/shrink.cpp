#include "check/shrink.hpp"

#include <algorithm>
#include <utility>

#include "support/contracts.hpp"

namespace syncon::check {

namespace {

/// Full passes over all the axes; the loop also stops at a fixpoint.
constexpr std::size_t kMaxRounds = 12;

class Shrinker {
 public:
  Shrinker(CheckCase best, const CaseProperty& property,
           const ShrinkOptions& options)
      : best_(std::move(best)), property_(property), options_(options) {}

  CheckCase run() {
    bool progress = true;
    while (progress && stats_.rounds < kMaxRounds && !exhausted()) {
      progress = false;
      progress |= shrink_processes();
      progress |= shrink_chains();
      progress |= shrink_messages();
      progress |= shrink_members(/*x_side=*/true);
      progress |= shrink_members(/*x_side=*/false);
      progress |= shrink_compact();
      ++stats_.rounds;
    }
    return best_;
  }

  const ShrinkStats& stats() const { return stats_; }

 private:
  bool exhausted() const {
    return stats_.evaluations >= options_.max_evaluations;
  }

  /// True iff the candidate is well-formed AND still fails the property.
  bool still_fails(const CheckCase& candidate) {
    if (exhausted()) return false;
    if (!candidate.structurally_valid()) return false;
    if (!materialize(candidate)) return false;
    ++stats_.evaluations;
    return !property_(candidate).passed;
  }

  bool accept_if_fails(CheckCase candidate) {
    if (!still_fails(candidate)) return false;
    best_ = std::move(candidate);
    ++stats_.accepted;
    return true;
  }

  // --- axis 1: drop whole processes ----------------------------------------

  static void remap_after_drop(std::vector<EventId>& events, ProcessId gone) {
    std::erase_if(events, [gone](const EventId& e) { return e.process == gone; });
    for (EventId& e : events) {
      if (e.process > gone) --e.process;
    }
  }

  static CheckCase drop_process(const CheckCase& c, ProcessId gone) {
    CheckCase out = c;
    out.events_per_process.erase(out.events_per_process.begin() + gone);
    std::erase_if(out.messages, [gone](const Message& m) {
      return m.source.process == gone || m.target.process == gone;
    });
    for (Message& m : out.messages) {
      if (m.source.process > gone) --m.source.process;
      if (m.target.process > gone) --m.target.process;
    }
    remap_after_drop(out.x_members, gone);
    remap_after_drop(out.y_members, gone);
    return out;
  }

  bool shrink_processes() {
    bool changed = false;
    // Scan high → low so accepted drops do not invalidate lower indices.
    for (ProcessId p = static_cast<ProcessId>(best_.process_count()); p-- > 0;) {
      if (best_.process_count() <= 1) break;
      if (accept_if_fails(drop_process(best_, p))) changed = true;
    }
    return changed;
  }

  // --- axis 2: truncate per-process chains ---------------------------------

  static CheckCase truncate(const CheckCase& c, ProcessId p,
                            EventIndex new_count) {
    CheckCase out = c;
    out.events_per_process[p] = new_count;
    const auto beyond = [p, new_count](const EventId& e) {
      return e.process == p && e.index > new_count;
    };
    std::erase_if(out.messages, [&](const Message& m) {
      return beyond(m.source) || beyond(m.target);
    });
    std::erase_if(out.x_members, beyond);
    std::erase_if(out.y_members, beyond);
    return out;
  }

  bool shrink_chains() {
    bool changed = false;
    for (ProcessId p = 0; p < best_.process_count(); ++p) {
      // Aggressive halving first, then single-step trims.
      while (best_.events_per_process[p] > 0) {
        const EventIndex half = best_.events_per_process[p] / 2;
        if (!accept_if_fails(truncate(best_, p, half))) break;
        changed = true;
      }
      while (best_.events_per_process[p] > 0) {
        const EventIndex one_less = best_.events_per_process[p] - 1;
        if (!accept_if_fails(truncate(best_, p, one_less))) break;
        changed = true;
      }
    }
    return changed;
  }

  // --- axes 3 & 4: chunked ddmin over a sequence ---------------------------

  /// Classic ddmin sweep: try deleting windows of halving size from the
  /// sequence selected by `get`, keeping deletions that preserve failure.
  template <typename Get>
  bool ddmin_sequence(Get get, std::size_t keep_at_least) {
    bool changed = false;
    std::size_t chunk = std::max<std::size_t>(get(best_).size() / 2, 1);
    while (chunk >= 1 && !exhausted()) {
      std::size_t i = 0;
      while (i < get(best_).size()) {
        const std::size_t n = get(best_).size();
        if (n <= keep_at_least) break;
        const std::size_t len = std::min(chunk, n - i);
        if (n - len < keep_at_least) {
          ++i;
          continue;
        }
        CheckCase candidate = best_;
        auto& seq = get(candidate);
        seq.erase(seq.begin() + static_cast<std::ptrdiff_t>(i),
                  seq.begin() + static_cast<std::ptrdiff_t>(i + len));
        if (accept_if_fails(std::move(candidate))) {
          changed = true;  // deleted: same i now names the next window
        } else {
          i += len;
        }
      }
      chunk /= 2;
    }
    return changed;
  }

  bool shrink_messages() {
    return ddmin_sequence(
        [](CheckCase& c) -> std::vector<Message>& { return c.messages; }, 0);
  }

  // --- axis 5: squeeze out unreferenced interior events --------------------
  // Chain truncation cannot pass below the highest member/message index on a
  // process; this axis deletes the filler events BETWEEN references and
  // renumbers, so a member like p:21 can end up as p:1.

  static bool referenced(const CheckCase& c, ProcessId p, EventIndex i) {
    const auto hits = [p, i](const EventId& e) {
      return e.process == p && e.index == i;
    };
    return std::any_of(c.x_members.begin(), c.x_members.end(), hits) ||
           std::any_of(c.y_members.begin(), c.y_members.end(), hits) ||
           std::any_of(c.messages.begin(), c.messages.end(),
                       [&hits](const Message& m) {
                         return hits(m.source) || hits(m.target);
                       });
  }

  /// Removes event (p, i), shifting higher indices on p down by one.
  static CheckCase remove_event(const CheckCase& c, ProcessId p,
                                EventIndex i) {
    CheckCase out = c;
    --out.events_per_process[p];
    const auto shift = [p, i](EventId& e) {
      if (e.process == p && e.index > i) --e.index;
    };
    for (Message& m : out.messages) {
      shift(m.source);
      shift(m.target);
    }
    for (EventId& e : out.x_members) shift(e);
    for (EventId& e : out.y_members) shift(e);
    return out;
  }

  bool shrink_compact() {
    bool changed = false;
    for (ProcessId p = 0; p < best_.process_count(); ++p) {
      // All of p's unreferenced filler at once, then event by event.
      CheckCase bulk = best_;
      for (EventIndex i = best_.events_per_process[p]; i >= 1; --i) {
        if (!referenced(bulk, p, i)) bulk = remove_event(bulk, p, i);
      }
      if (bulk.events_per_process[p] != best_.events_per_process[p] &&
          accept_if_fails(std::move(bulk))) {
        changed = true;
        continue;
      }
      for (EventIndex i = best_.events_per_process[p]; i >= 1; --i) {
        if (referenced(best_, p, i)) continue;
        if (accept_if_fails(remove_event(best_, p, i))) changed = true;
      }
    }
    return changed;
  }

  bool shrink_members(bool x_side) {
    return ddmin_sequence(
        [x_side](CheckCase& c) -> std::vector<EventId>& {
          return x_side ? c.x_members : c.y_members;
        },
        1);
  }

  CheckCase best_;
  const CaseProperty& property_;
  ShrinkOptions options_;
  ShrinkStats stats_;
};

}  // namespace

CheckCase shrink_case(const CheckCase& failing, const CaseProperty& property,
                      ShrinkStats* stats, const ShrinkOptions& options) {
  SYNCON_REQUIRE(failing.structurally_valid() && materialize(failing),
                 "shrink_case: input case must be well-formed");
  SYNCON_REQUIRE(!property(failing).passed,
                 "shrink_case: property must fail on the input case");
  Shrinker shrinker(failing, property, options);
  CheckCase minimized = shrinker.run();
  if (stats) *stats = shrinker.stats();
  return minimized;
}

}  // namespace syncon::check
