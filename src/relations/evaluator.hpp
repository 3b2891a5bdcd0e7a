// RelationEvaluator — the application-facing answer to Problem 4.
//
// Register the nonatomic events the application cares about once; the
// evaluator computes the four cut timestamps of each event's two Defn 2
// proxies (Key Idea 1's one-time cost) into one block per event: C1–C4 of
// L_X, then C1–C4 of U_X, |P| values each. Nothing else is built: a proxy is
// read through its event's own node spans (proxy_end), so a query borrows
// two CutsView from the blocks and every relation query r(X, Y), for r in
// the 32-relation set R, runs the one Theorem 19/20 probe
// (relations/fast.hpp) in its comparison budget. The reference queries
// (holds_naive, the strict fallback) quantify over the same spans, and the
// Defn 3 proxies are built per holds_global_proxies call.
//
// Two ways to write the blocks, chosen by whether stamps exist:
//  * built over a Timestamps, registration folds each block from the stored
//    rows (compute_cut_counts);
//  * built over an Execution alone, registration stores the interval and
//    its unwritten block, and the first read of any block seals every
//    stored block at once with seal_cut_blocks: two sweeps over the
//    execution, no stamp table. An interval registered after that folds
//    from the stamps timestamps() builds. Those stamps exist only once a
//    reference query, or a caller of timestamps(), asks for them.
//
// Concurrency model (DESIGN.md §3.6): registration (add_event) is a
// single-threaded setup phase. After it, every const query method is
// thread-safe. The lazy seal and the lazy stamps are each guarded (an
// acquire flag over a mutex, and a once-flag), so concurrent first readers
// are safe; otherwise queries share no mutable state. Cost accounting is
// explicit: each query either writes its QueryCost into a caller-provided
// sink (one per thread; merge with `+=`) or, when no sink is passed, folds
// it into a lock-free shared tally readable via accumulated_cost().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "cuts/ll_relation.hpp"
#include "nonatomic/cut_timestamps.hpp"
#include "relations/fast.hpp"
#include "relations/naive.hpp"
#include "relations/relation.hpp"

namespace syncon {

class RelationEvaluator;

/// Strong handle to an event registered with one specific RelationEvaluator.
/// Carries the owning evaluator's id, so a handle minted by one evaluator
/// cannot be silently used with another (contract violation instead of a
/// wrong answer). Value-semantic, ordered and hashable-by-members; a
/// default-constructed handle is invalid.
class EventHandle {
 public:
  constexpr EventHandle() = default;

  /// Position of the event in its evaluator's registration order.
  constexpr std::size_t index() const { return index_; }
  /// Id of the evaluator that minted the handle (0 for an invalid handle).
  constexpr std::uint64_t evaluator_id() const { return evaluator_id_; }
  constexpr bool valid() const { return evaluator_id_ != 0; }

  friend constexpr bool operator==(const EventHandle&,
                                   const EventHandle&) = default;
  friend constexpr auto operator<=>(const EventHandle&,
                                    const EventHandle&) = default;

 private:
  friend class RelationEvaluator;
  constexpr EventHandle(std::uint64_t evaluator_id, std::size_t index)
      : evaluator_id_(evaluator_id), index_(index) {}

  std::uint64_t evaluator_id_ = 0;
  std::size_t index_ = 0;
};

class RelationEvaluator {
 public:
  /// Handle to a registered nonatomic event.
  using Handle = EventHandle;

  /// Result of an all-relations query (Problem 4 ii). A plain value: the
  /// query allocates nothing.
  struct AllRelationsResult {
    RelationSet holding;
    /// How many of the 32 relations were actually evaluated (the rest were
    /// decided by hierarchy propagation).
    std::size_t evaluated = 0;
    /// Exact cost of this call (Theorem 20 units).
    QueryCost cost;
  };

  /// Both proxies' views of an ordered pair, resolved once so several
  /// probes of the pair skip the handle checks. Borrowed from the
  /// evaluator.
  struct PairViews {
    std::array<CutsView, 2> x;  // indexed by ProxyKind
    std::array<CutsView, 2> y;
  };

  /// Folds each block at registration from `ts`, which must outlive the
  /// evaluator.
  explicit RelationEvaluator(const Timestamps& ts);
  /// Seals the blocks on first read, without stamps; `exec` must outlive
  /// the evaluator.
  explicit RelationEvaluator(const Execution& exec);

  /// The stamps the reference queries read: the ones given, else built
  /// from the execution once, on first use (thread-safe).
  const Timestamps& timestamps() const;

  /// Registers an event and gives it one block (one allocation). With
  /// stamps given, or after a seal, the block is folded now
  /// (O(|N_X| · |P|)); otherwise the first block read seals it. Returns its
  /// handle. NOT thread-safe — registration is the setup phase; queries
  /// become thread-safe once it is done.
  EventHandle add_event(NonatomicEvent event);

  /// Writes every unwritten block, as the first block read does. A no-op
  /// once sealed; thread-safe.
  void seal() const {
    if (!sealed_.load(std::memory_order_acquire)) seal_pending();
  }

  std::size_t event_count() const { return entries_.size(); }
  /// Handle of the i-th registered event (registration order).
  EventHandle handle_at(std::size_t index) const;
  /// Handles of all registered events, in registration order.
  std::vector<EventHandle> handles() const;

  const NonatomicEvent& event(EventHandle h) const;
  /// The Defn 2 proxy, built on each call.
  NonatomicEvent proxy(EventHandle h, ProxyKind kind) const;
  /// The proxy's cut timestamps and node spans as the probe reads them,
  /// borrowed from the evaluator.
  CutsView proxy_cuts(EventHandle h, ProxyKind kind) const;
  PairViews pair_views(EventHandle x, EventHandle y) const;

  /// Problem 4(i): does r(X, Y) hold? Weak (⪯) semantics, Theorem 20 cost.
  /// The cost of the call is added to *cost when given, otherwise to the
  /// shared tally (accumulated_cost()).
  bool holds(const RelationId& r, EventHandle x, EventHandle y,
             QueryCost* cost = nullptr) const;
  /// The same on a pair's resolved views, with the same cost and telemetry.
  bool holds(const RelationId& r, const PairViews& v,
             QueryCost* cost = nullptr) const;

  /// Strict (≺) semantics. When the two proxies share no atomic event the
  /// weak fast path is exact and is used (Theorem 20 cost); otherwise the
  /// evaluator falls back to the |N_X|·|N_Y| proxy quantification, which is
  /// the best known bound for the boundary case (DESIGN.md §3.3).
  bool holds_strict(const RelationId& r, EventHandle x, EventHandle y,
                    QueryCost* cost = nullptr) const;

  /// r(X, Y) under the Defn 3 (global-extremum) proxies, which each call
  /// computes with their cuts (O(|N|² + |N|·|P|) per side). nullopt when
  /// the required proxy does not exist (X or Y has no global extremum).
  std::optional<bool> holds_global_proxies(const RelationId& r, EventHandle x,
                                           EventHandle y,
                                           QueryCost* cost = nullptr) const;

  /// Reference evaluation of the same relation by direct quantification over
  /// the proxy events (|N_X| · |N_Y| causality checks).
  bool holds_naive(const RelationId& r, EventHandle x, EventHandle y,
                   Semantics sem = Semantics::Weak,
                   QueryCost* cost = nullptr) const;

  /// Problem 4(ii): all relations of R that hold between X and Y. The
  /// result carries its own exact QueryCost; additionally the cost goes to
  /// *cost when given, else to the shared tally.
  AllRelationsResult all_holding(EventHandle x, EventHandle y,
                                 QueryCost* cost = nullptr) const;
  /// Same, skipping relations decided by the implication lattice: each
  /// verdict settles its whole implication_closure() row at once.
  AllRelationsResult all_holding_pruned(EventHandle x, EventHandle y,
                                        QueryCost* cost = nullptr) const;

  /// The shared cost tally: every query made without an explicit sink folds
  /// its cost here (lock-free, exact under concurrency).
  QueryCost accumulated_cost() const;
  /// Folds an externally tracked cost into the shared tally (thread-safe);
  /// lets batch drivers that used private sinks keep the tally meaningful.
  void charge(const QueryCost& cost) const { deposit(cost, nullptr); }
  /// Clears the shared tally. Deliberately non-const: resetting is a
  /// bookkeeping mutation, not a query.
  void reset_accumulated_cost();

 private:
  // A registered event and its block: 8·|P| ClockValues, the C1–C4 of L_X
  // then of U_X (PosetCut order), the future cuts' +1 applied. The block
  // never moves, so views into it stay valid.
  struct Entry {
    NonatomicEvent event;
    std::unique_ptr<ClockValue[]> cuts;
  };
  const Entry& entry(EventHandle h) const;
  // view and views read a written block: callers seal() first.
  CutsView view(const Entry& e, ProxyKind kind) const;
  /// Both proxies' views, indexed by ProxyKind.
  std::array<CutsView, 2> views(const Entry& e) const;
  /// Routes a finished call's cost to the sink or the shared tally.
  void deposit(const QueryCost& cost, QueryCost* sink) const;
  /// Seals every stored block with seal_cut_blocks, once.
  void seal_pending() const;

  const Execution* exec_;
  const Timestamps* given_;  // nullptr: stampless
  const std::uint64_t id_;
  const std::size_t width_;  // |P|
  // A deque: registering appends without moving earlier entries, so
  // references from event() stay valid. Before the first seal a stampless
  // evaluator's blocks are all unwritten; after it, all are written.
  std::deque<Entry> entries_;
  // Set once every block is written: at construction with stamps given,
  // else by seal_pending under seal_mutex_ (release; readers acquire).
  mutable std::atomic<bool> sealed_;
  mutable std::mutex seal_mutex_;
  // A stampless evaluator's stamps, built on the first timestamps() call.
  mutable std::once_flag built_once_;
  mutable std::unique_ptr<const Timestamps> built_;
  // Shared tally for sink-less calls. Atomics keep sink-less queries
  // thread-safe; queries with explicit sinks never touch these (no
  // cache-line traffic on the parallel path).
  mutable std::atomic<std::uint64_t> tally_integer_comparisons_{0};
  mutable std::atomic<std::uint64_t> tally_causality_checks_{0};
};

}  // namespace syncon
