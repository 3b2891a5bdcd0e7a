// A small boolean language over the 32 causality relations, used to state
// application-level synchronization conditions on a pair of nonatomic
// events (X, Y) — e.g. the distributed-predicate specifications of [11].
//
// Grammar:
//   expr  := and ('|' and)*
//   and   := unary ('&' unary)*
//   unary := '!' unary | '(' expr ')' | atom
//   atom  := REL [ '(' PROXY ',' PROXY ')' ]
//   REL   := R1 | R1' | R2 | R2' | R3 | R3' | R4 | R4'
//   PROXY := L | U
// A bare REL defaults to proxies (U, L): "the end of X relates to the
// beginning of Y", the usual reading of interval precedence.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "relations/evaluator.hpp"
#include "relations/relation.hpp"

namespace syncon {

class ConditionParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SyncCondition {
 public:
  /// Parses the textual condition; throws ConditionParseError.
  static SyncCondition parse(std::string_view text);

  /// Convenience: a single-relation condition.
  static SyncCondition atom(RelationId id);

  SyncCondition(SyncCondition&&) noexcept;
  SyncCondition& operator=(SyncCondition&&) noexcept;
  ~SyncCondition();

  /// Evaluates the condition on the ordered pair (x, y) with the fast
  /// (Theorem 20) relation evaluator: the pair's proxy views are resolved
  /// once, and each evaluated atom runs one probe on them. The cost of every
  /// atom goes to *cost when given (one sink per thread makes this
  /// thread-safe), otherwise to the evaluator's shared tally.
  bool evaluate(const RelationEvaluator& eval, EventHandle x, EventHandle y,
                QueryCost* cost = nullptr) const;

  /// Canonical rendering (fully parenthesized atoms).
  std::string to_string() const;

  struct Node;

 private:
  explicit SyncCondition(std::unique_ptr<Node> root);
  std::unique_ptr<Node> root_;
};

}  // namespace syncon
