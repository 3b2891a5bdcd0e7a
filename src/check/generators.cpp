#include "check/generators.hpp"

#include <memory>
#include <utility>

#include "sim/interval_picker.hpp"
#include "support/contracts.hpp"

namespace syncon::check {

namespace {

/// Interval shape bounds (see GenLimits).
constexpr std::size_t kMaxIntervalNodes = 6;
constexpr std::size_t kMaxEventsPerNode = 5;

}  // namespace

CheckCase generate_case(std::uint64_t case_seed, const GenLimits& limits) {
  Xoshiro256StarStar rng(case_seed);
  const WorkloadConfig cfg = random_workload_config(rng, limits.workload);
  const Execution exec = generate_execution(cfg);

  IntervalSpec spec;
  spec.node_count = 1 + rng.below(kMaxIntervalNodes);
  spec.max_events_per_node = 1 + rng.below(kMaxEventsPerNode);
  const NonatomicEvent x = random_interval(exec, rng, spec, "X");
  // Y gets its own independently sampled shape.
  spec.node_count = 1 + rng.below(kMaxIntervalNodes);
  spec.max_events_per_node = 1 + rng.below(kMaxEventsPerNode);
  const NonatomicEvent y = random_interval(exec, rng, spec, "Y");

  return case_from_execution(exec, x.events(), y.events());
}

namespace {

// Mirror AST for condition generation, independent of monitor/predicate's
// own representation so the differential pair shares no code with the
// parser it tests.
struct Node {
  enum class Kind { Atom, Not, And, Or } kind = Kind::Atom;
  RelationId atom{};
  std::shared_ptr<Node> left, right;

  std::string render() const {
    switch (kind) {
      case Kind::Atom: {
        std::string s = to_string(atom.relation);
        s += "(";
        s += to_string(atom.proxy_x);
        s += ",";
        s += to_string(atom.proxy_y);
        s += ")";
        return s;
      }
      case Kind::Not: {
        std::string s = "!(";
        s += left->render();
        s += ')';
        return s;
      }
      case Kind::And:
      case Kind::Or: {
        std::string s = "(";
        s += left->render();
        s += kind == Kind::And ? ") & (" : ") | (";
        s += right->render();
        s += ')';
        return s;
      }
    }
    return {};
  }

  bool evaluate(const RelationEvaluator& eval, EventHandle x,
                EventHandle y) const {
    switch (kind) {
      case Kind::Atom:
        return eval.holds(atom, x, y);
      case Kind::Not:
        return !left->evaluate(eval, x, y);
      case Kind::And:
        return left->evaluate(eval, x, y) && right->evaluate(eval, x, y);
      case Kind::Or:
        return left->evaluate(eval, x, y) || right->evaluate(eval, x, y);
    }
    return false;
  }
};

std::shared_ptr<Node> random_node(Xoshiro256StarStar& rng, int depth) {
  auto node = std::make_shared<Node>();
  const std::uint64_t pick = depth <= 0 ? 0 : rng.below(4);
  switch (pick) {
    case 0: {
      node->kind = Node::Kind::Atom;
      const auto ids = all_relation_ids();
      node->atom = ids[rng.below(ids.size())];
      break;
    }
    case 1:
      node->kind = Node::Kind::Not;
      node->left = random_node(rng, depth - 1);
      break;
    case 2:
      node->kind = Node::Kind::And;
      node->left = random_node(rng, depth - 1);
      node->right = random_node(rng, depth - 1);
      break;
    default:
      node->kind = Node::Kind::Or;
      node->left = random_node(rng, depth - 1);
      node->right = random_node(rng, depth - 1);
      break;
  }
  return node;
}

}  // namespace

ConditionCase generate_condition(Xoshiro256StarStar& rng, int max_depth) {
  SYNCON_REQUIRE(max_depth >= 0, "generate_condition: negative depth");
  const std::shared_ptr<Node> root = random_node(rng, max_depth);
  ConditionCase out;
  out.text = root->render();
  out.oracle = [root](const RelationEvaluator& eval, EventHandle x,
                      EventHandle y) { return root->evaluate(eval, x, y); };
  return out;
}

}  // namespace syncon::check
