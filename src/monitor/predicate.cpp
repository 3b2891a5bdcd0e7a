#include "monitor/predicate.hpp"

#include <utility>
#include <vector>

#include "monitor/condition_grammar.hpp"

namespace syncon {

struct SyncCondition::Node {
  enum class Kind { Atom, Not, And, Or } kind;
  RelationId atom{};                  // Kind::Atom
  std::unique_ptr<Node> left, right;  // Not uses left only
};

namespace {

using Node = SyncCondition::Node;

std::unique_ptr<Node> make_atom(RelationId id) {
  auto n = std::make_unique<Node>();
  n->kind = Node::Kind::Atom;
  n->atom = id;
  return n;
}

class Parser : public ConditionGrammar<Node, Parser> {
 public:
  using ConditionGrammar::ConditionGrammar;

  std::unique_ptr<Node> parse_atom() {
    const Relation rel = parse_relation();
    // Optional proxy pair; default (U, L).
    ProxyKind px = ProxyKind::End;
    ProxyKind py = ProxyKind::Begin;
    const std::size_t saved = pos_;
    if (consume('(')) {
      if (!parse_proxy(px)) {
        // Not a proxy list — could be a parenthesized expression after an
        // implicit atom (e.g. "R1 & (…)"); rewind.
        pos_ = saved;
      } else {
        if (!consume(',')) fail("expected ',' between proxies");
        if (!parse_proxy(py)) fail("expected proxy L or U");
        if (!consume(')')) fail("expected ')' after proxies");
      }
    }
    return make_atom(RelationId{rel, px, py});
  }

 private:
  bool parse_proxy(ProxyKind& out) {
    skip_ws();
    if (pos_ < text_.size() && (text_[pos_] == 'L' || text_[pos_] == 'U')) {
      out = text_[pos_] == 'L' ? ProxyKind::Begin : ProxyKind::End;
      ++pos_;
      return true;
    }
    return false;
  }
};

// Every atom probes the pair's views, resolved once per pair.
bool evaluate_node(const Node& node, const RelationEvaluator& eval,
                   const RelationEvaluator::PairViews& v, QueryCost* cost) {
  switch (node.kind) {
    case Node::Kind::Atom:
      return eval.holds(node.atom, v, cost);
    case Node::Kind::Not:
      return !evaluate_node(*node.left, eval, v, cost);
    case Node::Kind::And:
      return evaluate_node(*node.left, eval, v, cost) &&
             evaluate_node(*node.right, eval, v, cost);
    case Node::Kind::Or:
      return evaluate_node(*node.left, eval, v, cost) ||
             evaluate_node(*node.right, eval, v, cost);
  }
  return false;
}

void render_node(const Node& node, std::string& out) {
  switch (node.kind) {
    case Node::Kind::Atom: {
      out += to_string(node.atom.relation);
      out += '(';
      out += to_string(node.atom.proxy_x);
      out += ',';
      out += to_string(node.atom.proxy_y);
      out += ')';
      return;
    }
    case Node::Kind::Not:
      out += '!';
      render_node(*node.left, out);
      return;
    case Node::Kind::And:
    case Node::Kind::Or:
      out += '(';
      render_node(*node.left, out);
      out += node.kind == Node::Kind::And ? " & " : " | ";
      render_node(*node.right, out);
      out += ')';
      return;
  }
}

}  // namespace

SyncCondition::SyncCondition(std::unique_ptr<Node> root)
    : root_(std::move(root)) {}
SyncCondition::SyncCondition(SyncCondition&&) noexcept = default;
SyncCondition& SyncCondition::operator=(SyncCondition&&) noexcept = default;
SyncCondition::~SyncCondition() = default;

SyncCondition SyncCondition::parse(std::string_view text) {
  return SyncCondition(Parser(text).run());
}

SyncCondition SyncCondition::atom(RelationId id) {
  return SyncCondition(make_atom(id));
}

bool SyncCondition::evaluate(const RelationEvaluator& eval, EventHandle x,
                             EventHandle y, QueryCost* cost) const {
  return evaluate_node(*root_, eval, eval.pair_views(x, y), cost);
}

std::string SyncCondition::to_string() const {
  std::string out;
  render_node(*root_, out);
  return out;
}

}  // namespace syncon
