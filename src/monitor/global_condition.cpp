#include "monitor/global_condition.hpp"

#include <algorithm>
#include <cctype>

#include "monitor/condition_grammar.hpp"

namespace syncon {

struct GlobalCondition::Node {
  enum class Kind { Atom, Not, And, Or } kind;
  RelationId atom{};       // Kind::Atom
  std::string x, y;        // Kind::Atom: operand labels
  std::unique_ptr<Node> left, right;
};

namespace {

using Node = GlobalCondition::Node;

class Parser : public ConditionGrammar<Node, Parser> {
 public:
  using ConditionGrammar::ConditionGrammar;

  std::unique_ptr<Node> parse_atom() {
    const Relation rel = parse_relation();
    ProxyKind px = ProxyKind::End;
    ProxyKind py = ProxyKind::Begin;
    if (consume('[')) {
      px = parse_proxy();
      if (!consume(',')) fail("expected ',' between proxies");
      py = parse_proxy();
      if (!consume(']')) fail("expected ']' after proxies");
    }
    if (!consume('(')) fail("expected '(' before operand labels");
    auto node = std::make_unique<Node>();
    node->kind = Node::Kind::Atom;
    node->atom = RelationId{rel, px, py};
    node->x = parse_label();
    if (!consume(',')) fail("expected ',' between operand labels");
    node->y = parse_label();
    if (!consume(')')) fail("expected ')' after operand labels");
    return node;
  }

 private:
  ProxyKind parse_proxy() {
    skip_ws();
    if (pos_ < text_.size() && (text_[pos_] == 'L' || text_[pos_] == 'U')) {
      return text_[pos_++] == 'L' ? ProxyKind::Begin : ProxyKind::End;
    }
    fail("expected proxy L or U");
  }

  std::string parse_label() {
    skip_ws();
    std::string label;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c)) || c == ',' ||
          c == ')' || c == '(') {
        break;
      }
      label += c;
      ++pos_;
    }
    if (label.empty()) fail("expected an interval label");
    return label;
  }
};

bool evaluate_node(const Node& node, const SyncMonitor& monitor) {
  switch (node.kind) {
    case Node::Kind::Atom:
      return monitor.evaluator().holds(node.atom, monitor.handle(node.x),
                                       monitor.handle(node.y));
    case Node::Kind::Not:
      return !evaluate_node(*node.left, monitor);
    case Node::Kind::And:
      return evaluate_node(*node.left, monitor) &&
             evaluate_node(*node.right, monitor);
    case Node::Kind::Or:
      return evaluate_node(*node.left, monitor) ||
             evaluate_node(*node.right, monitor);
  }
  return false;
}

void collect_labels(const Node& node, std::vector<std::string>& out) {
  switch (node.kind) {
    case Node::Kind::Atom:
      out.push_back(node.x);
      out.push_back(node.y);
      return;
    case Node::Kind::Not:
      collect_labels(*node.left, out);
      return;
    case Node::Kind::And:
    case Node::Kind::Or:
      collect_labels(*node.left, out);
      collect_labels(*node.right, out);
      return;
  }
}

void render_node(const Node& node, std::string& out) {
  switch (node.kind) {
    case Node::Kind::Atom:
      out += to_string(node.atom.relation);
      out += '[';
      out += to_string(node.atom.proxy_x);
      out += ',';
      out += to_string(node.atom.proxy_y);
      out += "](";
      out += node.x;
      out += ',';
      out += node.y;
      out += ')';
      return;
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

GlobalCondition::GlobalCondition(std::unique_ptr<Node> root)
    : root_(std::move(root)) {}
GlobalCondition::GlobalCondition(GlobalCondition&&) noexcept = default;
GlobalCondition& GlobalCondition::operator=(GlobalCondition&&) noexcept =
    default;
GlobalCondition::~GlobalCondition() = default;

GlobalCondition GlobalCondition::parse(std::string_view text) {
  return GlobalCondition(Parser(text).run());
}

bool GlobalCondition::evaluate(const SyncMonitor& monitor) const {
  return evaluate_node(*root_, monitor);
}

std::vector<std::string> GlobalCondition::labels() const {
  std::vector<std::string> out;
  collect_labels(*root_, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string GlobalCondition::to_string() const {
  std::string out;
  render_node(*root_, out);
  return out;
}

}  // namespace syncon
