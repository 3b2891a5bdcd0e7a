// The boolean grammar SyncCondition (monitor/predicate) and GlobalCondition
// (monitor/global_condition) share:
//
//   or     := and ('|' and)*
//   and    := unary ('&' unary)*
//   unary  := '!' unary | '(' or ')' | atom
//
// A condition parser derives from ConditionGrammar<Node, Parser> and defines
// a public parse_atom(), which starts with parse_relation() (R1..R4') and
// reads the rest of its own atom syntax. Node needs a Kind enum with Atom,
// Not, And and Or, and unique_ptr children `left` (all Not uses) and `right`.
#pragma once

#include <cctype>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "monitor/predicate.hpp"
#include "relations/relation.hpp"

namespace syncon {

template <class Node, class Parser>
class ConditionGrammar {
 public:
  explicit ConditionGrammar(std::string_view text) : text_(text) {}

  /// Parses the whole text; throws ConditionParseError.
  std::unique_ptr<Node> run() {
    auto node = parse_or();
    skip_ws();
    if (pos_ != text_.size()) fail("unexpected trailing input");
    return node;
  }

 protected:
  [[noreturn]] void fail(const std::string& message) const {
    throw ConditionParseError(message + " at offset " + std::to_string(pos_) +
                              " in '" + std::string(text_) + "'");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// R1..R4, each optionally primed.
  Relation parse_relation() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != 'R') {
      fail("expected a relation (R1..R4')");
    }
    ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '1' || text_[pos_] > '4') {
      fail("expected a relation number 1..4");
    }
    const char digit = text_[pos_++];
    const bool primed = pos_ < text_.size() && text_[pos_] == '\'';
    if (primed) ++pos_;
    switch (digit) {
      case '1': return primed ? Relation::R1p : Relation::R1;
      case '2': return primed ? Relation::R2p : Relation::R2;
      case '3': return primed ? Relation::R3p : Relation::R3;
      default: return primed ? Relation::R4p : Relation::R4;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;

 private:
  static std::unique_ptr<Node> make(typename Node::Kind kind,
                                    std::unique_ptr<Node> left,
                                    std::unique_ptr<Node> right = nullptr) {
    auto node = std::make_unique<Node>();
    node->kind = kind;
    node->left = std::move(left);
    node->right = std::move(right);
    return node;
  }

  std::unique_ptr<Node> parse_or() {
    auto lhs = parse_and();
    while (consume('|')) {
      lhs = make(Node::Kind::Or, std::move(lhs), parse_and());
    }
    return lhs;
  }

  std::unique_ptr<Node> parse_and() {
    auto lhs = parse_unary();
    while (consume('&')) {
      lhs = make(Node::Kind::And, std::move(lhs), parse_unary());
    }
    return lhs;
  }

  std::unique_ptr<Node> parse_unary() {
    if (consume('!')) return make(Node::Kind::Not, parse_unary());
    if (consume('(')) {
      auto inner = parse_or();
      if (!consume(')')) fail("expected ')'");
      return inner;
    }
    return static_cast<Parser*>(this)->parse_atom();
  }
};

}  // namespace syncon
