// Compile-level test: the umbrella header is self-contained and the whole
// public API is reachable through it.
#include "syncon.hpp"

#include <gtest/gtest.h>

namespace syncon {
namespace {

TEST(UmbrellaTest, EndToEndThroughTheUmbrellaHeader) {
  ExecutionBuilder b(2);
  const EventId a = b.local(0);
  const MessageToken m = b.send(0);
  const EventId r = b.receive(1, m);
  const Execution exec = b.build();
  const Timestamps ts(exec);
  RelationEvaluator eval(ts);
  const auto hx = eval.add_event(NonatomicEvent(exec, {a}, "X"));
  const auto hy = eval.add_event(NonatomicEvent(exec, {r}, "Y"));
  EXPECT_TRUE(
      eval.holds({Relation::R1, ProxyKind::End, ProxyKind::Begin}, hx, hy));
  const RelationId strongest{Relation::R1, ProxyKind::End, ProxyKind::Begin};
  EXPECT_TRUE(implication_closure()
                  .implied_true[relation_index(strongest)]
                  .contains({Relation::R4, ProxyKind::Begin, ProxyKind::End}));
  EXPECT_TRUE(possibly(ts, [](const Cut& c) { return !c.is_bottom(); }));
}

}  // namespace
}  // namespace syncon
