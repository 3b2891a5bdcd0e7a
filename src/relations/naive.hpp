// Reference evaluators for the Table 1 relations: direct evaluation of the
// quantifier formulas. These define the semantics the fast conditions are
// tested against.
//
// Three tiers:
//  * evaluate_oracle      — quantifiers over all of X × Y with BFS-closure
//                           causality (no vector clocks anywhere);
//  * evaluate_naive       — quantifiers over all of X × Y, causality via
//                           timestamps (|X| · |Y| causality checks);
//  * evaluate_proxy_naive — quantifiers over the per-node extreme events
//                           only (|N_X| · |N_Y| causality checks — the
//                           pre-paper state of the art the paper improves).
#pragma once

#include "cuts/ll_relation.hpp"
#include "model/reachability.hpp"
#include "model/timestamps.hpp"
#include "nonatomic/interval.hpp"
#include "relations/relation.hpp"

namespace syncon {

bool evaluate_oracle(Relation r, const NonatomicEvent& x,
                     const NonatomicEvent& y, const ReachabilityOracle& oracle,
                     Semantics sem);

bool evaluate_naive(Relation r, const NonatomicEvent& x,
                    const NonatomicEvent& y, const Timestamps& ts,
                    Semantics sem, QueryCost* counter = nullptr);

bool evaluate_proxy_naive(Relation r, const NonatomicEvent& x,
                          const NonatomicEvent& y, const Timestamps& ts,
                          Semantics sem, QueryCost* counter = nullptr);

/// evaluate_naive(r, x.proxy_per_node(kx), y.proxy_per_node(ky), ts, sem,
/// counter) without building either proxy: the quantifiers run over each
/// node's kept member (proxy_end) of the events' spans, |N_X| · |N_Y|
/// causality checks and no allocation.
bool evaluate_naive(Relation r, const NonatomicEvent& x, ProxyKind kx,
                    const NonatomicEvent& y, ProxyKind ky,
                    const Timestamps& ts, Semantics sem,
                    QueryCost* counter = nullptr);

}  // namespace syncon
