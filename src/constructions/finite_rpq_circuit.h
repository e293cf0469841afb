// Theorem 5.8: for an RPQ whose regular language L is FINITE, a circuit of
// size O(m) and depth O(log n) computing the provenance polynomial of
// T(s, t) over any semiring.
//
// The paper proves this via a magic-set rewriting to unary IDBs; the
// equivalent executable construction unrolls the graph x DFA product for
// K = (longest accepted word) steps from (s, q0):
//   val_i(q, v) = sum over label-l edges (u,v) and moves q' -l-> q of
//                 val_{i-1}(q', u) (x) x_edge,
// and the output is the sum over i <= K and accepting q of val_i(q, t).
// K and |Q| are constants of the (fixed) query, so the size is O(m) and the
// depth O(K log m) = O(log m) in data complexity.
#ifndef DLCIRC_CONSTRUCTIONS_FINITE_RPQ_CIRCUIT_H_
#define DLCIRC_CONSTRUCTIONS_FINITE_RPQ_CIRCUIT_H_

#include <cstdint>

#include "src/circuit/builder.h"
#include "src/circuit/circuit.h"
#include "src/graph/labeled_graph.h"
#include "src/lang/dfa.h"
#include "src/util/result.h"

namespace dlcirc {

/// Builds the Theorem 5.8 circuit. Fails when L(dfa) is infinite. Inputs
/// are edge-index variables (edge i -> variable edge_vars[i]); the circuit
/// is valid over ANY semiring (finite unrolling, finitely many matched
/// paths) and is built without absorptive rewrites by default.
Result<Circuit> FiniteRpqCircuit(const LabeledGraph& graph,
                                 const std::vector<uint32_t>& edge_vars,
                                 uint32_t num_vars, const Dfa& dfa, uint32_t s,
                                 uint32_t t);

/// The core of the Theorem 5.8 unrolling, exposed for multi-output
/// constructions (the pipeline's finite-RPQ construction builds one circuit
/// covering every IDB fact): unrolls the graph x DFA product from source
/// vertex `s` into `b`, and returns for every vertex t the list of terms
/// whose (+)-sum computes
///   sum over accepted words w and w-labeled paths s -> t
///     of the product of the path's edge variables
/// (each matched path contributes exactly once — the DFA run is unique).
/// Callers PlusN only the vertices they report, so unqueried vertices cost
/// no gates. `in_edges` is graph.InEdgeIndex(), hoisted so one index serves
/// many source unrollings. Requires L(dfa) finite (CHECK) and
/// dfa.num_labels() >= graph labels.
std::vector<std::vector<GateId>> FiniteRpqReachTerms(
    CircuitBuilder& b, const LabeledGraph& graph,
    const std::vector<std::vector<uint32_t>>& in_edges,
    const std::vector<uint32_t>& edge_vars, const Dfa& dfa, uint32_t s);

}  // namespace dlcirc

#endif  // DLCIRC_CONSTRUCTIONS_FINITE_RPQ_CIRCUIT_H_
