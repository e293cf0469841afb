// The chain-Datalog <-> CFG correspondence (Proposition 5.2).
//
// IDB predicates map to nonterminals, EDB predicates to terminals, chain
// rules to productions (body predicate sequence = rhs), the target IDB to
// the start symbol. Left-linear programs (all recursive rules of shape
// T(x,y) :- T'(x,z), a(z,y)...) correspond to regular grammars / RPQs; these
// convert further to an NFA.
#ifndef DLCIRC_LANG_CHAIN_DATALOG_H_
#define DLCIRC_LANG_CHAIN_DATALOG_H_

#include "src/datalog/ast.h"
#include "src/lang/cfg.h"
#include "src/lang/dfa.h"
#include "src/util/result.h"

namespace dlcirc {

/// Program -> CFG. Fails when the program is not basic chain. The CFG's
/// terminal interner reuses the program's EDB predicate names; nonterminals
/// the IDB names.
Result<Cfg> ChainProgramToCfg(const Program& program);

/// CFG -> basic chain Datalog program. Nonterminal A becomes binary IDB A,
/// terminal a becomes binary EDB a; production A -> s1...sk becomes
/// A(x,y) :- s1(x,z1), ..., sk(z_{k-1},y). The start symbol becomes @target.
/// Names are sanitized to valid identifiers if needed.
Program CfgToChainProgram(const Cfg& cfg);

/// True iff every recursive rule is left-linear: the (single) IDB body atom
/// is leftmost (Prop 5.2's regular case).
bool IsLeftLinearChain(const Program& program);

/// Left-linear chain program -> NFA over the EDB label alphabet: production
/// A -> B a gives transition B --a--> A; A -> a gives q0 --a--> A; accept =
/// {target}. Labels are indexed by the order EDB predicates first appear;
/// `label_preds` returns that order. Fails when not left-linear chain.
struct ChainNfa {
  Nfa nfa;
  std::vector<std::string> label_preds;  ///< label id -> EDB predicate name
  /// Program predicate id -> the NFA state representing that IDB predicate
  /// (the state whose q0-to-state path language is L_A); kNoState for EDB
  /// predicates and for the fresh states threading multi-terminal bodies.
  /// Re-targeting `accept` to {pred_state[A]} yields an NFA for L_A — how
  /// the dichotomy analysis decides per-predicate finiteness (Theorem 5.9).
  static constexpr uint32_t kNoState = 0xffffffffu;
  std::vector<uint32_t> pred_state;
};
Result<ChainNfa> LeftLinearChainToNfa(const Program& program);

}  // namespace dlcirc

#endif  // DLCIRC_LANG_CHAIN_DATALOG_H_
