#include "src/eval/passes.h"

#include <utility>

namespace dlcirc {
namespace eval {

namespace {

// Rebuilds the output cone of `circuit` through a fresh CircuitBuilder
// configured with `opts`. The builder's Plus/Times re-apply the local
// rewrites its options permit, and its dedup table (when enabled) acts as a
// global CSE over the whole cone. Gates outside the cone are never visited,
// though a visited gate a later rewrite discards stays in the arena. Each
// cone gate maps to at most one new gate, hence the cone can only shrink.
Circuit RebuildCone(const Circuit& circuit, CircuitBuilder::Options opts) {
  const std::vector<Gate>& gates = circuit.gates();
  const std::vector<bool>& cone = circuit.OutputCone();
  CircuitBuilder b(circuit.num_vars(), opts);
  std::vector<GateId> map(gates.size(), 0);
  for (size_t i = 0; i < gates.size(); ++i) {
    if (!cone[i]) continue;
    const Gate& g = gates[i];
    switch (g.kind) {
      case GateKind::kZero:
        map[i] = b.Zero();
        break;
      case GateKind::kOne:
        map[i] = b.One();
        break;
      case GateKind::kInput:
        map[i] = b.Input(g.a);
        break;
      case GateKind::kPlus:
        map[i] = b.Plus(map[g.a], map[g.b]);
        break;
      case GateKind::kTimes:
        map[i] = b.Times(map[g.a], map[g.b]);
        break;
    }
  }
  std::vector<GateId> outputs;
  outputs.reserve(circuit.outputs().size());
  for (GateId o : circuit.outputs()) outputs.push_back(map[o]);
  return b.Build(std::move(outputs));
}

// Builder options applying dedup and every rewrite `options` permit (the
// idempotent rewrites need the dedup view to fire).
CircuitBuilder::Options CanonicalOptions(const PassOptions& options) {
  CircuitBuilder::Options opts;
  opts.plus_idempotent = options.plus_idempotent;
  opts.absorptive = options.absorptive;
  opts.dedup = true;
  return opts;
}

}  // namespace

Circuit CompactCone(const Circuit& circuit, const PassOptions&) {
  // Pure relabeling: keep cone gates in arena order, renumber children and
  // outputs. No rewrites, so it is exactly value- and structure-preserving.
  const std::vector<Gate>& gates = circuit.gates();
  const std::vector<bool>& cone = circuit.OutputCone();
  std::vector<GateId> new_id(gates.size(), 0);
  std::vector<Gate> compact;
  for (size_t i = 0; i < gates.size(); ++i) {
    if (!cone[i]) continue;
    Gate g = gates[i];
    if (g.kind == GateKind::kPlus || g.kind == GateKind::kTimes) {
      g.a = new_id[g.a];
      g.b = new_id[g.b];
    }
    new_id[i] = static_cast<GateId>(compact.size());
    compact.push_back(g);
  }
  std::vector<GateId> outputs;
  outputs.reserve(circuit.outputs().size());
  for (GateId o : circuit.outputs()) outputs.push_back(new_id[o]);
  return Circuit(std::move(compact), std::move(outputs), circuit.num_vars());
}

Circuit FoldConstants(const Circuit& circuit, const PassOptions&) {
  CircuitBuilder::Options opts;
  opts.dedup = false;  // universal identities only; CSE is its own pass
  return RebuildCone(circuit, opts);
}

Circuit GlobalCse(const Circuit& circuit, const PassOptions&) {
  CircuitBuilder::Options opts;
  opts.dedup = true;
  return RebuildCone(circuit, opts);
}

Circuit AbsorbPrune(const Circuit& circuit, const PassOptions& options) {
  if (!options.absorptive && !options.plus_idempotent) {
    return CompactCone(circuit, options);  // nothing sound to apply
  }
  return RebuildCone(circuit, CanonicalOptions(options));
}

PipelineResult OptimizeForEval(const Circuit& circuit,
                               const PassOptions& options,
                               const PassObserver& observer) {
  PipelineResult result;
  auto record = [&](const char* name, const Circuit& before,
                    const Circuit& after) {
    result.stats.push_back({name, before.Size(), after.Size(),
                            before.gates().size(), after.gates().size()});
    if (observer) observer(name, after);
  };
  // One rebuild under every rule stands in for fold, CSE and absorb, each
  // of which is this rebuild under a subset of the rules (see passes.h).
  const Circuit canonical = RebuildCone(circuit, CanonicalOptions(options));
  record("canonicalize", circuit, canonical);
  result.circuit = CompactCone(canonical, options);
  record("compact-cone", canonical, result.circuit);
  return result;
}

}  // namespace eval
}  // namespace dlcirc
