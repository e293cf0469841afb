#include "src/circuit/builder.h"

#include <algorithm>

namespace dlcirc {

namespace {
constexpr GateId kNoGate = 0xffffffffu;
constexpr size_t kMinTableSize = 64;

/// Hash of a (kind, a, b) triple: the packed children, offset by the kind,
/// through murmur3's fmix64 finalizer so every input bit reaches the low
/// bits the table masks.
uint64_t GateHash(GateKind kind, uint32_t a, uint32_t b) {
  uint64_t h = (static_cast<uint64_t>(a) << 32 | b) +
               static_cast<uint64_t>(kind) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}
}  // namespace

CircuitBuilder::CircuitBuilder(uint32_t num_vars, Options options)
    : num_vars_(num_vars), options_(options), input_gate_(num_vars, kNoGate) {
  if (options_.absorptive) options_.plus_idempotent = true;
  gates_.push_back(Gate{GateKind::kZero, 0, 0});
  gates_.push_back(Gate{GateKind::kOne, 0, 0});
}

CircuitBuilder CircuitBuilder::ForAbsorptive(uint32_t num_vars) {
  Options o;
  o.absorptive = true;
  o.plus_idempotent = true;
  return CircuitBuilder(num_vars, o);
}

GateId CircuitBuilder::Input(uint32_t var) {
  DLCIRC_CHECK_LT(var, num_vars_);
  if (input_gate_[var] != kNoGate) return input_gate_[var];
  GateId id = static_cast<GateId>(gates_.size());
  gates_.push_back(Gate{GateKind::kInput, var, 0});
  input_gate_[var] = id;
  return id;
}

GateId CircuitBuilder::Emit(GateKind kind, uint32_t a, uint32_t b) {
  const GateId id = static_cast<GateId>(gates_.size());
  if (options_.dedup) {
    if (2 * (table_entries_ + 1) > table_.size()) GrowTable();
    const size_t mask = table_.size() - 1;
    size_t i = GateHash(kind, a, b) & mask;
    for (; table_[i] != kNoGate; i = (i + 1) & mask) {
      const Gate& g = gates_[table_[i]];
      if (g.kind == kind && g.a == a && g.b == b) return table_[i];
    }
    table_[i] = id;
    ++table_entries_;
  }
  gates_.push_back(Gate{kind, a, b});
  return id;
}

void CircuitBuilder::GrowTable() {
  // Every (+)/(x) gate is in the table (dedup is fixed per builder), so the
  // arena, walked in order, is the list to re-insert.
  table_.assign(std::max(kMinTableSize, 2 * table_.size()), kNoGate);
  const size_t mask = table_.size() - 1;
  for (GateId id = 0; id < gates_.size(); ++id) {
    const Gate& g = gates_[id];
    if (g.kind != GateKind::kPlus && g.kind != GateKind::kTimes) continue;
    size_t i = GateHash(g.kind, g.a, g.b) & mask;
    while (table_[i] != kNoGate) i = (i + 1) & mask;
    table_[i] = id;
  }
}

GateId CircuitBuilder::Plus(GateId x, GateId y) {
  DLCIRC_CHECK_LT(x, gates_.size());
  DLCIRC_CHECK_LT(y, gates_.size());
  if (x == kZeroId) return y;
  if (y == kZeroId) return x;
  if (options_.absorptive && (x == kOneId || y == kOneId)) return kOneId;
  if (options_.plus_idempotent && x == y) return x;
  if (x > y) std::swap(x, y);  // commutative normalization
  return Emit(GateKind::kPlus, x, y);
}

GateId CircuitBuilder::Times(GateId x, GateId y) {
  DLCIRC_CHECK_LT(x, gates_.size());
  DLCIRC_CHECK_LT(y, gates_.size());
  if (x == kZeroId || y == kZeroId) return kZeroId;
  if (x == kOneId) return y;
  if (y == kOneId) return x;
  if (x > y) std::swap(x, y);
  return Emit(GateKind::kTimes, x, y);
}

GateId CircuitBuilder::PlusN(std::span<const GateId> xs) {
  if (xs.empty()) return kZeroId;
  std::vector<GateId> level(xs.begin(), xs.end());
  while (level.size() > 1) {
    std::vector<GateId> next;
    next.reserve((level.size() + 1) / 2);
    for (size_t i = 0; i + 1 < level.size(); i += 2) next.push_back(Plus(level[i], level[i + 1]));
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

GateId CircuitBuilder::TimesN(std::span<const GateId> xs) {
  if (xs.empty()) return kOneId;
  std::vector<GateId> level(xs.begin(), xs.end());
  while (level.size() > 1) {
    std::vector<GateId> next;
    next.reserve((level.size() + 1) / 2);
    for (size_t i = 0; i + 1 < level.size(); i += 2) next.push_back(Times(level[i], level[i + 1]));
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

Circuit CircuitBuilder::Build(std::vector<GateId> outputs) const {
  for (GateId o : outputs) DLCIRC_CHECK_LT(o, gates_.size());
  return Circuit(gates_, std::move(outputs), num_vars_);
}

Circuit SubstituteInputs(const Circuit& circuit,
                         const std::vector<InputSubstitution>& subs,
                         uint32_t new_num_vars, CircuitBuilder::Options options) {
  DLCIRC_CHECK_EQ(subs.size(), circuit.num_vars());
  CircuitBuilder b(new_num_vars, options);
  const auto& gates = circuit.gates();
  std::vector<GateId> map(gates.size());
  for (size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    switch (g.kind) {
      case GateKind::kZero:
        map[i] = b.Zero();
        break;
      case GateKind::kOne:
        map[i] = b.One();
        break;
      case GateKind::kInput: {
        const InputSubstitution& s = subs[g.a];
        switch (s.kind) {
          case InputSubstitution::Kind::kVar:
            map[i] = b.Input(s.var);
            break;
          case InputSubstitution::Kind::kOne:
            map[i] = b.One();
            break;
          case InputSubstitution::Kind::kZero:
            map[i] = b.Zero();
            break;
        }
        break;
      }
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

Circuit CombineOutputsWithPlus(const Circuit& circuit,
                               CircuitBuilder::Options options) {
  CircuitBuilder b(circuit.num_vars(), options);
  const auto& gates = circuit.gates();
  std::vector<GateId> map(gates.size());
  for (size_t i = 0; i < gates.size(); ++i) {
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
  std::vector<GateId> outs;
  outs.reserve(circuit.outputs().size());
  for (GateId o : circuit.outputs()) outs.push_back(map[o]);
  return b.Build({b.PlusN(outs)});
}

}  // namespace dlcirc
