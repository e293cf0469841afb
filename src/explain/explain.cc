#include "src/explain/explain.h"

#include <unordered_map>

namespace dlcirc {
namespace explain {
namespace internal {

std::vector<uint32_t> PlanCone(const eval::EvalPlan& plan, uint32_t root) {
  DLCIRC_CHECK_LT(root, plan.num_slots());
  const std::vector<Gate>& gates = plan.gates();
  std::vector<uint8_t> in_cone(plan.num_slots(), 0);
  std::vector<uint32_t> stack{root};
  in_cone[root] = 1;
  while (!stack.empty()) {
    const uint32_t s = stack.back();
    stack.pop_back();
    const Gate& g = gates[s];
    if (g.kind == GateKind::kPlus || g.kind == GateKind::kTimes) {
      if (!in_cone[g.a]) {
        in_cone[g.a] = 1;
        stack.push_back(g.a);
      }
      if (!in_cone[g.b]) {
        in_cone[g.b] = 1;
        stack.push_back(g.b);
      }
    }
  }
  std::vector<uint32_t> cone;
  for (uint32_t s = 0; s <= root; ++s) {
    if (in_cone[s]) cone.push_back(s);
  }
  return cone;
}

std::string VarName(const std::vector<std::string>& var_names, uint32_t var) {
  if (var < var_names.size() && !var_names[var].empty()) {
    return var_names[var];
  }
  return "x" + std::to_string(var);
}

}  // namespace internal

Result<WhyResult> WhyProvenance(const eval::EvalPlan& plan,
                                uint32_t output_index, bool times_idempotent,
                                uint64_t max_trees) {
  using Out = Result<WhyResult>;
  if (output_index >= plan.num_outputs()) {
    return Out::Error("output index " + std::to_string(output_index) +
                      " out of range (plan has " +
                      std::to_string(plan.num_outputs()) + " outputs)");
  }
  if (max_trees == 0) {
    return Out::Error("max_trees must be at least 1");
  }
  const uint32_t root = plan.output_slots()[output_index];
  const std::vector<uint32_t> cone = internal::PlanCone(plan, root);
  const std::vector<Gate>& gates = plan.gates();

  WhyResult res;
  // The canonical order sorts monomials by degree then lexicographically, so
  // keeping a prefix after every gate retains the smallest proofs — a
  // deterministic lower approximation, flagged below.
  auto clamp = [&](Poly* p) {
    if (p->monomials.size() > max_trees) {
      p->monomials.resize(max_trees);
      res.truncated = true;
    }
  };

  std::unordered_map<uint32_t, uint32_t> local;
  local.reserve(cone.size());
  std::vector<Poly> vals(cone.size());
  for (uint32_t i = 0; i < cone.size(); ++i) {
    const uint32_t s = cone[i];
    const Gate& g = gates[s];
    Poly& v = vals[i];
    switch (g.kind) {
      case GateKind::kZero:
        break;  // Poly{} is zero
      case GateKind::kOne:
        v = Poly{{Monomial{}}};
        break;
      case GateKind::kInput:
        v = Poly{{Monomial{g.a}}};
        break;
      case GateKind::kPlus:
        v = dlcirc::internal::PolyPlus(vals[local[g.a]], vals[local[g.b]]);
        clamp(&v);
        break;
      case GateKind::kTimes:
        v = dlcirc::internal::PolyTimes(vals[local[g.a]], vals[local[g.b]],
                                        times_idempotent);
        clamp(&v);
        break;
    }
    local[s] = i;
  }
  res.poly = std::move(vals.back());
  return res;
}

std::string RenderWhyJson(const WhyResult& res, bool times_idempotent,
                          uint64_t max_trees, const std::string& fact_name,
                          const std::string& value,
                          const std::vector<std::string>& var_names) {
  std::string out = "{\"mode\":\"";
  out += times_idempotent ? "why" : "sorp";
  out += "\",\"fact\":\"" + JsonEscape(fact_name) + "\"";
  if (!value.empty()) {
    out += ",\"value\":\"" + JsonEscape(value) + "\"";
  }
  out += ",\"max_trees\":" + std::to_string(max_trees) +
         ",\"truncated\":" + (res.truncated ? "true" : "false") +
         ",\"num_monomials\":" + std::to_string(res.poly.NumMonomials()) +
         ",\"monomials\":[";
  for (size_t m = 0; m < res.poly.monomials.size(); ++m) {
    if (m > 0) out += ",";
    out += "[";
    const Monomial& mono = res.poly.monomials[m];
    for (size_t v = 0; v < mono.size(); ++v) {
      if (v > 0) out += ",";
      out += "\"" +
             JsonEscape(internal::VarName(var_names, mono[v])) +
             "\"";
    }
    out += "]";
  }
  out += "],\"polynomial\":\"" + JsonEscape(res.poly.ToString()) +
         "\"}";
  return out;
}

}  // namespace explain
}  // namespace dlcirc
