// Snapshot corruption fuzzing: every way of damaging a plan snapshot file
// must produce a clean structured error from LoadPlan — never a crash, an
// abort, or a successfully loaded plan built from corrupted indexes.
//
// Three sweeps over one real saved plan:
//   1. flip every single byte (checksum/header layer catches all of these),
//   2. truncate to every prefix length,
//   3. corrupt targeted fields of the circuit section — a gate child, an
//      input variable, an output gate, the input-space size — and
//      *recompute the footer* with serve::SnapshotChecksum so the corruption
//      sails past the checksum and only the structural verifier
//      (src/analysis/verify.h) stands between the file and the Circuit
//      constructor's CHECK-aborts, or, for a forged input space, only the
//      plan's variable-keyed index stands between the file's 4-byte fields
//      and a multi-gigabyte allocation.
//
// The whole suite rides the ASan+UBSan CI job, so "never crashes" is
// checked with teeth.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/circuit/circuit.h"
#include "src/pipeline/session.h"
#include "src/semiring/instances.h"
#include "src/serve/snapshot.h"
#include "tests/test_programs.h"

namespace dlcirc {
namespace {

using pipeline::PlanKey;
using pipeline::Session;

constexpr const char* kFig1Facts = R"(
E(s,u1). E(s,u2). E(u1,v1). E(u1,v2). E(u2,v2). E(v1,t). E(v2,t).
)";

std::string MakeTempDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("dlcirc_" + name)).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint32_t GetU32(const std::string& bytes, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[off + i]))
         << (8 * i);
  }
  return v;
}

void PutU32(std::string* bytes, size_t off, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[off + i] = static_cast<char>(v >> (8 * i));
  }
}

uint64_t GetU64(const std::string& bytes, size_t off) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[off + i]))
         << (8 * i);
  }
  return v;
}

/// Rewrites the 8-byte footer so a hand-corrupted payload checksums clean —
/// the forged snapshot then exercises the structural verifier, not the
/// checksum.
void FixChecksum(std::string* bytes) {
  ASSERT_GE(bytes->size(), 16u);
  std::string_view payload(bytes->data() + 8, bytes->size() - 16);
  uint64_t sum = serve::SnapshotChecksum(payload);
  for (int i = 0; i < 8; ++i) {
    (*bytes)[bytes->size() - 8 + static_cast<size_t>(i)] =
        static_cast<char>(sum >> (8 * i));
  }
}

/// Byte offsets (into the whole file) of the circuit section, recovered by
/// walking the v3 payload layout exactly as snapshot.cc writes it. Each
/// `*_off` of an array points at element 0; `*_count` is its length.
struct SnapshotOffsets {
  size_t num_vars_off = 0;
  size_t circuit_gates_off = 0;
  uint64_t circuit_gates_count = 0;
  size_t circuit_outputs_off = 0;
  uint64_t circuit_outputs_count = 0;
};

SnapshotOffsets WalkSnapshot(const std::string& bytes) {
  SnapshotOffsets o;
  size_t p = 8;               // skip magic + version
  p += 16;                    // program + EDB digests
  p += 4 + 4 + 4 + 1;         // key bytes, max_layers, layers_used, fixpoint
  p += 4 * 8 + 4;             // unoptimized stats
  uint64_t num_passes = GetU64(bytes, p);
  p += 8;
  for (uint64_t i = 0; i < num_passes; ++i) {
    uint64_t name_len = GetU64(bytes, p);
    p += 8 + name_len + 4 * 8;
  }
  o.num_vars_off = p;
  p += 4;
  o.circuit_gates_count = GetU64(bytes, p);
  p += 8;
  o.circuit_gates_off = p;
  p += o.circuit_gates_count * 9;
  o.circuit_outputs_count = GetU64(bytes, p);
  p += 8;
  o.circuit_outputs_off = p;
  p += o.circuit_outputs_count * 4;
  EXPECT_EQ(p + 8, bytes.size()) << "the circuit section ends the payload";
  return o;
}

/// Index of the first circuit gate of `kind`, or the gate count if none.
size_t FirstGateOf(const std::string& bytes, const SnapshotOffsets& o,
                   GateKind kind) {
  for (size_t g = 0; g < o.circuit_gates_count; ++g) {
    if (static_cast<unsigned char>(bytes[o.circuit_gates_off + g * 9]) ==
        static_cast<unsigned char>(kind)) {
      return g;
    }
  }
  return o.circuit_gates_count;
}

class SnapshotFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Session> s = Session::FromDatalog(testing::kTcText);
    ASSERT_TRUE(s.ok()) << s.error();
    session_ = std::make_unique<Session>(std::move(s).value());
    ASSERT_TRUE(session_->LoadFactsText(kFig1Facts).ok());
    key_ = PlanKey::For<TropicalSemiring>();
    auto compiled = session_->Compile(key_);
    ASSERT_TRUE(compiled.ok()) << compiled.error();
    dir_ = MakeTempDir("snap_fuzz");
    path_ = dir_ + "/plan.dlcp";
    ASSERT_TRUE(serve::SavePlan(*compiled.value(), session_->ProgramDigest(),
                                session_->EdbDigest(), path_)
                    .ok());
    pristine_ = ReadFile(path_);
    ASSERT_GE(pristine_.size(), 16u);
    // Sanity: the untouched file loads.
    ASSERT_TRUE(Load().ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  Result<std::shared_ptr<const pipeline::CompiledPlan>> Load() {
    return serve::LoadPlan(path_, session_->ProgramDigest(),
                           session_->EdbDigest(), key_);
  }

  /// Writes `bytes` over the snapshot and asserts LoadPlan rejects it with
  /// an error mentioning `want` (empty = any error).
  void ExpectReject(const std::string& bytes, const std::string& want,
                    const std::string& trace) {
    SCOPED_TRACE(trace);
    WriteFile(path_, bytes);
    auto r = Load();
    ASSERT_FALSE(r.ok());
    if (!want.empty()) {
      EXPECT_NE(r.error().find(want), std::string::npos) << r.error();
    }
  }

  std::unique_ptr<Session> session_;
  PlanKey key_;
  std::string dir_;
  std::string path_;
  std::string pristine_;
};

TEST_F(SnapshotFuzzTest, EverySingleByteFlipIsRejected) {
  // The checksum is length-seeded FNV over the payload and the footer holds
  // it verbatim, so no single-byte change anywhere in the file can load:
  // header flips hit the magic/version gate, everything else the checksum.
  for (size_t i = 0; i < pristine_.size(); ++i) {
    std::string corrupt = pristine_;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    WriteFile(path_, corrupt);
    auto r = Load();
    ASSERT_FALSE(r.ok()) << "flip at byte " << i << " loaded";
  }
}

TEST_F(SnapshotFuzzTest, EveryTruncationIsRejected) {
  for (size_t len = 0; len < pristine_.size(); ++len) {
    WriteFile(path_, pristine_.substr(0, len));
    auto r = Load();
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes loaded";
  }
}

TEST_F(SnapshotFuzzTest, ChecksumValidStructuralCorruptionNamesInvariant) {
  SnapshotOffsets o = WalkSnapshot(pristine_);
  ASSERT_GT(o.circuit_outputs_count, 0u);
  const uint32_t num_vars = GetU32(pristine_, o.num_vars_off);

  // A circuit gate whose child points at itself: breaks topological order.
  // Gate records are (kind u8, a u32, b u32); a kPlus gate's `a` is a child
  // id.
  {
    const size_t victim = FirstGateOf(pristine_, o, GateKind::kPlus);
    ASSERT_LT(victim, o.circuit_gates_count) << "no plus gate to corrupt";
    std::string c = pristine_;
    PutU32(&c, o.circuit_gates_off + victim * 9 + 1,
           static_cast<uint32_t>(victim));
    FixChecksum(&c);
    ExpectReject(c, "circuit invariant violated [verify.", "gate child");
  }
  // An input gate reading the first variable past the input space.
  {
    const size_t victim = FirstGateOf(pristine_, o, GateKind::kInput);
    ASSERT_LT(victim, o.circuit_gates_count) << "no input gate to corrupt";
    std::string c = pristine_;
    PutU32(&c, o.circuit_gates_off + victim * 9 + 1, num_vars);
    FixChecksum(&c);
    ExpectReject(c, "circuit invariant violated [verify.", "input variable");
  }
  // An output gate pointing past the arena.
  {
    std::string c = pristine_;
    PutU32(&c, o.circuit_outputs_off,
           static_cast<uint32_t>(o.circuit_gates_count));
    FixChecksum(&c);
    ExpectReject(c, "circuit invariant violated [verify.", "output gate");
  }
  // Control: rewriting the pristine bytes (checksum untouched) still loads —
  // the forgeries above failed for structural reasons, not stale footers.
  WriteFile(path_, pristine_);
  EXPECT_TRUE(Load().ok());
}

TEST_F(SnapshotFuzzTest, ForgedInputSpaceDoesNotSizeTheLoad) {
  // num_vars and every input gate's variable are 4-byte fields no array in
  // the file backs. Forged to the top of their range (a valid circuit over
  // 2^32 - 1 variables, one input reading x_{2^32 - 2}), the file loads —
  // whether the input space matches the EDB is the caller's check
  // (PlanStore) — but the load must stay sized by the gates: the plan's
  // variable index holds one entry per variable read, not per id.
  SnapshotOffsets o = WalkSnapshot(pristine_);
  const size_t victim = FirstGateOf(pristine_, o, GateKind::kInput);
  ASSERT_LT(victim, o.circuit_gates_count) << "no input gate to corrupt";
  for (bool forge_input : {false, true}) {
    SCOPED_TRACE(forge_input ? "num_vars and an input variable" : "num_vars");
    std::string c = pristine_;
    PutU32(&c, o.num_vars_off, 0xFFFFFFFFu);
    if (forge_input) {
      PutU32(&c, o.circuit_gates_off + victim * 9 + 1, 0xFFFFFFFEu);
    }
    FixChecksum(&c);
    WriteFile(path_, c);
    auto r = Load();
    ASSERT_TRUE(r.ok()) << r.error();
    const eval::EvalPlan& plan = r.value()->plan;
    EXPECT_EQ(plan.num_vars(), 0xFFFFFFFFu);
    EXPECT_LE(plan.input_vars().size(), plan.num_slots());
    EXPECT_EQ(plan.var_starts().size(), plan.input_vars().size() + 1);
    if (forge_input) {
      EXPECT_EQ(plan.input_vars().back(), 0xFFFFFFFEu);
    }
  }
}

TEST_F(SnapshotFuzzTest, ForgedChecksumAloneIsNotEnough) {
  // Flip a byte inside the circuit-gate arena, then recompute the footer.
  // The checksum passes; decode succeeds; only the structural verifier or
  // the digest/key gates may reject it — but under no circumstances may the
  // load crash. (Some flips leave a valid circuit — e.g. in the unused
  // operand fields of input and constant gates — so this asserts "no
  // crash", not "always rejected".)
  SnapshotOffsets o = WalkSnapshot(pristine_);
  size_t begin = o.circuit_gates_off;
  size_t end = begin + o.circuit_gates_count * 9;
  for (size_t i = begin; i < end; ++i) {
    std::string c = pristine_;
    c[i] = static_cast<char>(c[i] ^ 0x40);
    FixChecksum(&c);
    WriteFile(path_, c);
    auto r = Load();  // must not crash; result itself may go either way
    if (r.ok()) continue;
    EXPECT_FALSE(r.error().empty());
  }
}

TEST_F(SnapshotFuzzTest, VerificationIsMemoizedPerFileIdentity) {
  // First load of a freshly written file runs the verifier; a repeat load
  // of the untouched file hits the per-process memo (the E20 steady state).
  WriteFile(path_, pristine_);
  serve::LoadStats first;
  auto r1 = serve::LoadPlan(path_, session_->ProgramDigest(),
                            session_->EdbDigest(), key_, &first);
  ASSERT_TRUE(r1.ok()) << r1.error();
  EXPECT_FALSE(first.verify_memoized);

  serve::LoadStats second;
  auto r2 = serve::LoadPlan(path_, session_->ProgramDigest(),
                            session_->EdbDigest(), key_, &second);
  ASSERT_TRUE(r2.ok()) << r2.error();
  EXPECT_TRUE(second.verify_memoized);

  // A corrupted rewrite with a fixed-up footer cannot hide behind the memo:
  // the rewrite changes the file's identity (mtime at least), so the
  // structural verifier runs again and rejects it.
  SnapshotOffsets o = WalkSnapshot(pristine_);
  ASSERT_GT(o.circuit_outputs_count, 0u);
  std::string c = pristine_;
  PutU32(&c, o.circuit_outputs_off, 0xFFFFFFFFu);
  FixChecksum(&c);
  ExpectReject(c, "circuit invariant violated [verify.",
               "corrupted rewrite after memoized load");
}

}  // namespace
}  // namespace dlcirc
