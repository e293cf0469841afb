// Tests for src/serve: snapshot round-trips must be bit-exact against the
// fresh compile (structure and outputs, differential-checked across
// semirings), the PlanStore must share/compile-once/warm-start correctly,
// free what it evicts, and compile over a snapshot of an older format or of
// another input space, the Server must serve inline evals, lanes, and
// updates with values that match a plain batch evaluation
// (tests/reference_eval.h), coalescing must actually batch, every request
// must be answered exactly once through its completion (a ping only after
// everything queued before it), and the wire JSON must parse/escape
// correctly. No test calls a Session while a Server
// compiles through it: references come first or from a second Session. The
// concurrency stress test lives in serve_stress_test.cc.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#ifdef __linux__
#include <csignal>
#include <sys/resource.h>
#endif

#include "src/eval/state_pool.h"
#include "src/obs/metrics.h"
#include "src/pipeline/semiring_registry.h"
#include "src/pipeline/session.h"
#include "src/serve/net.h"
#include "src/serve/plan_store.h"
#include "src/serve/server.h"
#include "src/serve/snapshot.h"
#include "src/serve/wire.h"
#include "src/util/rng.h"
#include "tests/reference_eval.h"
#include "tests/test_programs.h"

namespace dlcirc {
namespace {

using pipeline::PlanKey;
using pipeline::Session;

constexpr const char* kFig1Facts = R"(
E(s,u1). E(s,u2). E(u1,v1). E(u1,v2). E(u2,v2). E(v1,t). E(v2,t).
)";

Session MakeTcSession(const char* facts) {
  Result<Session> s = Session::FromDatalog(testing::kTcText);
  EXPECT_TRUE(s.ok()) << s.error();
  Session session = std::move(s).value();
  Result<bool> loaded = session.LoadFactsText(facts);
  EXPECT_TRUE(loaded.ok()) << loaded.error();
  return session;
}

Session MakeFig1Session() { return MakeTcSession(kFig1Facts); }

/// A scratch directory fresh per test.
std::string MakeTempDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("dlcirc_" + name)).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

template <Semiring S>
std::vector<typename S::Value> RandomTagging(Rng& rng, uint32_t num_vars) {
  std::vector<typename S::Value> lane;
  lane.reserve(num_vars);
  for (uint32_t v = 0; v < num_vars; ++v) lane.push_back(S::RandomValue(rng));
  return lane;
}

// ---------------------------------------------------------------- snapshot

template <Semiring S>
void RoundTripPlan(Session& session, PlanKey key, const std::string& tag) {
  SCOPED_TRACE(tag);
  auto compiled = session.Compile(key);
  ASSERT_TRUE(compiled.ok()) << compiled.error();
  const pipeline::CompiledPlan& fresh = *compiled.value();

  std::string dir = MakeTempDir(tag);
  std::string path = dir + "/" + serve::SnapshotFileName(
                                     session.ProgramDigest(),
                                     session.EdbDigest(), key);
  auto saved = serve::SavePlan(fresh, session.ProgramDigest(),
                               session.EdbDigest(), path);
  ASSERT_TRUE(saved.ok()) << saved.error();
  auto loaded = serve::LoadPlan(path, session.ProgramDigest(),
                                session.EdbDigest(), key);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  const pipeline::CompiledPlan& warm = *loaded.value();

  // Bit-exact structure: the circuit arena and every EvalPlan index.
  EXPECT_TRUE(warm.key == fresh.key);
  EXPECT_EQ(warm.layers_used, fresh.layers_used);
  EXPECT_EQ(warm.reached_fixpoint, fresh.reached_fixpoint);
  EXPECT_EQ(warm.unoptimized.size, fresh.unoptimized.size);
  EXPECT_EQ(warm.circuit.num_vars(), fresh.circuit.num_vars());
  ASSERT_EQ(warm.circuit.gates().size(), fresh.circuit.gates().size());
  for (size_t i = 0; i < fresh.circuit.gates().size(); ++i) {
    EXPECT_EQ(warm.circuit.gates()[i].kind, fresh.circuit.gates()[i].kind);
    EXPECT_EQ(warm.circuit.gates()[i].a, fresh.circuit.gates()[i].a);
    EXPECT_EQ(warm.circuit.gates()[i].b, fresh.circuit.gates()[i].b);
  }
  EXPECT_EQ(warm.circuit.outputs(), fresh.circuit.outputs());
  ASSERT_EQ(warm.plan.num_slots(), fresh.plan.num_slots());
  EXPECT_EQ(warm.plan.layer_starts(), fresh.plan.layer_starts());
  EXPECT_EQ(warm.plan.output_slots(), fresh.plan.output_slots());
  EXPECT_EQ(warm.plan.dep_starts(), fresh.plan.dep_starts());
  EXPECT_EQ(warm.plan.dependents(), fresh.plan.dependents());
  EXPECT_EQ(warm.plan.var_starts(), fresh.plan.var_starts());
  EXPECT_EQ(warm.plan.var_input_slots(), fresh.plan.var_input_slots());
  EXPECT_EQ(warm.plan.layer_of(), fresh.plan.layer_of());
  EXPECT_EQ(warm.plan.max_layer_width(), fresh.plan.max_layer_width());
  ASSERT_EQ(warm.pass_stats.size(), fresh.pass_stats.size());
  for (size_t i = 0; i < fresh.pass_stats.size(); ++i) {
    EXPECT_EQ(warm.pass_stats[i].name, fresh.pass_stats[i].name);
    EXPECT_EQ(warm.pass_stats[i].gates_after, fresh.pass_stats[i].gates_after);
  }

  // Differential: identical outputs under random taggings through both the
  // plan and the circuit.
  Rng rng(42);
  eval::Evaluator evaluator;
  for (int round = 0; round < 20; ++round) {
    auto tags = RandomTagging<S>(rng, session.db().num_facts());
    auto a = evaluator.Evaluate<S>(fresh.plan, tags);
    auto b = evaluator.Evaluate<S>(warm.plan, tags);
    auto c = warm.circuit.Evaluate<S>(tags);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), c.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(S::Eq(a[i], b[i])) << "output " << i << " round " << round;
      EXPECT_TRUE(S::Eq(a[i], c[i])) << "output " << i << " round " << round;
    }
  }
  std::filesystem::remove_all(dir);
}

template <Semiring S>
void RoundTripOneSemiring() {
  Session session = MakeFig1Session();
  RoundTripPlan<S>(session, PlanKey::For<S>(), "snap_" + S::Name());
}

TEST(SnapshotTest, RoundTripIsBitExactAcrossSemirings) {
  RoundTripOneSemiring<TropicalSemiring>();
  RoundTripOneSemiring<BooleanSemiring>();
  RoundTripOneSemiring<CountingSemiring>();
  RoundTripOneSemiring<ViterbiSemiring>();
}

TEST(SnapshotTest, RoundTripCoversEveryConstruction) {
  using pipeline::Construction;
  // Every planner route must survive a snapshot round trip bit-exactly —
  // the plan cache / PlanStore / serve channels treat them uniformly, so a
  // construction the snapshot codec mishandles would warm-start wrong.
  {
    // Theorem 5.6 / 5.7 routes on the (acyclic) Figure 1 instance.
    Session session = MakeFig1Session();
    RoundTripPlan<TropicalSemiring>(
        session, PlanKey::For<TropicalSemiring>(Construction::kBellmanFord),
        "snap_bf");
    RoundTripPlan<TropicalSemiring>(
        session,
        PlanKey::For<TropicalSemiring>(Construction::kRepeatedSquaring),
        "snap_rs");
  }
  {
    // Theorem 4.3 route on the Example 4.2 program over a Chom semiring.
    Result<Session> s = Session::FromDatalog(testing::kBoundedText);
    ASSERT_TRUE(s.ok()) << s.error();
    Session session = std::move(s).value();
    ASSERT_TRUE(
        session
            .LoadFactsText("E(a,b). E(b,c). E(c,d). E(d,e). A(a). A(c).")
            .ok());
    RoundTripPlan<FuzzySemiring>(
        session, PlanKey::For<FuzzySemiring>(Construction::kBounded),
        "snap_bounded");
  }
  {
    // Theorem 6.2 route on the monadic reachability program.
    Result<Session> s = Session::FromDatalog(testing::kReachText);
    ASSERT_TRUE(s.ok()) << s.error();
    Session session = std::move(s).value();
    ASSERT_TRUE(
        session.LoadFactsText("A(a). E(b,a). E(c,b). E(d,c). E(e,d).").ok());
    RoundTripPlan<BooleanSemiring>(
        session, PlanKey::For<BooleanSemiring>(Construction::kUvg),
        "snap_uvg");
  }
  {
    // Theorem 5.8 route on the finite chain language {a, ab}.
    Result<Session> s = Session::FromDatalog(testing::kFiniteChainText);
    ASSERT_TRUE(s.ok()) << s.error();
    Session session = std::move(s).value();
    ASSERT_TRUE(
        session.LoadFactsText("A(a,b). A(b,c). B(b,d). B(c,a).").ok());
    RoundTripPlan<BooleanSemiring>(
        session, PlanKey::For<BooleanSemiring>(Construction::kFiniteRpq),
        "snap_frpq");
  }
}

TEST(SnapshotTest, RejectsForgedTimesIdempotentKeyBit) {
  // The times_idempotent bit decides whether a kBounded plan's Chom layer
  // cap was sound for the requesting semiring; a snapshot saved under the
  // x-idempotent key must not load for the non-x-idempotent one.
  Result<Session> s = Session::FromDatalog(testing::kBoundedText);
  ASSERT_TRUE(s.ok()) << s.error();
  Session session = std::move(s).value();
  ASSERT_TRUE(
      session.LoadFactsText("E(a,b). E(b,c). E(c,d). A(a).").ok());
  PlanKey key =
      PlanKey::For<FuzzySemiring>(pipeline::Construction::kBounded);
  ASSERT_TRUE(key.times_idempotent);
  auto compiled = session.Compile(key);
  ASSERT_TRUE(compiled.ok()) << compiled.error();
  std::string dir = MakeTempDir("snap_forged_ti");
  std::string path = dir + "/plan.dlcp";
  ASSERT_TRUE(serve::SavePlan(*compiled.value(), session.ProgramDigest(),
                              session.EdbDigest(), path)
                  .ok());
  EXPECT_TRUE(serve::LoadPlan(path, session.ProgramDigest(),
                              session.EdbDigest(), key)
                  .ok());
  PlanKey forged = key;
  forged.times_idempotent = false;
  auto r = serve::LoadPlan(path, session.ProgramDigest(),
                           session.EdbDigest(), forged);
  EXPECT_FALSE(r.ok());
  // And a construction mismatch on otherwise-identical flags.
  PlanKey wrong_construction = key;
  wrong_construction.construction = pipeline::Construction::kGrounded;
  wrong_construction.times_idempotent = false;  // For<S> normalization
  EXPECT_FALSE(serve::LoadPlan(path, session.ProgramDigest(),
                               session.EdbDigest(), wrong_construction)
                   .ok());
  std::filesystem::remove_all(dir);
}

TEST(SnapshotTest, RejectsCorruptionTruncationAndMismatch) {
  Session session = MakeFig1Session();
  PlanKey key = PlanKey::For<TropicalSemiring>();
  auto compiled = session.Compile(key);
  ASSERT_TRUE(compiled.ok());
  std::string dir = MakeTempDir("snap_reject");
  std::string path = dir + "/plan.dlcp";
  ASSERT_TRUE(serve::SavePlan(*compiled.value(), session.ProgramDigest(),
                              session.EdbDigest(), path)
                  .ok());
  const uint64_t pd = session.ProgramDigest();
  const uint64_t ed = session.EdbDigest();

  // Pristine file loads.
  EXPECT_TRUE(serve::LoadPlan(path, pd, ed, key).ok());
  // Wrong digests and wrong key are rejected.
  EXPECT_FALSE(serve::LoadPlan(path, pd + 1, ed, key).ok());
  EXPECT_FALSE(serve::LoadPlan(path, pd, ed + 1, key).ok());
  PlanKey other = key;
  other.max_layers = 3;
  EXPECT_FALSE(serve::LoadPlan(path, pd, ed, other).ok());
  // Missing file.
  EXPECT_FALSE(serve::LoadPlan(dir + "/nope.dlcp", pd, ed, key).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  // Flip one payload byte: checksum must catch it.
  {
    std::string corrupt = bytes;
    corrupt[corrupt.size() / 2] ^= 0x20;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }
  auto r = serve::LoadPlan(path, pd, ed, key);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("checksum"), std::string::npos) << r.error();
  // Truncate: must fail cleanly, not crash.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 3);
  }
  EXPECT_FALSE(serve::LoadPlan(path, pd, ed, key).ok());
  // Bad magic.
  {
    std::string garbled = bytes;
    garbled[0] = 'X';
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << garbled;
  }
  EXPECT_FALSE(serve::LoadPlan(path, pd, ed, key).ok());
  std::filesystem::remove_all(dir);
}

/// True iff `dir` holds no "*.tmp" entry (stray temp files are what a
/// sharded store's startup rescan would trip over).
bool NoTempFiles(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") return false;
  }
  return true;
}

TEST(SnapshotTest, FailedSavesLeaveNoTempFiles) {
  Session session = MakeFig1Session();
  PlanKey key = PlanKey::For<TropicalSemiring>();
  auto compiled = session.Compile(key);
  ASSERT_TRUE(compiled.ok());
  const pipeline::CompiledPlan& plan = *compiled.value();
  const uint64_t pd = session.ProgramDigest();
  const uint64_t ed = session.EdbDigest();

  // Rename failure: the final path is occupied by a directory, so the
  // temp write succeeds but the rename cannot. The guard must remove the
  // temp file before returning the error.
  {
    std::string dir = MakeTempDir("snap_fail_rename");
    std::string path = dir + "/plan.dlcp";
    std::filesystem::create_directories(path);  // occupy the target
    std::filesystem::create_directories(path + "/full");  // non-empty
    auto r = serve::SavePlan(plan, pd, ed, path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("rename"), std::string::npos) << r.error();
    EXPECT_TRUE(NoTempFiles(dir));
    std::filesystem::remove_all(dir);
  }

#ifdef __linux__
  // Short-write failure, injected for real: cap the process file-size
  // limit below the payload so the temp write hits EFBIG mid-stream. This
  // is the error path that used to leak the temp file.
  {
    std::string dir = MakeTempDir("snap_fail_write");
    std::string path = dir + "/plan.dlcp";
    struct rlimit old_limit;
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
    // Writes past the limit raise SIGXFSZ (fatal by default); ignore it so
    // the write returns EFBIG and the ofstream just goes bad.
    auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit small = old_limit;
    small.rlim_cur = 64;  // the header alone is 8 bytes; any plan is bigger
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &small), 0);
    auto r = serve::SavePlan(plan, pd, ed, path);
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
    std::signal(SIGXFSZ, old_handler);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("short write"), std::string::npos) << r.error();
    EXPECT_TRUE(NoTempFiles(dir));
    EXPECT_FALSE(std::filesystem::exists(path));
    std::filesystem::remove_all(dir);
  }
#endif

  // Open failure: the snapshot dir itself is missing. No file to clean up,
  // but the error must still be graceful.
  {
    std::string dir = MakeTempDir("snap_fail_open");
    auto r = serve::SavePlan(plan, pd, ed, dir + "/no/such/dir/plan.dlcp");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("cannot write"), std::string::npos) << r.error();
    EXPECT_TRUE(NoTempFiles(dir));
    std::filesystem::remove_all(dir);
  }
}

// --------------------------------------------------------------- PlanStore

TEST(PlanStoreTest, SharesOnePlanAndCountsHits) {
  Session session = MakeFig1Session();
  serve::PlanStore store;
  PlanKey key = PlanKey::For<TropicalSemiring>();
  auto a = store.GetOrCompile(session, key);
  auto b = store.GetOrCompile(session, key);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().get(), b.value().get());
  serve::PlanStoreStats stats = store.stats();
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.snapshot_loads, 0u);
}

TEST(PlanStoreTest, KeysPlansByContentNotBySessionAddress) {
  // A new Session built where an old one lived has the old one's address
  // (here: one std::optional emplaced twice). The store must key it by its
  // own digests and compile its own plan, not serve the old EDB's plan.
  serve::PlanStore store;
  const PlanKey key = PlanKey::For<TropicalSemiring>();
  std::optional<Session> session;
  session.emplace(MakeTcSession("E(a,b)."));
  const Session* address = &*session;
  auto first = store.GetOrCompile(*session, key);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first.value()->plan.num_outputs(), 1u);  // T(a,b)

  session.emplace(MakeTcSession("E(a,b). E(b,c). E(c,d)."));
  ASSERT_EQ(&*session, address);
  ASSERT_EQ(session->grounded().num_idb_facts(), 6u);
  auto second = store.GetOrCompile(*session, key);
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_NE(second.value().get(), first.value().get());
  EXPECT_EQ(second.value()->plan.num_outputs(), 6u);
  EXPECT_EQ(store.stats().compiles, 2u);
  EXPECT_EQ(store.stats().hits, 0u);
}

TEST(PlanStoreTest, WarmStartsFromSnapshotDirWithIdenticalOutputs) {
  std::string dir = MakeTempDir("store_warm");
  PlanKey key = PlanKey::For<TropicalSemiring>();

  // Cold store compiles and persists.
  Session cold = MakeFig1Session();
  serve::PlanStore cold_store(dir);
  auto compiled = cold_store.GetOrCompile(cold, key);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(cold_store.stats().compiles, 1u);
  EXPECT_EQ(cold_store.stats().snapshot_saves, 1u);

  // A fresh process (new session, new store) warm-starts off disk...
  Session warm = MakeFig1Session();
  serve::PlanStore warm_store(dir);
  auto loaded = warm_store.GetOrCompile(warm, key);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(warm_store.stats().compiles, 0u);
  EXPECT_EQ(warm_store.stats().snapshot_loads, 1u);
  // ...and evaluating through the loaded plan matches the compiled one.
  Rng rng(7);
  auto tags = RandomTagging<TropicalSemiring>(rng, warm.db().num_facts());
  auto facts = warm.TargetFacts();
  EXPECT_EQ(testing::EvaluateFacts<TropicalSemiring>(compiled.value()->plan,
                                                     {tags}, facts),
            testing::EvaluateFacts<TropicalSemiring>(loaded.value()->plan,
                                                     {tags}, facts));
  std::filesystem::remove_all(dir);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

uint32_t U32At(const std::string& bytes, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[off + i]))
         << (8 * i);
  }
  return v;
}

/// Overwrites the little-endian u32 at byte `off` of the snapshot at `path`
/// and recomputes the footer, so the forgery passes the checksum.
void ForgeU32(const std::string& path, size_t off, uint32_t v) {
  std::string bytes = ReadBytes(path);
  for (int i = 0; i < 4; ++i) bytes[off + i] = static_cast<char>(v >> (8 * i));
  const uint64_t sum = serve::SnapshotChecksum(
      std::string_view(bytes).substr(8, bytes.size() - 16));
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>(sum >> (8 * i));
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(PlanStoreTest, ReplacesAStaleVersionSnapshotAndWarmStartsFromIt) {
  // A snapshot of an older format version where the store looks is a failed
  // load: the store compiles, its save replaces the file, and the next
  // process warm-starts from the new one.
  std::string dir = MakeTempDir("store_upgrade");
  const PlanKey key = PlanKey::For<TropicalSemiring>();
  Session cold = MakeFig1Session();
  const uint64_t pd = cold.ProgramDigest();
  const uint64_t ed = cold.EdbDigest();
  const std::string path = dir + "/" + serve::SnapshotFileName(pd, ed, key);
  {
    auto compiled = cold.Compile(key);
    ASSERT_TRUE(compiled.ok()) << compiled.error();
    ASSERT_TRUE(serve::SavePlan(*compiled.value(), pd, ed, path).ok());
  }
  const size_t kVersionOff = 4;  // after the "DLCP" magic
  ForgeU32(path, kVersionOff, 2);
  ASSERT_FALSE(serve::LoadPlan(path, pd, ed, key).ok());

  serve::PlanStore cold_store(dir);
  auto compiled = cold_store.GetOrCompile(cold, key);
  ASSERT_TRUE(compiled.ok()) << compiled.error();
  EXPECT_EQ(cold_store.stats().compiles, 1u);
  EXPECT_EQ(cold_store.stats().snapshot_loads, 0u);
  EXPECT_EQ(cold_store.stats().snapshot_saves, 1u);
  EXPECT_EQ(U32At(ReadBytes(path), kVersionOff), serve::kSnapshotVersion);

  Session warm = MakeFig1Session();
  serve::PlanStore warm_store(dir);
  auto loaded = warm_store.GetOrCompile(warm, key);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(warm_store.stats().compiles, 0u);
  EXPECT_EQ(warm_store.stats().snapshot_loads, 1u);
  Rng rng(7);
  auto tags = RandomTagging<TropicalSemiring>(rng, warm.db().num_facts());
  auto facts = warm.TargetFacts();
  EXPECT_EQ(testing::EvaluateFacts<TropicalSemiring>(compiled.value()->plan,
                                                     {tags}, facts),
            testing::EvaluateFacts<TropicalSemiring>(loaded.value()->plan,
                                                     {tags}, facts));
  std::filesystem::remove_all(dir);
}

TEST(PlanStoreTest, EvictsColdPlansToSnapshotDirAndReloadsThem) {
  std::string dir = MakeTempDir("store_evict");
  Session session = MakeFig1Session();
  serve::PlanStoreOptions options;
  options.snapshot_dir = dir;
  options.max_resident_plans = 1;
  serve::PlanStore store(options);

  PlanKey tropical = PlanKey::For<TropicalSemiring>();
  PlanKey counting = PlanKey::For<CountingSemiring>();

  // First plan compiles, saves, and stays resident (1 <= cap).
  std::weak_ptr<const pipeline::CompiledPlan> first;
  {
    auto compiled = store.GetOrCompile(session, tropical);
    ASSERT_TRUE(compiled.ok()) << compiled.error();
    first = compiled.value();
  }
  EXPECT_FALSE(first.expired());
  EXPECT_EQ(store.stats().resident, 1u);
  EXPECT_EQ(store.stats().evictions, 0u);

  // Second plan pushes resident over the cap; the LRU (tropical) is
  // evicted — its snapshot was already written at compile time, so the
  // plan is dropped, not re-saved.
  ASSERT_TRUE(store.GetOrCompile(session, counting).ok());
  serve::PlanStoreStats after_evict = store.stats();
  EXPECT_EQ(after_evict.resident, 1u);
  EXPECT_EQ(after_evict.evictions, 1u);
  EXPECT_EQ(after_evict.compiles, 2u);
  EXPECT_EQ(after_evict.snapshot_saves, 2u);
  // The store was the evicted plan's only owner, so eviction freed it.
  EXPECT_TRUE(first.expired())
      << "evicted plan still referenced (use_count " << first.use_count()
      << ")";

  // Touching the evicted plan again is a snapshot load, not a recompile.
  auto reloaded = store.GetOrCompile(session, tropical);
  ASSERT_TRUE(reloaded.ok());
  serve::PlanStoreStats after_reload = store.stats();
  EXPECT_EQ(after_reload.compiles, 2u);
  EXPECT_EQ(after_reload.snapshot_loads, 1u);
  EXPECT_EQ(after_reload.evictions, 2u);  // counting was the LRU this time
  EXPECT_EQ(after_reload.resident, 1u);
  std::filesystem::remove_all(dir);
}

TEST(PlanStoreTest, NeverEvictsWithoutASnapshotDir) {
  // With nowhere to save, eviction would drop the only copy of a plan and
  // turn the cap into a recompile storm; the store keeps everything
  // resident instead.
  Session session = MakeFig1Session();
  serve::PlanStoreOptions options;
  options.max_resident_plans = 1;
  serve::PlanStore store(options);
  ASSERT_TRUE(
      store.GetOrCompile(session, PlanKey::For<TropicalSemiring>()).ok());
  ASSERT_TRUE(
      store.GetOrCompile(session, PlanKey::For<CountingSemiring>()).ok());
  EXPECT_EQ(store.stats().resident, 2u);
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(PlanStoreTest, SweepsStrayTempFilesAtStartup) {
  // A crash between SavePlan's temp write and its rename strands a *.tmp
  // file; the next store over the same directory cleans it up without
  // touching real snapshots.
  std::string dir = MakeTempDir("store_sweep");
  std::string stray = dir + "/plan-dead-beef.dlcp.tmp";
  std::string real = dir + "/plan-cafe-f00d.dlcp";
  std::ofstream(stray) << "partial";
  std::ofstream(real) << "not actually a snapshot, but not ours to delete";
  serve::PlanStore store(dir);
  EXPECT_FALSE(std::filesystem::exists(stray));
  EXPECT_TRUE(std::filesystem::exists(real));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------ Server

serve::ServeRequest EvalRequest(const std::string& semiring,
                                std::vector<std::string> tags,
                                std::vector<uint32_t> facts) {
  serve::ServeRequest req;
  req.kind = serve::ServeRequest::Kind::kEval;
  req.semiring = semiring;
  req.tags = std::move(tags);
  req.facts = std::move(facts);
  return req;
}

TEST(PlanStoreTest, ServesOnlyPlansBuiltOverTheSessionsEdb) {
  // Every construction compiles over exactly the EDB's facts, and the batch
  // kernels size a lane by the plan's input space. A checksum-valid
  // snapshot whose circuit claims one variable more must be a failed load:
  // served, it would CHECK-fail the first inline eval's lane packing.
  std::string dir = MakeTempDir("store_num_vars");
  const PlanKey key = PlanKey::For<TropicalSemiring>();
  Session session = MakeFig1Session();
  const uint64_t pd = session.ProgramDigest();
  const uint64_t ed = session.EdbDigest();
  const std::string path =
      dir + "/" + serve::SnapshotFileName(pd, ed, key);
  const std::vector<uint32_t> facts = session.TargetFacts();
  const std::vector<std::vector<uint64_t>> tags = {{1, 2, 3, 4, 5, 6, 7}};
  auto expected =
      testing::EvaluateFacts<TropicalSemiring>(session, key, tags, facts);
  ASSERT_TRUE(expected.ok()) << expected.error();
  {
    auto compiled = session.Compile(key);
    ASSERT_TRUE(compiled.ok()) << compiled.error();
    ASSERT_TRUE(serve::SavePlan(*compiled.value(), pd, ed, path).ok());
    // The circuit section ends the payload: num_vars u32 | gate count u64
    // | 9-byte gates | output count u64 | u32 outputs | checksum u64.
    const Circuit& c = compiled.value()->circuit;
    const size_t num_vars_off = ReadBytes(path).size() - 8 -
                                4 * c.outputs().size() - 8 -
                                9 * c.gates().size() - 8 - 4;
    ASSERT_EQ(U32At(ReadBytes(path), num_vars_off), session.db().num_facts());
    ForgeU32(path, num_vars_off, session.db().num_facts() + 1);
  }
  // The file itself is well formed; only the store knows the EDB.
  ASSERT_TRUE(serve::LoadPlan(path, pd, ed, key).ok());

  serve::PlanStore store(dir);
  {
    serve::Server server(session, store);
    serve::ServeResponse r =
        server
            .Submit(EvalRequest("tropical", {"1", "2", "3", "4", "5", "6", "7"},
                                facts))
            .get();
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.values.size(), facts.size());
    for (size_t i = 0; i < facts.size(); ++i) {
      EXPECT_EQ(r.values[i], pipeline::FormatSemiringValue<TropicalSemiring>(
                                 expected.value()[0][i]))
          << "fact " << i;
    }
  }
  EXPECT_EQ(store.stats().compiles, 1u);
  EXPECT_EQ(store.stats().snapshot_loads, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, InlineEvalsMatchReferenceEvaluation) {
  Session session = MakeFig1Session();
  std::vector<uint32_t> facts = session.TargetFacts();
  // References first: once the server runs, only it calls the Session.
  std::vector<std::vector<uint64_t>> taggings = {
      {1, 2, 3, 4, 5, 6, 7},
      {1, 1, 1, 1, 1, 1, 1},
      {TropicalSemiring::Zero(), 2, 3, 4, 5, 6, 7}};
  auto expected = testing::EvaluateFacts<TropicalSemiring>(
      session, PlanKey::For<TropicalSemiring>(), taggings, facts);
  ASSERT_TRUE(expected.ok()) << expected.error();
  std::vector<std::vector<bool>> bool_lane = {
      {false, true, true, true, true, true, true}};
  auto expected_b = testing::EvaluateFacts<BooleanSemiring>(
      session, PlanKey::For<BooleanSemiring>(), bool_lane, facts);
  ASSERT_TRUE(expected_b.ok()) << expected_b.error();

  serve::PlanStore store;
  serve::Server server(session, store);
  // Tropical: the three fig1 lanes with the known answers 10 / 3 / 14.
  std::vector<std::vector<std::string>> lanes = {
      {"1", "2", "3", "4", "5", "6", "7"},
      {"1", "1", "1", "1", "1", "1", "1"},
      {"inf", "2", "3", "4", "5", "6", "7"}};
  std::vector<std::future<serve::ServeResponse>> futures;
  for (const auto& lane : lanes) {
    futures.push_back(server.Submit(EvalRequest("tropical", lane, facts)));
  }
  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    serve::ServeResponse r = futures[lane].get();
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.values.size(), facts.size());
    for (size_t i = 0; i < facts.size(); ++i) {
      EXPECT_EQ(r.values[i],
                pipeline::FormatSemiringValue<TropicalSemiring>(
                    expected.value()[lane][i]))
          << "lane " << lane << " fact " << i;
    }
  }

  // Boolean rides the bit-packed kernel; same contract.
  std::vector<std::string> bool_tags(7, "true");
  bool_tags[0] = "false";
  serve::ServeResponse rb =
      server.Submit(EvalRequest("boolean", bool_tags, facts)).get();
  ASSERT_TRUE(rb.ok) << rb.error;
  for (size_t i = 0; i < facts.size(); ++i) {
    EXPECT_EQ(rb.values[i], pipeline::FormatSemiringValue<BooleanSemiring>(
                                expected_b.value()[0][i]));
  }
}

TEST(ServerTest, RoutesChannelsPerConstructionAndReportsThem) {
  // Regression for the route-cache pre-warm fix: the server must serve
  // arbitrary planner routes (not just kFiniteRpq) through per-
  // (semiring, construction) channels, with interleaved requests landing
  // on the right plan and each response reporting its channel's
  // construction.
  Session session = MakeFig1Session();
  // References come from a second session: the server compiles through
  // the first.
  Session reference = MakeFig1Session();
  serve::PlanStore store;
  serve::Server server(session, store);
  std::vector<uint32_t> facts = session.TargetFacts();
  std::vector<std::string> tags = {"1", "2", "3", "4", "5", "6", "7"};

  // Interleave three constructions in one burst so the coalescer must
  // split the batch by channel.
  std::vector<pipeline::Construction> routes = {
      pipeline::Construction::kBellmanFord,
      pipeline::Construction::kGrounded,
      pipeline::Construction::kBellmanFord,
      pipeline::Construction::kRepeatedSquaring,
      pipeline::Construction::kGrounded,
  };
  std::vector<std::future<serve::ServeResponse>> futures;
  for (pipeline::Construction c : routes) {
    serve::ServeRequest req = EvalRequest("tropical", tags, facts);
    req.construction = c;
    futures.push_back(server.Submit(req));
  }

  std::vector<std::vector<uint64_t>> lane = {{1, 2, 3, 4, 5, 6, 7}};
  for (size_t i = 0; i < routes.size(); ++i) {
    serve::ServeResponse r = futures[i].get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.construction, pipeline::ConstructionName(routes[i]));
    auto expected = testing::EvaluateFacts<TropicalSemiring>(
        reference, PlanKey::For<TropicalSemiring>(routes[i]), lane, facts);
    ASSERT_TRUE(expected.ok()) << expected.error();
    ASSERT_EQ(r.values.size(), facts.size());
    for (size_t j = 0; j < facts.size(); ++j) {
      EXPECT_EQ(r.values[j],
                pipeline::FormatSemiringValue<TropicalSemiring>(
                    expected.value()[0][j]))
          << "request " << i << " fact " << j;
    }
  }

  // An inapplicable forced route fails the request, not the server.
  serve::ServeRequest bad = EvalRequest("counting", tags, facts);
  bad.construction = pipeline::Construction::kBellmanFord;
  serve::ServeResponse rbad = server.Submit(bad).get();
  EXPECT_FALSE(rbad.ok);
  // ...and the server still serves afterwards.
  serve::ServeRequest ok = EvalRequest("tropical", tags, facts);
  ok.construction = pipeline::Construction::kBellmanFord;
  EXPECT_TRUE(server.Submit(ok).get().ok);
}

TEST(ServerTest, LanesMaterializeUpdateAndDrop) {
  Session session = MakeFig1Session();
  serve::PlanStore store;
  serve::Server server(session, store);
  std::vector<uint32_t> facts = {session.FindFact("T", {"s", "t"}).value()};

  serve::ServeRequest make;
  make.kind = serve::ServeRequest::Kind::kMakeLane;
  make.semiring = "tropical";
  make.lane = "alice";
  make.tags = {"1", "2", "3", "4", "5", "6", "7"};
  make.facts = facts;
  serve::ServeResponse r = server.Submit(make).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_EQ(r.values[0], "10");

  // Read it back.
  serve::ServeRequest read;
  read.kind = serve::ServeRequest::Kind::kEval;
  read.semiring = "tropical";
  read.lane = "alice";
  read.facts = facts;
  r = server.Submit(read).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_EQ(r.values[0], "10");

  // Update: deleting E(s,u1) (x0 -> inf) reroutes the best path to 14.
  serve::ServeRequest update;
  update.kind = serve::ServeRequest::Kind::kUpdate;
  update.semiring = "tropical";
  update.lane = "alice";
  update.delta = {{0, "inf"}};
  update.facts = facts;
  r = server.Submit(update).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_EQ(r.values[0], "14");

  // Replacing the lane keeps epochs monotonic.
  r = server.Submit(make).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.epoch, 3u);
  EXPECT_EQ(r.values[0], "10");

  // Drop, then reads fail.
  serve::ServeRequest drop;
  drop.kind = serve::ServeRequest::Kind::kDropLane;
  drop.semiring = "tropical";
  drop.lane = "alice";
  r = server.Submit(drop).get();
  EXPECT_TRUE(r.ok) << r.error;
  r = server.Submit(read).get();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown lane"), std::string::npos);
}

TEST(ServerTest, LaneUpdatesMatchColdEvaluation) {
  // Three random lanes and eight random sparse updates against them: every
  // refreshed value must equal a cold evaluation of the mutated tagging,
  // and a fact with no derivation must answer Zero. Cold values come from
  // a second session's plan.
  Session session = MakeFig1Session();
  Session reference = MakeFig1Session();
  auto reference_plan = reference.Compile(PlanKey::For<TropicalSemiring>());
  ASSERT_TRUE(reference_plan.ok()) << reference_plan.error();
  serve::PlanStore store;
  serve::Server server(session, store);
  const uint32_t num_facts = session.db().num_facts();
  const std::vector<uint32_t> facts = {
      session.FindFact("T", {"s", "t"}).value(), Session::kNotFound};

  auto expect_cold = [&](const std::vector<uint64_t>& tagging,
                         const serve::ServeResponse& r,
                         const std::string& what) {
    ASSERT_TRUE(r.ok) << what << ": " << r.error;
    auto cold = testing::EvaluateFacts<TropicalSemiring>(
        reference_plan.value()->plan, {tagging}, facts);
    ASSERT_EQ(r.values.size(), facts.size()) << what;
    for (size_t i = 0; i < facts.size(); ++i) {
      EXPECT_EQ(r.values[i],
                pipeline::FormatSemiringValue<TropicalSemiring>(cold[0][i]))
          << what << " fact " << i;
    }
    EXPECT_EQ(r.values[1], "inf") << what << ": kNotFound must read Zero";
  };
  auto render = [](uint64_t v) {
    return pipeline::FormatSemiringValue<TropicalSemiring>(v);
  };

  Rng rng(23);
  std::vector<std::vector<uint64_t>> taggings(3);
  for (size_t lane = 0; lane < taggings.size(); ++lane) {
    taggings[lane] = RandomTagging<TropicalSemiring>(rng, num_facts);
    serve::ServeRequest make;
    make.kind = serve::ServeRequest::Kind::kMakeLane;
    make.semiring = "tropical";
    make.lane = "lane" + std::to_string(lane);
    for (uint64_t v : taggings[lane]) make.tags.push_back(render(v));
    make.facts = facts;
    expect_cold(taggings[lane], server.Submit(make).get(),
                "make " + make.lane);
  }
  for (int step = 0; step < 8; ++step) {
    const size_t lane = rng.NextBounded(taggings.size());
    serve::ServeRequest update;
    update.kind = serve::ServeRequest::Kind::kUpdate;
    update.semiring = "tropical";
    update.lane = "lane" + std::to_string(lane);
    update.facts = facts;
    for (size_t k = 0, n = 1 + rng.NextBounded(2); k < n; ++k) {
      const auto var = static_cast<uint32_t>(rng.NextBounded(num_facts));
      const uint64_t v = TropicalSemiring::RandomValue(rng);
      taggings[lane][var] = v;
      update.delta.emplace_back(var, render(v));
    }
    expect_cold(taggings[lane], server.Submit(update).get(),
                "step " + std::to_string(step));
  }
  EXPECT_EQ(server.stats().updates, 8u);
}

TEST(ServerTest, LaneUpdateErrors) {
  Session session = MakeFig1Session();
  serve::PlanStore store;
  serve::Server server(session, store);
  std::vector<uint32_t> facts = {session.FindFact("T", {"s", "t"}).value()};

  serve::ServeRequest update;
  update.kind = serve::ServeRequest::Kind::kUpdate;
  update.semiring = "tropical";
  update.lane = "alice";
  update.delta = {{0, "1"}};
  update.facts = facts;
  // No lane to update yet.
  serve::ServeResponse r = server.Submit(update).get();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown lane `alice`"), std::string::npos)
      << r.error;

  serve::ServeRequest make;
  make.kind = serve::ServeRequest::Kind::kMakeLane;
  make.semiring = "tropical";
  make.lane = "alice";
  make.tags = {"1", "2", "3", "4", "5", "6", "7"};
  make.facts = facts;
  ASSERT_TRUE(server.Submit(make).get().ok);

  // Lanes live per channel: the name is unknown under another semiring.
  serve::ServeRequest other = update;
  other.semiring = "boolean";
  other.delta = {{0, "true"}};
  r = server.Submit(other).get();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown lane"), std::string::npos) << r.error;

  // An EDB variable past the last fact is rejected, lane untouched.
  serve::ServeRequest out_of_range = update;
  out_of_range.delta = {{99, "1"}};
  r = server.Submit(out_of_range).get();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("EDB variable x99"), std::string::npos) << r.error;

  serve::ServeRequest read;
  read.kind = serve::ServeRequest::Kind::kEval;
  read.semiring = "tropical";
  read.lane = "alice";
  read.facts = facts;
  r = server.Submit(read).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_EQ(r.values[0], "10");
}

TEST(ServerTest, ErrorsAreRecoverableAndDoNotPoisonTheQueue) {
  Session session = MakeFig1Session();
  serve::PlanStore store;
  serve::Server server(session, store);
  std::vector<uint32_t> facts = {session.FindFact("T", {"s", "t"}).value()};

  serve::ServeRequest bad_semiring = EvalRequest("frobnicating", {}, facts);
  serve::ServeRequest bad_tags =
      EvalRequest("tropical", {"1", "2"}, facts);  // EDB has 7 facts
  serve::ServeRequest bad_value =
      EvalRequest("tropical",
                  {"1", "banana", "3", "4", "5", "6", "7"}, facts);
  serve::ServeRequest bad_fact = EvalRequest("tropical", {}, {9999});
  serve::ServeRequest good = EvalRequest(
      "tropical", {"1", "1", "1", "1", "1", "1", "1"}, facts);

  EXPECT_FALSE(server.Submit(bad_semiring).get().ok);
  EXPECT_FALSE(server.Submit(bad_tags).get().ok);
  EXPECT_FALSE(server.Submit(bad_value).get().ok);
  EXPECT_FALSE(server.Submit(bad_fact).get().ok);
  serve::ServeResponse r = server.Submit(good).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.values[0], "3");
  EXPECT_EQ(server.stats().errors, 4u);
}

TEST(ServerTest, PausedServerCoalescesBacklogIntoOneBatch) {
  Session session = MakeFig1Session();
  serve::PlanStore store;
  serve::ServerOptions options;
  options.paused = true;
  options.max_coalesce = 64;
  serve::Server server(session, store, options);
  std::vector<uint32_t> facts = {session.FindFact("T", {"s", "t"}).value()};

  // Backlog of 16 requests while the dispatcher sleeps; on Resume they must
  // arrive in one burst and evaluate as one coalesced sweep.
  std::vector<std::future<serve::ServeResponse>> futures;
  for (int i = 0; i < 16; ++i) {
    std::vector<std::string> tags(7, std::to_string(1 + (i % 5)));
    futures.push_back(server.Submit(EvalRequest("tropical", tags, facts)));
  }
  EXPECT_EQ(server.queue_depth(), 16u);
  server.Resume();
  for (int i = 0; i < 16; ++i) {
    serve::ServeResponse r = futures[i].get();
    ASSERT_TRUE(r.ok) << r.error;
    // Unit weight w on every edge makes T(s,t) = 3w.
    EXPECT_EQ(r.values[0], std::to_string(3 * (1 + (i % 5))));
  }
  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.evals, 16u);
  EXPECT_EQ(stats.max_batch, 16u);
  EXPECT_EQ(stats.batches, 1u);
}

TEST(ServerTest, PingFencesAndStopDrains) {
  Session session = MakeFig1Session();
  serve::PlanStore store;
  serve::ServerOptions options;
  options.paused = true;
  serve::Server server(session, store, options);
  std::vector<uint32_t> facts = {session.FindFact("T", {"s", "t"}).value()};

  auto eval = server.Submit(
      EvalRequest("tropical", {"1", "1", "1", "1", "1", "1", "1"}, facts));
  serve::ServeRequest ping;
  ping.kind = serve::ServeRequest::Kind::kPing;
  auto fence = server.Submit(ping);
  server.Stop();  // drains the backlog even though the server was paused
  EXPECT_TRUE(eval.get().ok);
  EXPECT_TRUE(fence.get().ok);
  // After Stop, submits fail fast.
  serve::ServeResponse r = server.Submit(ping).get();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("stopped"), std::string::npos);
}

TEST(ServerTest, PingFencesExactlyWhatWasQueuedBeforeIt) {
  // A ping ends its burst, so its completion sees every request queued
  // before it served and counted, and none queued after: the request behind
  // it is neither counted nor has its channel yet.
  Session session = MakeFig1Session();
  serve::PlanStore store;
  serve::ServerOptions options;
  options.paused = true;
  serve::Server server(session, store, options);
  std::vector<uint32_t> facts = {session.FindFact("T", {"s", "t"}).value()};

  auto tropical = server.Submit(
      EvalRequest("tropical", {"1", "2", "3", "4", "5", "6", "7"}, facts));
  serve::ServeRequest ping;
  ping.kind = serve::ServeRequest::Kind::kPing;
  serve::ServerStats at_fence;
  std::vector<serve::ChannelBatchSummary> channels_at_fence;
  server.Submit(ping, [&](serve::ServeResponse r) {
    EXPECT_TRUE(r.ok) << r.error;
    at_fence = server.stats();
    channels_at_fence = server.ChannelSummaries();
  });
  auto counting = server.Submit(EvalRequest("counting", {}, facts));
  server.Stop();  // drains the backlog and joins the dispatcher
  EXPECT_TRUE(tropical.get().ok);
  EXPECT_TRUE(counting.get().ok);

  EXPECT_EQ(at_fence.requests, 2u);
  EXPECT_EQ(at_fence.evals, 1u);
  ASSERT_EQ(channels_at_fence.size(), 1u);
  EXPECT_EQ(channels_at_fence[0].channel, "tropical/grounded");
  EXPECT_EQ(server.stats().requests, 3u);
  EXPECT_EQ(server.stats().evals, 2u);
  EXPECT_EQ(server.ChannelSummaries().size(), 2u);
}

TEST(ServerTest, CompletionsRunOnceOnTheDispatcher) {
  // One request of each kind, and one that errors: every completion runs
  // exactly once, on the dispatcher rather than the submitting thread.
  Session session = MakeFig1Session();
  serve::PlanStore store;
  serve::Server server(session, store);
  const std::vector<uint32_t> facts = {
      session.FindFact("T", {"s", "t"}).value()};
  using Kind = serve::ServeRequest::Kind;
  auto request = [&](Kind kind, const std::string& lane) {
    serve::ServeRequest r =
        EvalRequest("tropical", {"1", "2", "3", "4", "5", "6", "7"}, facts);
    r.kind = kind;
    r.lane = lane;
    return r;
  };
  serve::ServeRequest update = request(Kind::kUpdate, "alice");
  update.delta = {{0, "inf"}};
  const std::vector<serve::ServeRequest> requests = {
      request(Kind::kEval, ""),          request(Kind::kMakeLane, "alice"),
      request(Kind::kEval, "alice"),     update,
      request(Kind::kExplain, "alice"),  request(Kind::kDropLane, "alice"),
      request(Kind::kPing, ""),          request(Kind::kEval, "nobody"),
  };

  struct Seen {
    int calls = 0;
    std::thread::id thread;
    serve::ServeResponse response;
  };
  auto record = [](Seen* seen) {
    return [seen](serve::ServeResponse r) {
      ++seen->calls;
      seen->thread = std::this_thread::get_id();
      seen->response = std::move(r);
    };
  };
  std::vector<Seen> seen(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    server.Submit(requests[i], record(&seen[i]));
  }
  server.Stop();  // joins the dispatcher, so every completion has run
  const std::thread::id test_thread = std::this_thread::get_id();
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(seen[i].calls, 1);
    EXPECT_NE(seen[i].thread, test_thread);
  }
  for (size_t i = 0; i + 1 < requests.size(); ++i) {
    EXPECT_TRUE(seen[i].response.ok)
        << "request " << i << ": " << seen[i].response.error;
  }
  EXPECT_EQ(seen.back().response.error, "unknown lane `nobody`");
  EXPECT_EQ(seen[3].response.values, std::vector<std::string>{"14"});
  EXPECT_FALSE(seen[4].response.explain_json.empty());

  // A stopped server answers on the submitting thread before Submit returns.
  Seen stopped;
  server.Submit(request(Kind::kPing, ""), record(&stopped));
  EXPECT_EQ(stopped.calls, 1);
  EXPECT_EQ(stopped.thread, test_thread);
  EXPECT_FALSE(stopped.response.ok);
  EXPECT_EQ(stopped.response.error, "server stopped");
}

/// Renders one snapshot of `server`'s and `store`'s stats (plus a NetStats
/// whose fields all differ) and checks that the exposition holds exactly one
/// series per field, each equal to the field it names.
void ExpectMetricsMatchStats(const serve::Server& server,
                             const serve::PlanStore& store) {
  const serve::ServerStats s = server.stats();
  const serve::PlanStoreStats p = store.stats();
  const size_t depth = server.queue_depth();
  serve::NetStats n;
  n.accepted = 11;
  n.rejected = 12;
  n.closed = 13;
  n.lines = 14;
  n.oversized = 15;
  n.overflowed = 16;
  n.active = 17;
  const std::map<std::string, uint64_t> want = {
      {"dlcirc_net_accepted_total", n.accepted},
      {"dlcirc_net_rejected_total", n.rejected},
      {"dlcirc_net_closed_total", n.closed},
      {"dlcirc_net_lines_total", n.lines},
      {"dlcirc_net_oversized_total", n.oversized},
      {"dlcirc_net_overflowed_total", n.overflowed},
      {"dlcirc_net_connections", n.active},
      {"dlcirc_plan_store_hits_total", p.hits},
      {"dlcirc_plan_store_compiles_total", p.compiles},
      {"dlcirc_plan_store_snapshot_loads_total", p.snapshot_loads},
      {"dlcirc_plan_store_snapshot_saves_total", p.snapshot_saves},
      {"dlcirc_plan_store_evictions_total", p.evictions},
      {"dlcirc_plan_store_resident", p.resident},
      {"dlcirc_serve_requests_total", s.requests},
      {"dlcirc_serve_evals_total", s.evals},
      {"dlcirc_serve_lane_reads_total", s.lane_reads},
      {"dlcirc_serve_lane_makes_total", s.lane_makes},
      {"dlcirc_serve_updates_total", s.updates},
      {"dlcirc_serve_update_fallbacks_total", s.update_fallbacks},
      {"dlcirc_serve_batches_total", s.batches},
      {"dlcirc_serve_batched_lanes_total", s.batched_lanes},
      {"dlcirc_serve_max_batch", s.max_batch},
      {"dlcirc_serve_explains_total", s.explains},
      {"dlcirc_serve_errors_total", s.errors},
      {"dlcirc_serve_queue_depth", depth},
  };
  std::map<std::string, uint64_t> got;
  std::istringstream text(serve::RenderStatsPrometheus(s, depth, p, &n));
  for (std::string line; std::getline(text, line);) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_TRUE(got.emplace(line.substr(0, space),
                            std::stoull(line.substr(space + 1)))
                    .second)
        << "duplicate series: " << line;
  }
  EXPECT_EQ(got, want);
}

TEST(ServerTest, ObsInstrumentationRecordsServingMetrics) {
  // Counts live only in the always-on ServerStats/PlanStoreStats, so the
  // metrics counts equal the stats fields with the obs registry disabled
  // and still after it is enabled mid-run; the registry's histograms see
  // only what ran while it was enabled. The test restores the disabled
  // default (other tests in this binary must keep seeing no-op metrics).
  obs::Registry& reg = obs::Registry::Default();
  reg.ResetValuesForTest();
  ASSERT_FALSE(reg.enabled());

  Session session = MakeFig1Session();
  serve::PlanStore store;
  serve::Server server(session, store);
  std::vector<uint32_t> facts = {session.FindFact("T", {"s", "t"}).value()};

  // A mixed burst while disabled: two inline evals, a lane make, read and
  // update, one explain, and one unknown-lane error (last).
  using Kind = serve::ServeRequest::Kind;
  auto request = [&](Kind kind, const std::string& lane) {
    serve::ServeRequest r =
        EvalRequest("tropical", {"1", "2", "3", "4", "5", "6", "7"}, facts);
    r.kind = kind;
    r.lane = lane;
    return r;
  };
  serve::ServeRequest update = request(Kind::kUpdate, "alice");
  update.delta = {{0, "inf"}};
  std::vector<serve::ServeRequest> mixed = {
      request(Kind::kEval, ""),         request(Kind::kEval, ""),
      request(Kind::kMakeLane, "alice"), request(Kind::kEval, "alice"),
      update,                           request(Kind::kExplain, "alice"),
      request(Kind::kEval, "nobody"),
  };
  std::vector<std::future<serve::ServeResponse>> answers;
  for (serve::ServeRequest& r : mixed) {
    answers.push_back(server.Submit(std::move(r)));
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i].get().ok, i + 1 < answers.size()) << "request " << i;
  }
  const serve::ServerStats disabled = server.stats();
  EXPECT_EQ(disabled.requests, 7u);
  EXPECT_EQ(disabled.evals, 2u);
  EXPECT_EQ(disabled.lane_makes, 1u);
  EXPECT_EQ(disabled.lane_reads, 1u);
  EXPECT_EQ(disabled.updates, 1u);
  EXPECT_EQ(disabled.explains, 1u);
  EXPECT_EQ(disabled.errors, 1u);
  EXPECT_EQ(store.stats().compiles, 1u);
  ExpectMetricsMatchStats(server, store);
  EXPECT_EQ(reg.GetHistogram("dlcirc_serve_request_ns").count(), 0u);

  reg.set_enabled(true);
  const int kRequests = 12;
  std::vector<std::future<serve::ServeResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    std::vector<std::string> tags(7, std::to_string(1 + (i % 5)));
    futures.push_back(server.Submit(EvalRequest("tropical", tags, facts)));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok);
  EXPECT_EQ(server.stats().requests, disabled.requests + kRequests);
  ExpectMetricsMatchStats(server, store);

  EXPECT_GT(server.uptime_seconds(), 0.0);
  // One latency sample per request served while enabled, quantiles sane.
  obs::LocalHistogram lat =
      reg.GetHistogram("dlcirc_serve_request_ns").Snapshot();
  EXPECT_EQ(lat.count(), static_cast<uint64_t>(kRequests));
  EXPECT_GT(lat.Quantile(0.5), 0u);
  EXPECT_LE(lat.Quantile(0.5), lat.max());

  // Per-channel batch-size summaries surface through ChannelSummaries().
  std::vector<serve::ChannelBatchSummary> channels = server.ChannelSummaries();
  ASSERT_EQ(channels.size(), 1u);
  EXPECT_NE(channels[0].channel.find("tropical"), std::string::npos);
  EXPECT_GT(channels[0].sweeps, 0u);
  EXPECT_GE(channels[0].p50, 1u);
  EXPECT_GE(channels[0].max, channels[0].p50);

  // The same distributions flow into the registry's exposition.
  std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("dlcirc_serve_request_ns_count 12"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dlcirc_serve_batch_size{channel="), std::string::npos)
      << text;

  reg.set_enabled(false);
  reg.ResetValuesForTest();
}

TEST(ServerTest, QueueDepthDrainsToZeroWhenMetricsTurnOnMidQueue) {
  // Three evals queue on a paused server while the registry is disabled and
  // are served after it is enabled. The depth is read off the queue itself
  // and requests are counted once, so the exposition shows depth 0 and 3
  // requests (a level kept as flag-gated +1/-n deltas would read -3 here).
  obs::Registry& reg = obs::Registry::Default();
  reg.ResetValuesForTest();
  ASSERT_FALSE(reg.enabled());
  Session session = MakeFig1Session();
  serve::PlanStore store;
  serve::ServerOptions options;
  options.paused = true;
  serve::Server server(session, store, options);
  std::vector<uint32_t> facts = {session.FindFact("T", {"s", "t"}).value()};

  std::vector<std::future<serve::ServeResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.Submit(
        EvalRequest("tropical", {"1", "2", "3", "4", "5", "6", "7"}, facts)));
  }
  reg.set_enabled(true);
  server.Resume();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);

  const std::string text =
      serve::RenderStatsPrometheus(server.stats(), server.queue_depth(),
                                   store.stats(), nullptr) +
      reg.RenderPrometheus();
  EXPECT_NE(text.find("\ndlcirc_serve_queue_depth 0\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\ndlcirc_serve_requests_total 3\n"), std::string::npos)
      << text;
  ExpectMetricsMatchStats(server, store);

  reg.set_enabled(false);
  reg.ResetValuesForTest();
}

// ----------------------------------------------------------------- pooling

TEST(ObjectPoolTest, RecyclesBuffersAndBoundsIdleList) {
  eval::ObjectPool<std::vector<int>> pool(/*max_idle=*/2);
  {
    auto a = pool.Acquire();
    a->assign(1000, 7);
    auto b = pool.Acquire();
    b->assign(500, 8);
    auto c = pool.Acquire();
    c->assign(100, 9);
  }
  EXPECT_EQ(pool.num_idle(), 2u);  // third release fell off the bounded list
  auto reused = pool.Acquire();
  EXPECT_GE(reused->capacity(), 100u);  // warm capacity came back
  EXPECT_EQ(pool.num_idle(), 1u);
}

// -------------------------------------------------------------------- wire

TEST(WireJsonTest, ParsesRequestsAndKeepsNumberLexemes) {
  auto r = serve::ParseJson(
      R"({"op":"eval","id":7,"tags":["1","0.5",3],"set":[["x2","inf"]],)"
      R"("nested":{"a":[true,false,null]},"esc":"a\"b\\c\nd"})");
  ASSERT_TRUE(r.ok()) << r.error();
  const serve::JsonValue& v = r.value();
  ASSERT_TRUE(v.IsObject());
  EXPECT_EQ(v.Find("op")->text, "eval");
  EXPECT_EQ(v.Find("id")->text, "7");
  ASSERT_TRUE(v.Find("tags")->IsArray());
  EXPECT_EQ(v.Find("tags")->items[1].text, "0.5");  // lexeme preserved
  EXPECT_EQ(v.Find("tags")->items[2].text, "3");
  EXPECT_EQ(v.Find("set")->items[0].items[0].text, "x2");
  EXPECT_EQ(v.Find("esc")->text, "a\"b\\c\nd");
  EXPECT_EQ(v.Find("missing"), nullptr);

  EXPECT_FALSE(serve::ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(serve::ParseJson("{'a': 1}").ok());
  EXPECT_FALSE(serve::ParseJson("{} trailing").ok());
  EXPECT_TRUE(serve::ParseJson("  [1, -2.5e3]  ").ok());

  EXPECT_EQ(serve::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(serve::JsonEscape(std::string("a\bc")), "a\\u0008c");
  // The parser decodes the writer's own \u00XX output (round-trip closure;
  // the property sweep lives in wire_test.cc).
  auto esc = serve::ParseJson("{\"a\": \"\\u0041\\u0008\"}");
  ASSERT_TRUE(esc.ok()) << esc.error();
  EXPECT_EQ(esc.value().Find("a")->text, "A\b");
}

}  // namespace
}  // namespace dlcirc
