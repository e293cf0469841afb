#include "src/serve/plan_store.h"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#include "src/obs/trace.h"
#include "src/serve/snapshot.h"

namespace dlcirc {
namespace serve {

namespace {

// Removes leftover `*.tmp` files from an interrupted SavePlan (a crash
// between temp write and rename is the only path that strands one; every
// in-process failure cleans up via TmpFileGuard). Best-effort: an
// unreadable directory just means no sweep.
void SweepStrayTempFiles(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() == ".tmp") {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

}  // namespace

PlanStore::PlanStore(PlanStoreOptions options)
    : options_(std::move(options)) {
  if (!options_.snapshot_dir.empty()) {
    SweepStrayTempFiles(options_.snapshot_dir);
  }
  obs::Registry& reg = obs::Registry::Default();
  obs_compile_ns_ = &reg.GetHistogram("dlcirc_plan_compile_ns", "",
                                      "Cold plan compile time, nanoseconds");
  obs_load_ns_ = &reg.GetHistogram("dlcirc_plan_snapshot_load_ns", "",
                                   "Snapshot load time, nanoseconds");
}

PlanStore::PlanStore(std::string snapshot_dir)
    : PlanStore(PlanStoreOptions{std::move(snapshot_dir)}) {}

std::string PlanStore::PathFor(const PlanStoreKey& key) const {
  return options_.snapshot_dir + "/" +
         SnapshotFileName(key.program_digest, key.edb_digest, key.key);
}

std::shared_ptr<const pipeline::CompiledPlan> PlanStore::FindLocked(
    const PlanStoreKey& key) {
  auto it = plans_.find(key);
  if (it == plans_.end()) return nullptr;
  it->second.last_used = ++tick_;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.plan;
}

Result<std::shared_ptr<const pipeline::CompiledPlan>> PlanStore::GetOrCompile(
    pipeline::Session& session, const pipeline::PlanKey& key) {
  using Out = Result<std::shared_ptr<const pipeline::CompiledPlan>>;
  if (!session.has_database()) return Out::Error("no EDB loaded");

  // The digests are fixed at parse/load time, so the hit path reads them
  // without any lock and never waits behind an in-flight compile.
  const PlanStoreKey store_key{session.ProgramDigest(), session.EdbDigest(),
                               key};

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto plan = FindLocked(store_key)) return plan;
  }

  // Miss: take the compile lock, re-check (another thread may have finished
  // the same compile while we waited), then snapshot-load or compile.
  std::lock_guard<std::mutex> compile_lock(compile_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto plan = FindLocked(store_key)) return plan;
  }

  std::shared_ptr<const pipeline::CompiledPlan> plan;
  bool from_snapshot = false;
  bool on_disk = false;
  std::string path;
  if (!options_.snapshot_dir.empty()) {
    path = PathFor(store_key);
    // Timed unconditionally (loads are rare and file-IO expensive); Record
    // itself drops the sample while the registry is disabled.
    const uint64_t t0 = obs::NowNs();
    auto loaded =
        LoadPlan(path, store_key.program_digest, store_key.edb_digest, key);
    // Every construction compiles over exactly the EDB's facts, and the
    // batch kernels size their inputs by the plan's input space, so a
    // checksum-valid file with another num_vars is a failed load.
    if (loaded.ok() &&
        loaded.value()->plan.num_vars() == session.db().num_facts()) {
      const uint64_t load_ns = obs::NowNs() - t0;
      obs_load_ns_->Record(load_ns);
      obs::TraceRecorder::Default().Record("plan_store", "snapshot_load", t0,
                                           load_ns);
      plan = std::move(loaded).value();
      from_snapshot = true;
      on_disk = true;
    }
  }
  if (plan == nullptr) {
    const uint64_t t0 = obs::NowNs();
    auto compiled = session.Compile(key);
    if (!compiled.ok()) return Out::Error(compiled.error());
    const uint64_t compile_ns = obs::NowNs() - t0;
    obs_compile_ns_->Record(compile_ns);
    obs::TraceRecorder::Default().Record("plan_store", "compile", t0,
                                         compile_ns);
    plan = compiled.value();
    if (!path.empty()) {
      // Best-effort: a failed save leaves the next restart cold, nothing more.
      if (SavePlan(*plan, store_key.program_digest, store_key.edb_digest, path)
              .ok()) {
        snapshot_saves_.fetch_add(1, std::memory_order_relaxed);
        on_disk = true;
      }
    }
  }

  if (from_snapshot) {
    snapshot_loads_.fetch_add(1, std::memory_order_relaxed);
  } else {
    compiles_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    plans_.emplace(store_key, Entry{plan, store_key, ++tick_, on_disk});
  }
  EvictIfNeeded();
  return plan;
}

void PlanStore::EvictIfNeeded() {
  // Called under compile_mu_ only, so at most one eviction pass runs at a
  // time and the resident count cannot grow mid-pass (inserts happen on the
  // miss path, also under compile_mu_).
  if (options_.max_resident_plans == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  while (plans_.size() > options_.max_resident_plans) {
    auto victim = std::min_element(
        plans_.begin(), plans_.end(), [](const auto& a, const auto& b) {
          return a.second.last_used < b.second.last_used;
        });
    Entry& entry = victim->second;
    if (!entry.on_disk) {
      // Evicting means dropping the only copy unless a snapshot exists.
      // (Re-)save first; if there is nowhere to save or the save fails,
      // keep the plan resident — losing it would turn a cache policy into
      // a recompile storm.
      if (options_.snapshot_dir.empty()) return;
      if (!SavePlan(*entry.plan, entry.key.program_digest,
                    entry.key.edb_digest, PathFor(entry.key))
               .ok()) {
        return;
      }
      snapshot_saves_.fetch_add(1, std::memory_order_relaxed);
      entry.on_disk = true;
    }
    plans_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

PlanStoreStats PlanStore::stats() const {
  PlanStoreStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.compiles = compiles_.load(std::memory_order_relaxed);
  s.snapshot_loads = snapshot_loads_.load(std::memory_order_relaxed);
  s.snapshot_saves = snapshot_saves_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.resident = plans_.size();
  return s;
}

}  // namespace serve
}  // namespace dlcirc
