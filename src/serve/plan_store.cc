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
    : options_(std::move(options)),
      shards_(std::max<uint32_t>(options_.num_shards, 1)) {
  if (!options_.snapshot_dir.empty()) {
    SweepStrayTempFiles(options_.snapshot_dir);
  }
  obs::Registry& reg = obs::Registry::Default();
  obs_hits_ = &reg.GetCounter("dlcirc_plan_store_hits_total", "",
                              "Plan lookups served from the registry");
  obs_misses_ = &reg.GetCounter("dlcirc_plan_store_misses_total", "",
                                "Plan lookups that left the registry");
  obs_compiles_ = &reg.GetCounter("dlcirc_plan_store_compiles_total", "",
                                  "Cold compiles through a Session");
  obs_loads_ = &reg.GetCounter("dlcirc_plan_store_snapshot_loads_total", "",
                               "Warm starts off a snapshot file");
  obs_saves_ = &reg.GetCounter("dlcirc_plan_store_snapshot_saves_total", "",
                               "Fresh compiles persisted to disk");
  obs_evictions_ = &reg.GetCounter("dlcirc_plan_store_evictions_total", "",
                                   "Cold plans evicted to the snapshot dir");
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

Result<std::shared_ptr<const pipeline::CompiledPlan>> PlanStore::GetOrCompile(
    pipeline::Session& session, const pipeline::PlanKey& key) {
  using Out = Result<std::shared_ptr<const pipeline::CompiledPlan>>;
  if (!session.has_database()) return Out::Error("no EDB loaded");

  // The digests are fixed at parse/load time, so the hit path reads them
  // without any lock and never waits behind an in-flight compile.
  const PlanStoreKey store_key{session.ProgramDigest(), session.EdbDigest(),
                               key};

  Shard& shard = ShardFor(store_key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (auto it = shard.plans.find(store_key); it != shard.plans.end()) {
      it->second.last_used = tick_.fetch_add(1) + 1;
      hits_.fetch_add(1, std::memory_order_relaxed);
      obs_hits_->Inc();
      return it->second.plan;
    }
  }
  obs_misses_->Inc();

  // Miss: take the compile lock, re-check (another thread may have finished
  // the same compile while we waited), then snapshot-load or compile.
  std::lock_guard<std::mutex> compile_lock(compile_mu_);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (auto it = shard.plans.find(store_key); it != shard.plans.end()) {
      it->second.last_used = tick_.fetch_add(1) + 1;
      hits_.fetch_add(1, std::memory_order_relaxed);
      obs_hits_->Inc();
      return it->second.plan;
    }
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
        obs_saves_->Inc();
        on_disk = true;
      }
    }
  }

  if (from_snapshot) {
    snapshot_loads_.fetch_add(1, std::memory_order_relaxed);
    obs_loads_->Inc();
  } else {
    compiles_.fetch_add(1, std::memory_order_relaxed);
    obs_compiles_->Inc();
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    Entry entry;
    entry.plan = plan;
    entry.key = store_key;
    entry.last_used = tick_.fetch_add(1) + 1;
    entry.on_disk = on_disk;
    if (shard.plans.emplace(store_key, std::move(entry)).second) {
      resident_.fetch_add(1);
    }
  }
  EvictIfNeeded();
  return plan;
}

void PlanStore::EvictIfNeeded() {
  // Called under compile_mu_ only, so at most one eviction pass runs at a
  // time and the resident count cannot race upward mid-pass (inserts happen
  // on the miss path, also under compile_mu_).
  if (options_.max_resident_plans == 0) return;
  while (resident_.load() > options_.max_resident_plans) {
    // Global LRU, one shard lock at a time: find the minimum last_used tick
    // across shards, then re-lock that shard to evict. Stale picks (the
    // entry got touched in between) just retry.
    Shard* victim_shard = nullptr;
    PlanStoreKey victim_key;
    uint64_t victim_tick = 0;
    bool found = false;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [k, entry] : shard.plans) {
        if (!found || entry.last_used < victim_tick) {
          victim_shard = &shard;
          victim_key = k;
          victim_tick = entry.last_used;
          found = true;
        }
      }
    }
    if (!found) return;

    std::lock_guard<std::mutex> lock(victim_shard->mu);
    auto it = victim_shard->plans.find(victim_key);
    if (it == victim_shard->plans.end()) continue;
    Entry& entry = it->second;
    if (entry.last_used != victim_tick) continue;  // touched since the scan
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
      obs_saves_->Inc();
      entry.on_disk = true;
    }
    victim_shard->plans.erase(it);
    resident_.fetch_sub(1);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs_evictions_->Inc();
  }
}

PlanStoreStats PlanStore::stats() const {
  PlanStoreStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.compiles = compiles_.load(std::memory_order_relaxed);
  s.snapshot_loads = snapshot_loads_.load(std::memory_order_relaxed);
  s.snapshot_saves = snapshot_saves_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.resident = resident_.load();
  return s;
}

}  // namespace serve
}  // namespace dlcirc
