// Thread-safe registry of compiled plans, with optional disk snapshots and
// LRU eviction.
//
// The serving layer's unit of sharing: many concurrent clients (and many
// Server channels) resolve their (program digest, EDB digest, PlanKey) to
// one immutable shared CompiledPlan. One mutex guards the registry: only
// dispatchers look plans up, once per channel group per burst, so a hit
// holds it for one hash lookup and nothing contends for it. A miss
// compiles through the owning Session exactly once — concurrent requesters
// for the same plan (or any plan of the same session, since Session itself
// is single-threaded) wait on the one compile instead of duplicating it.
// The store is the only owner of compiled plans (Session::Compile keeps no
// cache), so a plan it drops is freed once its last user lets go.
//
// With a snapshot directory configured:
//   * misses first try to load a snapshot (src/serve/snapshot.h — mmap'd,
//     12-17x cheaper than a compile) and fresh compiles are persisted
//     back, so a restarted server warm-starts off disk;
//   * with `max_resident_plans` set, the store LRU-evicts cold plans once
//     the resident count exceeds the cap — an evicted plan's snapshot
//     stays on disk, so re-touching it is a near-free mmap load, not a
//     recompile. (Lanes and in-flight requests holding the shared_ptr keep
//     their plan alive; eviction only drops the registry's reference.) The
//     rare victim whose compile-time save failed is re-saved before it is
//     dropped, and that save runs under the registry lock, so hits wait on
//     it.
//   * construction sweeps stray `*.tmp` files out of the directory —
//     leftovers of a save interrupted between temp write and rename.
#ifndef DLCIRC_SERVE_PLAN_STORE_H_
#define DLCIRC_SERVE_PLAN_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/obs/metrics.h"
#include "src/pipeline/session.h"
#include "src/util/hash.h"
#include "src/util/result.h"

namespace dlcirc {
namespace serve {

/// Identity of one compiled plan across sessions and restarts.
struct PlanStoreKey {
  uint64_t program_digest = 0;
  uint64_t edb_digest = 0;
  pipeline::PlanKey key;

  bool operator==(const PlanStoreKey&) const = default;
};

struct PlanStoreKeyHash {
  size_t operator()(const PlanStoreKey& k) const {
    uint64_t h = HashCombine(k.program_digest, k.edb_digest);
    return static_cast<size_t>(HashCombine(h, pipeline::PlanKeyHash{}(k.key)));
  }
};

struct PlanStoreStats {
  uint64_t hits = 0;            ///< served from the in-memory registry
  uint64_t compiles = 0;        ///< cold compiles through a Session
  uint64_t snapshot_loads = 0;  ///< warm starts off a snapshot file
  uint64_t snapshot_saves = 0;  ///< fresh compiles persisted to disk
  uint64_t evictions = 0;       ///< cold plans dropped to the snapshot dir
  uint64_t resident = 0;        ///< plans currently held in memory
};

struct PlanStoreOptions {
  /// Empty = in-memory only. The directory must already exist; unloadable
  /// snapshots are ignored (cold compile) and save failures are non-fatal
  /// (the plan still serves from memory).
  std::string snapshot_dir;
  /// 0 = never evict. Otherwise, once more than this many plans are
  /// resident, the least-recently-used ones are evicted — only if their
  /// snapshot is safely on disk (requires snapshot_dir; a plan whose save
  /// fails is never dropped).
  uint32_t max_resident_plans = 0;
};

class PlanStore {
 public:
  explicit PlanStore(PlanStoreOptions options);
  /// Legacy convenience: default options with just a snapshot dir.
  explicit PlanStore(std::string snapshot_dir = "");

  PlanStore(const PlanStore&) = delete;
  PlanStore& operator=(const PlanStore&) = delete;

  /// Resolves `key` for `session`'s (program, EDB) — its digests, so any
  /// session with equal digests shares the plan — compiling at most once
  /// per store key. Safe to call from any number of threads; every Compile
  /// runs under the store's compile lock. The session must have its EDB
  /// loaded.
  Result<std::shared_ptr<const pipeline::CompiledPlan>> GetOrCompile(
      pipeline::Session& session, const pipeline::PlanKey& key);

  PlanStoreStats stats() const;
  const std::string& snapshot_dir() const { return options_.snapshot_dir; }

 private:
  struct Entry {
    std::shared_ptr<const pipeline::CompiledPlan> plan;
    PlanStoreKey key;        ///< for snapshot naming during eviction
    uint64_t last_used = 0;  ///< tick_ at last hit/insert
    bool on_disk = false;    ///< a valid snapshot exists for this plan
  };

  std::string PathFor(const PlanStoreKey& key) const;
  /// The registered plan for `key`, marked used, or null. Caller holds mu_.
  std::shared_ptr<const pipeline::CompiledPlan> FindLocked(
      const PlanStoreKey& key);
  /// Drops LRU entries until resident <= max_resident_plans. Runs under
  /// compile_mu_ (eviction is miss-path-only work) and takes mu_.
  void EvictIfNeeded();

  PlanStoreOptions options_;
  // Cost distributions of the rare events (default registry, resolved at
  // construction); the counts live in the atomics below.
  obs::Histogram* obs_compile_ns_ = nullptr;  ///< dlcirc_plan_compile_ns
  obs::Histogram* obs_load_ns_ = nullptr;     ///< dlcirc_plan_snapshot_load_ns

  mutable std::mutex mu_;  ///< guards plans_ and tick_
  std::unordered_map<PlanStoreKey, Entry, PlanStoreKeyHash> plans_;
  uint64_t tick_ = 0;  ///< LRU clock

  std::mutex compile_mu_;  ///< serializes compiles (all non-const Session use)

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> compiles_{0};
  std::atomic<uint64_t> snapshot_loads_{0};
  std::atomic<uint64_t> snapshot_saves_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace serve
}  // namespace dlcirc

#endif  // DLCIRC_SERVE_PLAN_STORE_H_
