// Versioned binary snapshots of compiled plans (warm-start serving).
//
// The expensive prefix of the pipeline — grounding, circuit construction,
// optimizer passes — is a pure function of (program, EDB, PlanKey). A
// snapshot persists its result, the post-pass circuit, so a restarted
// process re-serves the same workload without recompiling. The EvalPlan is
// not stored: LoadPlan rebuilds it with EvalPlan::Build, the one O(gates)
// pass Session::Compile also runs, so only src/eval knows the plan's index
// layout and a loaded plan is bit-identical to a compiled one. Loads are
// validated three ways: a magic/version header, the (program digest, EDB
// digest) pair the plan was compiled from, and an FNV-1a checksum over the
// payload; the circuit then passes the structural verifier
// (analysis::VerifyCircuitParts) before it is constructed.
//
// Format (all integers little-endian, independent of host endianness):
//
//   "DLCP" u32 | version u32 | payload ... | checksum(payload) u64
//
//   payload = program digest u64 | EDB digest u64
//           | key: construction u8, plus_idempotent u8, absorptive u8,
//             times_idempotent u8, max_layers u32
//           | layers_used u32 | reached_fixpoint u8
//           | unoptimized stats: size, num_plus, num_times, num_inputs u64,
//             depth u32
//           | pass count u64, then per pass: name (u64 length + bytes),
//             gates_before, gates_after, arena_before, arena_after u64
//           | circuit: num_vars u32 | gate count u64, then per gate
//             kind u8, a u32, b u32 | output count u64, then u32 gate ids
//
// where checksum is FNV-1a folded over 8-byte little-endian chunks (see
// snapshot.cc) — byte-wise FNV is a serial dependency chain too slow for
// the tens-of-megabytes arrays on the warm-start latency path.
//
// Saves write to `path.tmp` and rename into place, so a concurrent reader
// never observes a torn file; every in-process failure path removes the
// temp file (only a crash between write and rename can strand one, and the
// PlanStore sweeps stray *.tmp at startup). Loads mmap the file
// read-only where the platform allows (ifstream slurp elsewhere), so the
// checksum + decode pass streams from the page cache without an up-front
// whole-file copy. The format owns no compatibility promise beyond its
// version byte: a version bump invalidates old snapshots, which simply
// fall back to a cold compile.
#ifndef DLCIRC_SERVE_SNAPSHOT_H_
#define DLCIRC_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/pipeline/session.h"
#include "src/util/result.h"

namespace dlcirc {
namespace serve {

/// Bumped whenever the payload layout changes; loaders reject other versions,
/// and a rejected file falls back to a cold compile.
/// v2: PlanKey gained times_idempotent (one byte after absorptive).
/// v3: the plan section is gone; the payload ends with the circuit, and
///     LoadPlan rebuilds the plan with EvalPlan::Build.
inline constexpr uint32_t kSnapshotVersion = 3;

/// Canonical snapshot file name for one (program, EDB, key) triple:
/// "plan-<program digest>-<edb digest>-<key hash>.dlcp" (hex).
std::string SnapshotFileName(uint64_t program_digest, uint64_t edb_digest,
                             const pipeline::PlanKey& key);

/// Serializes `plan` (compiled from the identified program/EDB) to `path`.
/// Fails on I/O errors only.
Result<bool> SavePlan(const pipeline::CompiledPlan& plan,
                      uint64_t program_digest, uint64_t edb_digest,
                      const std::string& path);

/// Where one LoadPlan spent its time (all milliseconds), for callers that
/// report warm-start latency (the E20 bench) — pass nullptr otherwise.
struct LoadStats {
  double decode_ms = 0;   ///< open + mmap + checksum + payload walk
  double verify_ms = 0;   ///< VerifyCircuitParts (~0 when memoized)
  double rebuild_ms = 0;  ///< Circuit constructor + EvalPlan::Build
  /// True when this exact file (same identity on disk, same checksum) was
  /// already structurally verified by this process, so the verifier did not
  /// run again.
  bool verify_memoized = false;
};

/// Deserializes a snapshot and validates it against the expected digests and
/// key, then rebuilds the plan from the stored circuit. Any mismatch
/// (missing file, bad magic/version, checksum, digest or key disagreement,
/// a malformed circuit) is an error; callers treat every error as "cold
/// compile instead". The returned plan's input space is the stored
/// circuit's num_vars, which only a caller that knows its EDB can check
/// (PlanStore does).
///
/// Structural verification is memoized per process on the file's identity
/// (device, inode, size, mtime) plus the validated payload checksum —
/// ccache-style: the first load of a file runs the circuit verifier; repeat
/// loads of the untouched file skip it. Corruption cannot hide behind the
/// memo: any rewrite of the file changes its inode (SavePlan renames into
/// place) or mtime, so new content on a path is always verified before
/// first use. The checksum alone would not be a sound key — the chunked
/// FNV footer admits collisions between distinct corrupted payloads (see
/// tests/snapshot_fuzz_test.cc).
Result<std::shared_ptr<const pipeline::CompiledPlan>> LoadPlan(
    const std::string& path, uint64_t program_digest, uint64_t edb_digest,
    const pipeline::PlanKey& key, LoadStats* stats = nullptr);

/// The payload checksum the snapshot format uses (FNV-1a over 8-byte LE
/// chunks, length-seeded). Exposed so tests can forge *checksum-valid*
/// corrupted snapshots: flipping payload bytes and recomputing the footer
/// gets corruption past the checksum, which is exactly what the structural
/// verifier (src/analysis/verify.h) must then catch.
uint64_t SnapshotChecksum(std::string_view payload);

/// What `dlcirc check --snapshot` reports: the snapshot's identity fields
/// plus every structural-verifier finding. Produced without an expected
/// digest/key (unlike LoadPlan, which validates against its caller's).
/// Slots and layers come from the plan rebuilt from the circuit, and are 0
/// when the circuit does not verify clean.
struct SnapshotInfo {
  uint64_t program_digest = 0;
  uint64_t edb_digest = 0;
  pipeline::PlanKey key;
  uint64_t num_gates = 0;    ///< circuit arena gates
  uint64_t num_slots = 0;    ///< rebuilt plan slots (output cone)
  uint64_t num_layers = 0;
  uint64_t num_outputs = 0;
  uint32_t num_vars = 0;
  /// VerifyCircuitParts + VerifyPlanKey findings, in that order. Circuit
  /// errors here mean LoadPlan would reject the file.
  std::vector<analysis::Diagnostic> findings;
};

/// Decodes and structurally verifies a snapshot without loading it into a
/// CompiledPlan. Errors cover what precedes structure: unreadable file, bad
/// magic/version, checksum mismatch, or a payload the decoder cannot walk.
/// Invariant violations inside a decodable payload land in `findings`.
Result<SnapshotInfo> InspectSnapshot(const std::string& path);

}  // namespace serve
}  // namespace dlcirc

#endif  // DLCIRC_SERVE_SNAPSHOT_H_
