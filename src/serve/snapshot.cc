#include "src/serve/snapshot.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define DLCIRC_SNAPSHOT_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "src/analysis/verify.h"
#include "src/util/hash.h"

namespace dlcirc {
namespace serve {
namespace {

constexpr uint32_t kMagic = 0x50434C44;  // "DLCP" little-endian

/// Appends fixed-width little-endian integers to a byte buffer.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void String(const std::string& s) {
    U64(s.size());
    buf_.append(s);
  }
  void U32Vector(const std::vector<uint32_t>& v) {
    U64(v.size());
    for (uint32_t x : v) U32(x);
  }
  void Gates(const std::vector<Gate>& gates) {
    U64(gates.size());
    for (const Gate& g : gates) {
      U8(static_cast<uint8_t>(g.kind));
      U32(g.a);
      U32(g.b);
    }
  }
  const std::string& buffer() const { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian reads; any overrun latches the error flag.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t U8() { return static_cast<uint8_t>(Byte()); }
  uint32_t U32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(Byte()) << (8 * i);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(Byte()) << (8 * i);
    return v;
  }
  std::string String() {
    uint64_t n = U64();
    if (failed_ || n > data_.size() - pos_) {
      failed_ = true;
      return {};
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  // The bulk decoders run over pre-bounds-checked raw bytes (no per-byte
  // call or check): snapshot load time is the warm-start latency, and the
  // gate/index arrays are megabytes on real plans.
  std::vector<uint32_t> U32Vector() {
    uint64_t n = U64();
    if (failed_ || n > (data_.size() - pos_) / 4) {
      failed_ = true;
      return {};
    }
    std::vector<uint32_t> v(n);
    const auto* p = reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
    for (uint64_t i = 0; i < n; ++i, p += 4) {
      v[i] = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
             (static_cast<uint32_t>(p[2]) << 16) |
             (static_cast<uint32_t>(p[3]) << 24);
    }
    pos_ += n * 4;
    return v;
  }
  std::vector<Gate> Gates() {
    uint64_t n = U64();
    if (failed_ || n > (data_.size() - pos_) / 9) {
      failed_ = true;
      return {};
    }
    std::vector<Gate> gates(n);
    const auto* p = reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
    for (uint64_t i = 0; i < n; ++i, p += 9) {
      if (p[0] > static_cast<uint8_t>(GateKind::kTimes)) failed_ = true;
      gates[i].kind = static_cast<GateKind>(p[0]);
      gates[i].a = static_cast<uint32_t>(p[1]) |
                   (static_cast<uint32_t>(p[2]) << 8) |
                   (static_cast<uint32_t>(p[3]) << 16) |
                   (static_cast<uint32_t>(p[4]) << 24);
      gates[i].b = static_cast<uint32_t>(p[5]) |
                   (static_cast<uint32_t>(p[6]) << 8) |
                   (static_cast<uint32_t>(p[7]) << 16) |
                   (static_cast<uint32_t>(p[8]) << 24);
    }
    pos_ += n * 9;
    return gates;
  }

  bool failed() const { return failed_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  unsigned char Byte() {
    if (pos_ >= data_.size()) {
      failed_ = true;
      return 0;
    }
    return static_cast<unsigned char>(data_[pos_++]);
  }
  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// FNV-1a over 8-byte little-endian chunks (last chunk zero-padded), plus the
// length. ~8x the throughput of byte-wise FNV — the checksum pass is on the
// warm-start latency path over tens of megabytes — with the same
// corruption-detection power for this use.
uint64_t Checksum(std::string_view payload) {
  uint64_t h = 0xcbf29ce484222325ULL ^ payload.size();
  size_t i = 0;
  for (; i + 8 <= payload.size(); i += 8) {
    uint64_t chunk = 0;
    for (int b = 0; b < 8; ++b) {
      chunk |= static_cast<uint64_t>(
                   static_cast<unsigned char>(payload[i + b]))
               << (8 * b);
    }
    h = (h ^ chunk) * 0x100000001b3ULL;
  }
  uint64_t tail = 0;
  for (int b = 0; i < payload.size(); ++i, ++b) {
    tail |= static_cast<uint64_t>(static_cast<unsigned char>(payload[i]))
            << (8 * b);
  }
  h = (h ^ tail) * 0x100000001b3ULL;
  return h;
}

/// Removes the temp file on every exit path unless Disarm()ed after the
/// rename succeeds. SavePlan has three failure exits (open, short write,
/// rename) and each used to decide cleanup on its own — the open and
/// short-write paths forgot, leaving stray *.tmp files for the
/// store's startup sweep to find. std::remove on a never-created file is a
/// harmless ENOENT.
class TmpFileGuard {
 public:
  explicit TmpFileGuard(std::string path) : path_(std::move(path)) {}
  ~TmpFileGuard() {
    if (armed_) std::remove(path_.c_str());
  }
  void Disarm() { armed_ = false; }
  TmpFileGuard(const TmpFileGuard&) = delete;
  TmpFileGuard& operator=(const TmpFileGuard&) = delete;

 private:
  std::string path_;
  bool armed_ = true;
};

/// Read-only view of a snapshot file: mmap where available (the decode pass
/// then streams straight out of the page cache with no up-front whole-file
/// copy), an ifstream slurp elsewhere. The decoded plan copies everything it
/// keeps, so the mapping's lifetime ends with LoadPlan.
class MappedFile {
 public:
  /// Identity of the mapped file at open time (device, inode, size,
  /// mtime in ns). Zero/invalid when the platform gives no stat (fallback
  /// path) — callers treat that as "no identity" and skip memoization.
  struct FileId {
    uint64_t dev = 0;
    uint64_t ino = 0;
    uint64_t size = 0;
    uint64_t mtime_ns = 0;
    bool valid = false;
  };

  explicit MappedFile(const std::string& path) {
#ifdef DLCIRC_SNAPSHOT_HAS_MMAP
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return;
    }
    id_.dev = static_cast<uint64_t>(st.st_dev);
    id_.ino = static_cast<uint64_t>(st.st_ino);
    id_.size = static_cast<uint64_t>(st.st_size);
    id_.mtime_ns = static_cast<uint64_t>(st.st_mtim.tv_sec) * 1000000000ULL +
                   static_cast<uint64_t>(st.st_mtim.tv_nsec);
    id_.valid = true;
    len_ = static_cast<size_t>(st.st_size);
    ok_ = true;  // empty file: valid view, nothing to map
    if (len_ > 0) {
      void* m = ::mmap(nullptr, len_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (m == MAP_FAILED) {
        ok_ = false;
        len_ = 0;
      } else {
        map_ = m;
      }
    }
    ::close(fd);
#else
    std::ifstream in(path, std::ios::binary);
    if (!in) return;
    std::ostringstream ss;
    ss << in.rdbuf();
    fallback_ = ss.str();
    ok_ = true;
#endif
  }
  ~MappedFile() {
#ifdef DLCIRC_SNAPSHOT_HAS_MMAP
    if (map_ != nullptr) ::munmap(map_, len_);
#endif
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  bool ok() const { return ok_; }
  const FileId& id() const { return id_; }
  std::string_view view() const {
#ifdef DLCIRC_SNAPSHOT_HAS_MMAP
    if (map_ == nullptr) return {};
    return {static_cast<const char*>(map_), len_};
#else
    return fallback_;
#endif
  }

 private:
#ifdef DLCIRC_SNAPSHOT_HAS_MMAP
  void* map_ = nullptr;
  size_t len_ = 0;
#else
  std::string fallback_;
#endif
  FileId id_;
  bool ok_ = false;
};

/// Everything one snapshot payload decodes to, with the circuit kept as raw
/// parts: constructing a Circuit runs CHECKed stats/cone passes, so the
/// arena must pass the structural verifier first. Shared by LoadPlan (which
/// additionally validates digests/key against expectations) and
/// InspectSnapshot (which reports findings instead).
struct RawSnapshot {
  uint64_t checksum = 0;  ///< validated payload checksum (memo key part)
  uint64_t program_digest = 0;
  uint64_t edb_digest = 0;
  pipeline::PlanKey key;
  uint32_t layers_used = 0;
  bool reached_fixpoint = false;
  Circuit::Stats unoptimized;
  std::vector<eval::PassStats> pass_stats;
  uint32_t num_vars = 0;
  std::vector<Gate> circuit_gates;
  std::vector<GateId> circuit_outputs;
};

/// Header + checksum + payload walk. Returns an error message, or empty on
/// success. Only reader-level failures (truncation, counts that overrun the
/// payload) are errors here; whether the decoded circuit is well formed is
/// the structural verifier's question, asked by the callers.
std::string DecodeSnapshot(std::string_view data, RawSnapshot* out) {
  // Header (8) + payload + checksum (8).
  if (data.size() < 16) return "truncated";
  {
    ByteReader header(data.substr(0, 8));
    if (header.U32() != kMagic) return "bad magic (not a plan snapshot)";
    uint32_t version = header.U32();
    if (version != kSnapshotVersion) {
      return "version " + std::to_string(version) + " (expected " +
             std::to_string(kSnapshotVersion) + ")";
    }
  }
  std::string_view payload = data.substr(8, data.size() - 16);
  {
    uint64_t want = Checksum(payload);
    ByteReader footer(data.substr(data.size() - 8));
    if (footer.U64() != want) return "checksum mismatch";
    out->checksum = want;
  }

  ByteReader r(payload);
  out->program_digest = r.U64();
  out->edb_digest = r.U64();

  out->key.construction = static_cast<pipeline::Construction>(r.U8());
  out->key.plus_idempotent = r.U8() != 0;
  out->key.absorptive = r.U8() != 0;
  out->key.times_idempotent = r.U8() != 0;
  out->key.max_layers = r.U32();
  out->layers_used = r.U32();
  out->reached_fixpoint = r.U8() != 0;

  out->unoptimized.size = r.U64();
  out->unoptimized.num_plus = r.U64();
  out->unoptimized.num_times = r.U64();
  out->unoptimized.num_inputs = r.U64();
  out->unoptimized.depth = r.U32();

  uint64_t num_passes = r.U64();
  if (r.failed() || num_passes > 64) return "malformed pass stats";
  out->pass_stats.resize(num_passes);
  for (eval::PassStats& p : out->pass_stats) {
    p.name = r.String();
    p.gates_before = r.U64();
    p.gates_after = r.U64();
    p.arena_before = r.U64();
    p.arena_after = r.U64();
  }

  out->num_vars = r.U32();
  out->circuit_gates = r.Gates();
  out->circuit_outputs = r.U32Vector();
  if (r.failed() || !r.exhausted()) return "malformed circuit section";
  return {};
}

/// Process-lifetime memo of structurally verified snapshots. A serving
/// process loads the same shard files repeatedly (store reopen, epoch
/// bumps, lane rebuilds); the structural verifier is a pure function of the
/// payload bytes, so re-verifying an unchanged file buys nothing.
///
/// The key is the file's stat identity (device, inode, size, mtime in ns)
/// PLUS the validated payload checksum. Checksum alone is not enough: the
/// chunk-folded FNV footer is linear enough that two different single-bit
/// corruptions in the same bit column at the same chunk distance collide
/// (the snapshot fuzz suite produces such pairs), and a memo keyed on it
/// would let the second corrupted payload skip verification. Any rewrite of
/// the file changes inode (SavePlan renames) or mtime, so every new content
/// reaching a path is verified before first use; only genuinely repeated
/// loads of the untouched file hit. Bounded: the set is cleared when it
/// hits the cap (a plain reset beats an eviction policy at this size).
class VerifiedSnapshotMemo {
 public:
  using Key = std::array<uint64_t, 5>;

  static Key MakeKey(const MappedFile::FileId& id, uint64_t checksum) {
    return {id.dev, id.ino, id.size, id.mtime_ns, checksum};
  }

  bool Contains(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    return verified_.count(key) > 0;
  }
  void Insert(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    if (verified_.size() >= kCap) verified_.clear();
    verified_.insert(key);
  }

 private:
  static constexpr size_t kCap = 256;
  std::mutex mu_;
  std::set<Key> verified_;
};

VerifiedSnapshotMemo& TheVerifiedSnapshotMemo() {
  static VerifiedSnapshotMemo memo;
  return memo;
}

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

uint64_t SnapshotChecksum(std::string_view payload) {
  return Checksum(payload);
}

std::string SnapshotFileName(uint64_t program_digest, uint64_t edb_digest,
                             const pipeline::PlanKey& key) {
  uint64_t kh = pipeline::PlanKeyHash{}(key);
  return "plan-" + Hex(program_digest) + "-" + Hex(edb_digest) + "-" +
         Hex(kh) + ".dlcp";
}

Result<bool> SavePlan(const pipeline::CompiledPlan& plan,
                      uint64_t program_digest, uint64_t edb_digest,
                      const std::string& path) {
  ByteWriter w;
  w.U64(program_digest);
  w.U64(edb_digest);

  w.U8(static_cast<uint8_t>(plan.key.construction));
  w.U8(plan.key.plus_idempotent ? 1 : 0);
  w.U8(plan.key.absorptive ? 1 : 0);
  w.U8(plan.key.times_idempotent ? 1 : 0);
  w.U32(plan.key.max_layers);
  w.U32(plan.layers_used);
  w.U8(plan.reached_fixpoint ? 1 : 0);

  w.U64(plan.unoptimized.size);
  w.U64(plan.unoptimized.num_plus);
  w.U64(plan.unoptimized.num_times);
  w.U64(plan.unoptimized.num_inputs);
  w.U32(plan.unoptimized.depth);

  w.U64(plan.pass_stats.size());
  for (const eval::PassStats& p : plan.pass_stats) {
    w.String(p.name);
    w.U64(p.gates_before);
    w.U64(p.gates_after);
    w.U64(p.arena_before);
    w.U64(p.arena_after);
  }

  w.U32(plan.circuit.num_vars());
  w.Gates(plan.circuit.gates());
  w.U32Vector(plan.circuit.outputs());

  ByteWriter file;
  file.U32(kMagic);
  file.U32(kSnapshotVersion);
  const std::string& payload = w.buffer();

  // Temp-file + rename: a concurrent LoadPlan either sees the complete old
  // file, the complete new one, or ENOENT — never a prefix. The guard owns
  // cleanup for every failure exit; only a completed rename disarms it.
  // (A crash between write and rename still strands the temp file — the
  // PlanStore sweeps stray *.tmp from its snapshot dir at startup.)
  const std::string tmp = path + ".tmp";
  TmpFileGuard guard(tmp);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Result<bool>::Error("cannot write " + tmp);
    out.write(file.buffer().data(),
              static_cast<std::streamsize>(file.buffer().size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    ByteWriter footer;
    footer.U64(Checksum(payload));
    out.write(footer.buffer().data(),
              static_cast<std::streamsize>(footer.buffer().size()));
    out.flush();
    if (!out) return Result<bool>::Error("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Result<bool>::Error("cannot rename " + tmp + " to " + path);
  }
  guard.Disarm();
  return true;
}

Result<std::shared_ptr<const pipeline::CompiledPlan>> LoadPlan(
    const std::string& path, uint64_t program_digest, uint64_t edb_digest,
    const pipeline::PlanKey& key, LoadStats* stats) {
  using Out = Result<std::shared_ptr<const pipeline::CompiledPlan>>;
  using Clock = std::chrono::steady_clock;
  auto fail = [&path](const std::string& what) {
    return Out::Error("snapshot " + path + ": " + what);
  };

  const Clock::time_point t_start = Clock::now();
  MappedFile file(path);
  if (!file.ok()) return fail("cannot open");
  RawSnapshot raw;
  std::string decode_error = DecodeSnapshot(file.view(), &raw);
  if (!decode_error.empty()) return fail(decode_error);

  if (raw.program_digest != program_digest || raw.edb_digest != edb_digest) {
    return fail("compiled from a different program/EDB (digest mismatch)");
  }
  if (!(raw.key == key)) return fail("snapshot is for a different plan key");
  const Clock::time_point t_decoded = Clock::now();

  // The structural verifier stands between the checksum and the Circuit
  // constructor, whose CHECKs would abort the serving process on a payload
  // that checksums clean (or was re-checksummed by an attacker or a buggy
  // producer) but is not a well-formed circuit; such a file is rejected
  // here with the invariant named. A file this process already verified and
  // that has not changed on disk (same dev/inode/size/mtime AND same
  // payload checksum) skips the pass; any rewrite changes the identity, so
  // new content is always verified.
  const VerifiedSnapshotMemo::Key memo_key =
      VerifiedSnapshotMemo::MakeKey(file.id(), raw.checksum);
  const bool memoized =
      file.id().valid && TheVerifiedSnapshotMemo().Contains(memo_key);
  if (!memoized) {
    std::vector<analysis::Diagnostic> findings = analysis::VerifyCircuitParts(
        raw.circuit_gates, raw.circuit_outputs, raw.num_vars);
    if (const analysis::Diagnostic* e = analysis::FirstError(findings)) {
      return fail("circuit invariant violated [" + e->code + "]: " +
                  e->message);
    }
    if (file.id().valid) TheVerifiedSnapshotMemo().Insert(memo_key);
  }
  const Clock::time_point t_verified = Clock::now();

  // The plan is rebuilt, not stored: EvalPlan::Build is what
  // Session::Compile runs on the same circuit, so a loaded plan is
  // bit-identical to a compiled one.
  auto plan = std::make_shared<pipeline::CompiledPlan>();
  plan->key = raw.key;
  plan->layers_used = raw.layers_used;
  plan->reached_fixpoint = raw.reached_fixpoint;
  plan->unoptimized = raw.unoptimized;
  plan->pass_stats = std::move(raw.pass_stats);
  plan->circuit = Circuit(std::move(raw.circuit_gates),
                          std::move(raw.circuit_outputs), raw.num_vars);
  plan->plan = eval::EvalPlan::Build(plan->circuit);

  if (stats != nullptr) {
    stats->decode_ms = MsBetween(t_start, t_decoded);
    stats->verify_ms = MsBetween(t_decoded, t_verified);
    stats->rebuild_ms = MsBetween(t_verified, Clock::now());
    stats->verify_memoized = memoized;
  }
  return std::shared_ptr<const pipeline::CompiledPlan>(std::move(plan));
}

Result<SnapshotInfo> InspectSnapshot(const std::string& path) {
  using Out = Result<SnapshotInfo>;
  MappedFile file(path);
  if (!file.ok()) return Out::Error("snapshot " + path + ": cannot open");
  RawSnapshot raw;
  std::string decode_error = DecodeSnapshot(file.view(), &raw);
  if (!decode_error.empty()) {
    return Out::Error("snapshot " + path + ": " + decode_error);
  }

  SnapshotInfo info;
  info.program_digest = raw.program_digest;
  info.edb_digest = raw.edb_digest;
  info.key = raw.key;
  info.num_gates = raw.circuit_gates.size();
  info.num_outputs = raw.circuit_outputs.size();
  info.num_vars = raw.num_vars;

  info.findings = analysis::VerifyCircuitParts(raw.circuit_gates,
                                               raw.circuit_outputs,
                                               raw.num_vars);
  if (analysis::Clean(info.findings)) {
    const eval::EvalPlan plan = eval::EvalPlan::Build(
        Circuit(std::move(raw.circuit_gates), std::move(raw.circuit_outputs),
                raw.num_vars));
    info.num_slots = plan.num_slots();
    info.num_layers = plan.num_layers();
  }
  std::vector<analysis::Diagnostic> key_findings =
      analysis::VerifyPlanKey(raw.key);
  info.findings.insert(info.findings.end(), key_findings.begin(),
                       key_findings.end());
  return info;
}

}  // namespace serve
}  // namespace dlcirc
