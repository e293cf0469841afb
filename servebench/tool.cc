// servebench_tool: the compiled half of servebench (see README.md).
//
//   servebench_tool drive --port P --scripts PREFIX --conns C --depth D
//       --warmup S --seconds S --slices N --out FILE [--pid PID]
//     Closed-loop TCP client against a running `dlcirc serve --listen`.
//     Connection i cycles through PREFIX.<i>.ndjson. Every response is
//     written to FILE as `conn \t seq \t send_ns \t recv_ns \t line`; one
//     JSON summary line goes to stdout: the window's slice boundaries, the
//     server's cumulative CPU ticks at each, requests sent per connection,
//     and the host's steal share over the window.
//
//   servebench_tool replay --program F --graph F --dir D --conns C
//       --front-depth D --max-batch B --trace-out FILE
//     Replays a workload's generated inputs (D/main.<i>.ndjson,
//     D/probe.<i>.ndjson, D/setup.ndjson) over the tropical semiring in
//     process through one public call per layer, recording one span per
//     call, and prints the per-layer table plus a final JSON line of
//     per-layer metrics. The fixed-work layers run twice, spans off and
//     then on; the difference is reported as the tracing overhead. The net
//     layer's echo loop sends D/front.<i>.ndjson at the front phase's
//     depth.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "loadgen.h"
#include "src/eval/batch.h"
#include "src/eval/delta.h"
#include "src/eval/evaluator.h"
#include "src/explain/explain.h"
#include "src/pipeline/semiring_registry.h"
#include "src/pipeline/session.h"
#include "src/semiring/instances.h"
#include "src/serve/net.h"
#include "src/serve/plan_store.h"
#include "src/serve/server.h"
#include "src/serve/snapshot.h"
#include "src/serve/wire.h"

namespace servebench {
namespace {

using dlcirc::pipeline::Session;
// Every workload serves tropical (min, +) provenance.
using S = dlcirc::TropicalSemiring;

// The echo loop answers hundreds of thousands of lines a second; spans are
// kept for the first ones only.
constexpr size_t kMaxEchoSpans = 20000;
// In-process broker round trips per replay pass.
constexpr size_t kBrokerRequests = 400;
// Updates replayed per lane, each followed by one of the lane's explains.
constexpr size_t kLaneUpdates = 64;

// ------------------------------------------------------------------ flags

struct Flags {
  std::map<std::string, std::string> values;

  static Flags Parse(int argc, char** argv, int first) {
    Flags f;
    for (int i = first; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) == 0) key = key.substr(2);
      f.values[key] = argv[i + 1];
    }
    return f;
  }
  std::string Get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) {
      std::cerr << "servebench_tool: missing --" << key << "\n";
      std::exit(2);
    }
    return it->second;
  }
  double Num(const std::string& key) const { return std::stod(Get(key)); }
};

bool ReadText(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool ReadLines(const std::string& path, std::vector<std::string>* out) {
  std::ifstream in(path);
  if (!in) return false;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) out->push_back(line);
  }
  return true;
}

std::vector<std::vector<std::string>> ReadScripts(const std::string& prefix,
                                                  int conns) {
  std::vector<std::vector<std::string>> scripts(conns);
  for (int i = 0; i < conns; ++i) {
    const std::string path = prefix + "." + std::to_string(i) + ".ndjson";
    if (!ReadLines(path, &scripts[i]) || scripts[i].empty()) {
      std::cerr << "servebench_tool: cannot read script " << path << "\n";
      std::exit(2);
    }
  }
  return scripts;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank, as the server's own histograms (and run.py) report.
  const double rank = std::ceil(q * static_cast<double>(v.size()) - 1e-9);
  return v[std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1,
                              v.size()) -
           1];
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ------------------------------------------------------------------ drive

// utime + stime of a process, in clock ticks.
uint64_t ProcessCpuTicks(int pid) {
  std::string stat;
  if (pid <= 0 || !ReadText("/proc/" + std::to_string(pid) + "/stat", &stat)) {
    return 0;
  }
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (rest >> field); ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return utime + stime;
}

// (steal, total) jiffies of the aggregate cpu line of /proc/stat.
std::pair<uint64_t, uint64_t> HostStealTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  uint64_t total = 0, steal = 0, v = 0;
  for (int i = 0; i < 10 && (in >> v); ++i) {
    if (i < 8) total += v;  // guest time is already counted in user
    if (i == 7) steal = v;
  }
  return {steal, total};
}

int Drive(const Flags& flags) {
  const int conns = static_cast<int>(flags.Num("conns"));
  const auto scripts = ReadScripts(flags.Get("scripts"), conns);
  const int pid = flags.values.count("pid") ? std::stoi(flags.Get("pid")) : 0;

  std::vector<uint64_t> cpu;
  std::pair<uint64_t, uint64_t> steal0, steal1;
  LoopOptions options;
  options.port = static_cast<uint16_t>(flags.Num("port"));
  options.depth = static_cast<int>(flags.Num("depth"));
  options.warmup_s = flags.Num("warmup");
  options.window_s = flags.Num("seconds");
  options.slices = static_cast<int>(flags.Num("slices"));
  options.on_boundary = [&](int k) {
    cpu.push_back(ProcessCpuTicks(pid));
    (k == 0 ? steal0 : steal1) = HostStealTicks();
  };
  LoopResult r = RunClosedLoop(scripts, options);
  cpu.resize(r.boundaries_ns.size(), cpu.empty() ? 0 : cpu.back());

  std::ofstream out(flags.Get("out"), std::ios::binary);
  std::string row;
  for (const Record& rec : r.records) {
    row.clear();
    row += std::to_string(rec.conn) + '\t' + std::to_string(rec.seq) + '\t' +
           std::to_string(rec.send_ns) + '\t' + std::to_string(rec.recv_ns) +
           '\t' + rec.line + '\n';
    out << row;
  }
  out.close();
  const double steal_total = static_cast<double>(steal1.second - steal0.second);
  auto list = [](const std::vector<uint64_t>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + std::to_string(v[i]);
    }
    return out + "]";
  };
  std::cout << "{\"boundaries_ns\": " << list(r.boundaries_ns)
            << ", \"server_cpu_ticks\": " << list(cpu)
            << ", \"sent\": " << list(r.sent) << ", \"received\": "
            << r.records.size() << ", \"clk_tck\": " << sysconf(_SC_CLK_TCK)
            << ", \"steal_frac\": "
            << (steal_total > 0 ? static_cast<double>(steal1.first -
                                                      steal0.first) /
                                      steal_total
                                : 0.0)
            << ", \"error\": \"" << dlcirc::serve::JsonEscape(r.error)
            << "\"}" << std::endl;
  return r.error.empty() ? 0 : 1;
}

// ------------------------------------------------------------------ spans

// One span per call into a layer, kept in memory and written as Chrome
// trace_event JSON at the end. Disabled tracers take no clock reads.
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;      // index into spans, -1 for a root
  int64_t request_id = -1;  // script request (conn * 1e6 + line), or -1
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  int64_t Begin(std::string name, int64_t request_id = -1) {
    if (!on_) return -1;
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request_id = request_id;
    s.start_ns = MonotonicNs();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int64_t>(spans_.size() - 1));
    return stack_.back();
  }
  void End(int64_t index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = MonotonicNs();
    stack_.pop_back();
  }
  // A span measured elsewhere (the load generator's send/receive stamps).
  void Add(std::string name, uint64_t start_ns, uint64_t end_ns,
           int64_t request_id) {
    if (!on_) return;
    spans_.push_back({std::move(name), start_ns, end_ns,
                      stack_.empty() ? -1 : stack_.back(), request_id});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

class Scoped {
 public:
  Scoped(Tracer& t, std::string name, int64_t request_id = -1)
      : t_(t), index_(t.Begin(std::move(name), request_id)) {}
  ~Scoped() { t_.End(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  int64_t index_;
};

bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const uint64_t base = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[128];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i) out << ",\n";
    out << "{\"name\":\"" << dlcirc::serve::JsonEscape(s.name)
        << "\",\"cat\":\"" << s.name.substr(0, s.name.find('.'))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,";
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << buf << "\"args\":{\"span_id\":" << i << ",\"parent\":" << s.parent
        << ",\"request_id\":" << s.request_id << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// Per span name: count, total and self time (duration minus the time its
// direct children cover).
void PrintSpanTable(const std::vector<Span>& spans) {
  struct Row {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> child_ms(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    Row& r = rows[spans[i].name];
    const double ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    ++r.count;
    r.total_ms += ms;
    r.self_ms += std::max(0.0, ms - child_ms[i]);
  }
  std::printf("%-26s %9s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, r] : rows) {
    std::printf("%-26s %9llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(r.count), r.total_ms,
                r.self_ms);
  }
}

// ------------------------------------------------------------------ inputs

// One generated request line, decoded through the wire layer.
struct Request {
  // conn * 1e6 + index in the connection's main, probe and front lines.
  int64_t id = -1;
  std::string op;
  std::string lane;
  std::vector<std::string> tags;
  std::vector<std::pair<uint32_t, std::string>> set;
  std::vector<uint32_t> facts;
  uint32_t k = 1;
};

struct Inputs {
  std::string program_text;
  std::string graph_text;
  int front_depth = 1;
  int max_batch = 16;
  std::vector<std::vector<std::string>> main_scripts;
  std::vector<std::vector<std::string>> front_scripts;
  std::vector<std::vector<Request>> scripts;  // main then probe, per conn
  std::vector<size_t> main_len;               // main requests per conn
  std::vector<Request> setup;                 // lane materializations
};

bool ParseFact(const std::string& text, std::string* pred,
               std::vector<std::string>* constants) {
  const size_t open = text.find('(');
  if (open == std::string::npos || text.back() != ')') return false;
  *pred = text.substr(0, open);
  std::string body = text.substr(open + 1, text.size() - open - 2);
  constants->clear();
  for (size_t b = 0, c; b <= body.size(); b = c + 1) {
    c = body.find(',', b);
    if (c == std::string::npos) c = body.size();
    constants->push_back(body.substr(b, c - b));
  }
  return true;
}

Request Decode(Session& session, const std::string& line, int64_t id) {
  Request r;
  r.id = id;
  auto parsed = dlcirc::serve::ParseJson(line);
  if (!parsed.ok()) {
    std::cerr << "servebench_tool: bad request line: " << parsed.error() << "\n";
    std::exit(2);
  }
  const auto& json = parsed.value();
  auto text = [&](const char* key) {
    const auto* v = json.Find(key);
    return v == nullptr ? std::string() : v->text;
  };
  r.op = text("op");
  r.lane = text("lane");
  if (const auto* tags = json.Find("tags")) {
    for (const auto& t : tags->items) r.tags.push_back(t.text);
  }
  if (const auto* set = json.Find("set")) {
    for (const auto& pair : set->items) {
      std::string var = pair.items[0].text;
      if (!var.empty() && var[0] == 'x') var = var.substr(1);
      r.set.emplace_back(static_cast<uint32_t>(std::stoul(var)),
                         pair.items[1].text);
    }
  }
  if (const auto* query = json.Find("query")) {
    for (const auto& q : query->items) {
      std::string pred;
      std::vector<std::string> constants;
      auto fact = ParseFact(q.text, &pred, &constants)
                      ? session.FindFact(pred, constants)
                      : dlcirc::Result<uint32_t>::Error("malformed");
      if (!fact.ok() || fact.value() == Session::kNotFound) {
        std::cerr << "servebench_tool: query " << q.text
                  << " is not a derivable fact\n";
        std::exit(2);
      }
      r.facts.push_back(fact.value());
    }
  }
  if (!text("k").empty()) r.k = static_cast<uint32_t>(std::stoul(text("k")));
  return r;
}

void LoadScripts(const Flags& flags, Session& session, Inputs* in) {
  const std::string dir = flags.Get("dir");
  const int conns = static_cast<int>(flags.Num("conns"));
  in->main_scripts = ReadScripts(dir + "/main", conns);
  const std::vector<std::vector<std::string>> probe =
      ReadScripts(dir + "/probe", conns);
  in->scripts.resize(conns);
  for (int c = 0; c < conns; ++c) {
    int64_t index = 0;
    for (const std::vector<std::string>* phase :
         {&std::as_const(in->main_scripts)[c], &probe[c]}) {
      for (const std::string& line : *phase) {
        in->scripts[c].push_back(
            Decode(session, line, static_cast<int64_t>(c) * 1000000 + index++));
      }
    }
    in->main_len.push_back(in->main_scripts[c].size());
  }
  in->front_scripts = ReadScripts(dir + "/front", conns);
  std::vector<std::string> setup;
  ReadLines(dir + "/setup.ndjson", &setup);
  for (const std::string& line : setup) {
    in->setup.push_back(Decode(session, line, -1));
  }
}

// ------------------------------------------------------------------ replay

using Metrics = std::map<std::string, double>;

template <typename Fn>
double TimeNs(Fn&& fn) {
  const uint64_t t0 = MonotonicNs();
  fn();
  return static_cast<double>(MonotonicNs() - t0);
}

std::vector<S::Value> ParseValues(const std::vector<std::string>& v) {
  std::vector<S::Value> out;
  out.reserve(v.size());
  for (const std::string& t : v) {
    out.push_back(dlcirc::pipeline::ParseSemiringValue<S>(t).value());
  }
  return out;
}

class LayerReplay {
 public:
  LayerReplay(const Inputs& in, Session& session,
              std::shared_ptr<const dlcirc::pipeline::CompiledPlan> plan,
              dlcirc::pipeline::Construction construction)
      : in_(in), session_(session), plan_(std::move(plan)),
        construction_(construction) {
    for (const auto& script : in_.scripts) {
      for (const Request& r : script) {
        if (r.op == "eval" && r.lane.empty()) inline_.push_back(&r);
      }
    }
  }

  // The layers whose work is fixed by the inputs: run with spans off and
  // on to measure the tracing overhead. Returns their wall time.
  double FixedWork(Tracer& t, Metrics* m) {
    const uint64_t t0 = MonotonicNs();
    Wire(t, m);
    Io(t, m);
    Store(t, m);
    Eval(t, m);
    DeltaAndExplain(t, m);
    Broker(t, m);
    return static_cast<double>(MonotonicNs() - t0);
  }

  // Wire and io time the main phase's requests: the workload's own traffic.
  void Wire(Tracer& t, Metrics* m) {
    Scoped layer(t, "wire");
    std::vector<double> us;
    for (int rep = 0; rep < 3; ++rep) {
      for (const std::string& line : MainLines()) {
        Scoped s(t, "wire.parse");
        us.push_back(TimeNs([&] {
                       auto v = dlcirc::serve::ParseJson(line);
                       if (!v.ok()) std::abort();
                     }) / 1e3);
      }
    }
    (*m)["wire.parse_us"] = Median(us);
  }

  void Io(Tracer& t, Metrics* m) {
    Scoped layer(t, "io");
    std::vector<double> parse_us, format_us;
    dlcirc::eval::Evaluator ev(SingleThread());
    std::vector<dlcirc::eval::SlotValue<S>> slots;
    for (int rep = 0; rep < 3; ++rep) {
      for (size_t c = 0; c < in_.scripts.size(); ++c) {
        for (size_t i = 0; i < in_.main_len[c]; ++i) {
          const Request& r = in_.scripts[c][i];
          std::vector<std::string> texts = r.tags;
          for (const auto& [var, value] : r.set) texts.push_back(value);
          if (texts.empty()) continue;
          Scoped s(t, "io.parse_tags", r.id);
          parse_us.push_back(TimeNs([&] {
                               for (const std::string& x : texts) {
                                 if (!dlcirc::pipeline::ParseSemiringValue<S>(x)
                                          .ok()) {
                                   std::abort();
                                 }
                               }
                             }) / 1e3);
        }
      }
    }
    // Formatting: one response's values, read from an evaluation of the
    // request's own tags (inline evals) through the plan.
    const size_t n = std::min<size_t>(inline_.size(), 64);
    for (size_t i = 0; i < n; ++i) {
      const Request& r = *inline_[i];
      ev.EvaluateInto<S>(plan_->plan, ParseValues(r.tags), &slots);
      for (int rep = 0; rep < 20; ++rep) {
        Scoped s(t, "io.format", r.id);
        format_us.push_back(
            TimeNs([&] {
              std::string out;
              for (uint32_t f : r.facts) {
                out += dlcirc::pipeline::FormatSemiringValue<S>(
                    static_cast<S::Value>(
                        slots[plan_->plan.output_slots()[f]]));
              }
              if (out.empty()) std::abort();
            }) / 1e3);
      }
    }
    (*m)["io.parse_tags_us"] = Median(parse_us);
    (*m)["io.format_us"] = Median(format_us);
  }

  void Store(Tracer& t, Metrics* m) {
    Scoped layer(t, "store");
    dlcirc::serve::PlanStore store;
    const auto key = dlcirc::pipeline::PlanKey::For<S>(construction_);
    if (!store.GetOrCompile(session_, key).ok()) std::abort();
    std::vector<double> us;
    for (int chunk = 0; chunk < 50; ++chunk) {
      Scoped s(t, "store.hit_x1000");
      us.push_back(TimeNs([&] {
                     for (int i = 0; i < 1000; ++i) {
                       if (!store.GetOrCompile(session_, key).ok()) std::abort();
                     }
                   }) / 1e6);
    }
    (*m)["store.hit_us"] = Median(us);
  }

  void Eval(Tracer& t, Metrics* m) {
    Scoped layer(t, "eval");
    const auto& plan = plan_->plan;
    const double slots = static_cast<double>(plan.num_slots());
    dlcirc::eval::Evaluator ev(SingleThread());
    std::vector<std::vector<S::Value>> tags;
    for (size_t i = 0; i < inline_.size() && tags.size() < 64; ++i) {
      tags.push_back(ParseValues(inline_[i]->tags));
    }
    const size_t reps = Reps(plan.num_slots());
    std::vector<dlcirc::eval::SlotValue<S>> out;
    std::vector<double> single;
    for (size_t i = 0; i < reps; ++i) {
      const auto& a = tags[i % tags.size()];
      Scoped s(t, "eval.single", inline_[i % tags.size()]->id);
      single.push_back(TimeNs([&] { ev.EvaluateInto<S>(plan, a, &out); }) /
                       slots);
    }
    (*m)["eval.single_ns_per_slot"] = Median(single);

    const size_t B = static_cast<size_t>(in_.max_batch);
    std::vector<std::vector<S::Value>> lanes;
    std::vector<std::vector<bool>> bits;
    for (size_t b = 0; b < B; ++b) {
      lanes.push_back(tags[b % tags.size()]);
      std::vector<bool> row;
      for (size_t v = 0; v < lanes.back().size(); ++v) {
        row.push_back(AsBool(lanes.back()[v]));
      }
      bits.push_back(std::move(row));
    }
    auto packed =
        dlcirc::eval::BatchAssignment<S>::Pack(lanes, plan.num_vars());
    std::vector<double> batch, bitbatch;
    for (size_t i = 0; i < std::max<size_t>(reps / 4, 3); ++i) {
      {
        Scoped s(t, "eval.batch");
        batch.push_back(TimeNs([&] {
                          dlcirc::eval::EvaluateBatchInto<S>(ev, plan, packed,
                                                             &out);
                        }) /
                        (slots * static_cast<double>(B)));
      }
      {
        Scoped s(t, "eval.bitbatch");
        bitbatch.push_back(
            TimeNs([&] {
              auto r = dlcirc::eval::EvaluateBooleanBitBatch(ev, plan, bits);
              if (r.size() != B) std::abort();
            }) /
            (slots * static_cast<double>(B)));
      }
    }
    (*m)["eval.batch_ns_per_slot_lane"] = Median(batch);
    (*m)["eval.bitbatch_ns_per_slot_lane"] = Median(bitbatch);
  }

  // Lane replay: materialize each lane's initial tagging, then apply the
  // lane's first updates in send order, incrementally, extracting the
  // top-k proofs of one of the lane's explain requests after each.
  void DeltaAndExplain(Tracer& t, Metrics* m) {
    Scoped layer(t, "delta");
    const auto& plan = plan_->plan;
    dlcirc::eval::Evaluator ev(SingleThread());
    dlcirc::eval::IncrementalEvaluator inc(
        ev, dlcirc::eval::DeltaOptions::For<S>());
    std::vector<double> update_us, explain_us, recomputed;
    size_t fallbacks = 0;
    for (const Request& make : in_.setup) {
      std::vector<const Request*> updates, explains;
      for (const auto& script : in_.scripts) {
        for (const Request& r : script) {
          if (r.lane != make.lane) continue;
          if (r.op == "update" && updates.size() < kLaneUpdates) {
            updates.push_back(&r);
          } else if (r.op == "explain" && explains.size() < kLaneUpdates) {
            explains.push_back(&r);
          }
        }
      }
      if (updates.empty() || explains.empty()) std::abort();
      auto state = inc.Materialize<S>(plan, ParseValues(make.tags));
      for (size_t i = 0; i < updates.size(); ++i) {
        const Request& u = *updates[i];
        dlcirc::eval::TagDelta<S> delta;
        for (const auto& [var, text] : u.set) {
          delta.push_back(
              {var, dlcirc::pipeline::ParseSemiringValue<S>(text).value()});
        }
        {
          Scoped s(t, "delta.update", u.id);
          dlcirc::eval::DeltaStats st;
          update_us.push_back(
              TimeNs([&] { st = inc.Update<S>(plan, &state, delta); }) / 1e3);
          recomputed.push_back(static_cast<double>(st.recomputed));
          fallbacks += st.full_fallback ? 1 : 0;
        }
        const Request& x = *explains[i % explains.size()];
        Scoped s(t, "explain.topk", x.id);
        dlcirc::explain::ExplainLimits limits;
        limits.k = x.k;
        explain_us.push_back(TimeNs([&] {
                               auto res = dlcirc::explain::TopKProofs<S>(
                                   plan, x.facts[0], state.slots, limits);
                               if (!res.ok()) std::abort();
                             }) /
                             1e3);
      }
    }
    double sum = 0;
    for (double x : recomputed) sum += x;
    (*m)["delta.update_p50_us"] = Median(update_us);
    (*m)["delta.recomputed_per_update"] =
        recomputed.empty() ? 0 : sum / static_cast<double>(recomputed.size());
    (*m)["delta.fallback_frac"] =
        recomputed.empty() ? 0
                           : static_cast<double>(fallbacks) /
                                 static_cast<double>(recomputed.size());
    (*m)["explain.topk_p50_us"] = Median(explain_us);
  }

  // In-process broker round trip: Submit one request, wait for its future.
  void Broker(Tracer& t, Metrics* m) {
    Scoped layer(t, "broker");
    dlcirc::serve::PlanStore store;
    dlcirc::serve::ServerOptions options;
    options.max_coalesce = static_cast<size_t>(in_.max_batch);
    options.num_dispatchers = 1;
    options.eval.num_threads = 1;
    dlcirc::serve::Server server(session_, store, options);
    for (const Request& r : in_.setup) {
      if (!server.Submit(ToServe(r)).get().ok) std::abort();
    }
    std::vector<double> us;
    const size_t longest = [&] {
      size_t n = 0;
      for (const auto& s : in_.scripts) n = std::max(n, s.size());
      return n;
    }();
    for (size_t i = 0; i < longest && us.size() < kBrokerRequests; ++i) {
      for (const auto& script : in_.scripts) {
        if (i >= script.size()) continue;
        const Request& r = script[i];
        dlcirc::serve::ServeRequest req = ToServe(r);
        Scoped s(t, "broker.submit", r.id);
        us.push_back(TimeNs([&] {
                       if (!server.Submit(std::move(req)).get().ok) {
                         std::abort();
                       }
                     }) /
                     1e3);
      }
    }
    server.Stop();
    (*m)["broker.submit_rtt_p50_us"] = Median(us);
  }

 private:
  std::vector<std::string> MainLines() const {
    std::vector<std::string> lines;
    for (const auto& script : in_.main_scripts) {
      lines.insert(lines.end(), script.begin(), script.end());
    }
    return lines;
  }

  static dlcirc::eval::EvalOptions SingleThread() {
    dlcirc::eval::EvalOptions o;
    o.num_threads = 1;
    return o;
  }
  static size_t Reps(size_t slots) {
    return std::clamp<size_t>((size_t{40} << 20) / std::max<size_t>(slots, 1),
                              16, 4096);
  }
  // The bit-parallel boolean sweep runs over the same plan, with each edge
  // present when its weight is below the middle of the 1..99 range.
  static bool AsBool(S::Value v) { return v < 50; }

  dlcirc::serve::ServeRequest ToServe(const Request& r) const {
    using Kind = dlcirc::serve::ServeRequest::Kind;
    dlcirc::serve::ServeRequest req;
    req.semiring = "tropical";
    req.construction = construction_;
    req.lane = r.lane;
    req.tags = r.tags;
    req.delta = r.set;
    req.facts = r.facts;
    req.explain_k = r.k;
    req.kind = r.op == "lane"      ? Kind::kMakeLane
               : r.op == "update"  ? Kind::kUpdate
               : r.op == "explain" ? Kind::kExplain
                                   : Kind::kEval;
    return req;
  }

  const Inputs& in_;
  Session& session_;
  std::shared_ptr<const dlcirc::pipeline::CompiledPlan> plan_;
  dlcirc::pipeline::Construction construction_;
  std::vector<const Request*> inline_;
};

struct Compiled {
  std::unique_ptr<Session> session;
  std::shared_ptr<const dlcirc::pipeline::CompiledPlan> plan;
  dlcirc::pipeline::Construction construction{};
};

// Parse, ground, route and compile from scratch, as a cold `dlcirc serve
// --construction auto` start does.
Compiled CompileOnce(const Inputs& in, Tracer& t) {
  Scoped top(t, "compile");
  Compiled c;
  {
    Scoped s(t, "compile.parse");
    auto session = Session::FromDatalog(in.program_text);
    if (!session.ok()) {
      std::cerr << "servebench_tool: " << session.error() << "\n";
      std::exit(2);
    }
    c.session = std::make_unique<Session>(std::move(session).value());
  }
  {
    Scoped s(t, "compile.load_graph");
    if (!c.session->LoadGraphCsv(in.graph_text).ok()) std::exit(2);
  }
  {
    Scoped s(t, "compile.route");
    c.session->planner_context();
    c.construction =
        c.session
            ->PlanConstruction(dlcirc::pipeline::SemiringTraits::For<S>())
            .construction;
  }
  Scoped s(t, "compile.compile");
  auto plan =
      c.session->Compile(dlcirc::pipeline::PlanKey::For<S>(c.construction));
  if (!plan.ok()) {
    std::cerr << "servebench_tool: " << plan.error() << "\n";
    std::exit(2);
  }
  c.plan = plan.value();
  return c;
}

int RunReplay(const Flags& flags) {
  Inputs in;
  if (!ReadText(flags.Get("program"), &in.program_text) ||
      !ReadText(flags.Get("graph"), &in.graph_text)) {
    std::cerr << "servebench_tool: cannot read program or graph\n";
    return 2;
  }
  in.front_depth = static_cast<int>(flags.Num("front-depth"));
  in.max_batch = static_cast<int>(flags.Num("max-batch"));
  Tracer traced(true);
  Metrics m;

  // Compile: three cold compiles, phase medians from Session::phase_profile.
  std::vector<double> parse, ground, route, construct, passes, build;
  Compiled c;
  for (int rep = 0; rep < 3; ++rep) {
    c = CompileOnce(in, traced);
    const auto& p = c.session->phase_profile();
    parse.push_back(p.parse_ms);
    ground.push_back(p.ground_ms);
    route.push_back(p.route_ms);
    construct.push_back(p.construct_ms);
    passes.push_back(p.passes_ms);
    build.push_back(p.plan_build_ms);
  }
  m["compile.parse_ms"] = Median(parse);
  m["compile.ground_ms"] = Median(ground);
  m["compile.route_ms"] = Median(route);
  m["compile.construct_ms"] = Median(construct);
  m["compile.passes_ms"] = Median(passes);
  m["compile.plan_build_ms"] = Median(build);
  m["plan.slots"] = static_cast<double>(c.plan->plan.num_slots());
  m["plan.layers"] = static_cast<double>(c.plan->plan.num_layers());
  LoadScripts(flags, *c.session, &in);

  // Snapshot: save to distinct files so every load is a first, unmemoized
  // one (LoadPlan memoizes verification per file identity).
  {
    Scoped layer(traced, "snapshot");
    const uint64_t pd = c.session->ProgramDigest();
    const uint64_t ed = c.session->EdbDigest();
    std::vector<double> save, decode, verify, rebuild;
    double bytes = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const std::string path =
          flags.Get("dir") + "/replay" + std::to_string(rep) + ".dlcp";
      {
        Scoped s(traced, "snapshot.save");
        save.push_back(TimeNs([&] {
                         if (!dlcirc::serve::SavePlan(*c.plan, pd, ed, path)
                                  .ok()) {
                           std::exit(2);
                         }
                       }) /
                       1e6);
      }
      struct stat st{};
      if (stat(path.c_str(), &st) == 0) bytes = static_cast<double>(st.st_size);
      dlcirc::serve::LoadStats ls;
      {
        Scoped s(traced, "snapshot.load");
        if (!dlcirc::serve::LoadPlan(path, pd, ed, c.plan->key, &ls).ok()) {
          std::exit(2);
        }
      }
      decode.push_back(ls.decode_ms);
      verify.push_back(ls.verify_ms);
      rebuild.push_back(ls.rebuild_ms);
      std::remove(path.c_str());
    }
    m["snapshot.save_ms"] = Median(save);
    m["snapshot.decode_ms"] = Median(decode);
    m["snapshot.verify_ms"] = Median(verify);
    m["snapshot.rebuild_ms"] = Median(rebuild);
    m["snapshot.bytes"] = bytes;
  }

  LayerReplay replay(in, *c.session, c.plan, c.construction);
  Tracer untraced(false);
  Metrics scratch;
  const double off_ns = replay.FixedWork(untraced, &scratch);
  const double on_ns = replay.FixedWork(traced, &m);
  m["trace.overhead_pct"] = (on_ns - off_ns) / off_ns * 100.0;

  // Net: the socket layer alone, answering every line at once, driven with
  // the front phase's connections, pipelining and request lines.
  {
    Scoped layer(traced, "net");
    dlcirc::serve::SocketServer echo;
    dlcirc::serve::NetOptions net;
    auto started = echo.Start(
        net, [](std::string&&, dlcirc::serve::SocketServer::Responder r) {
          r.Send("{\"ok\": true}");
        });
    if (!started.ok()) {
      std::cerr << "servebench_tool: " << started.error() << "\n";
      return 2;
    }
    LoopOptions options;
    options.port = echo.port();
    options.depth = in.front_depth;
    options.warmup_s = 0.2;
    options.window_s = 1.0;
    options.keep_lines = false;
    LoopResult r = RunClosedLoop(in.front_scripts, options);
    echo.Stop();
    if (!r.error.empty()) {
      std::cerr << "servebench_tool: echo loop: " << r.error << "\n";
      return 2;
    }
    std::vector<double> rtt;
    for (const Record& rec : r.records) {
      if (rec.send_ns < r.window_start_ns() ||
          rec.send_ns >= r.window_end_ns()) {
        continue;
      }
      rtt.push_back(static_cast<double>(rec.recv_ns - rec.send_ns) / 1e3);
      if (rtt.size() > kMaxEchoSpans) continue;  // keeps the trace small
      const auto& conn_lines = in.scripts[rec.conn];
      traced.Add("net.echo", rec.send_ns, rec.recv_ns,
                 static_cast<int64_t>(rec.conn) * 1000000 +
                     static_cast<int64_t>(
                         conn_lines.size() +
                         rec.seq % in.front_scripts[rec.conn].size()));
    }
    m["net.echo_rtt_p50_us"] = Quantile(rtt, 0.5);
    m["net.echo_rtt_p90_us"] = Quantile(rtt, 0.9);
  }

  const std::string trace_path = flags.Get("trace-out");
  if (!WriteChromeTrace(traced.spans(), trace_path)) {
    std::cerr << "servebench_tool: cannot write " << trace_path << "\n";
    return 2;
  }
  PrintSpanTable(traced.spans());
  std::printf("\n%-32s %16s\n", "per-layer metric", "value");
  for (const auto& [name, value] : m) {
    std::printf("%-32s %16.4f\n", name.c_str(), value);
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"spans\": " << traced.spans().size() << ", \"trace\": \""
       << dlcirc::serve::JsonEscape(trace_path) << "\", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    json << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  const auto flags = servebench::Flags::Parse(argc, argv, 2);
  if (cmd == "drive") return servebench::Drive(flags);
  if (cmd == "replay") return servebench::RunReplay(flags);
  std::cerr << "usage: servebench_tool drive|replay --flag value ...\n";
  return 2;
}
