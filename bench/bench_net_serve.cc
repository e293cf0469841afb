// E18 — the network front door under load (src/serve/net.h): hundreds of
// concurrent persistent TCP connections, each pipelining NDJSON eval
// requests against one shared compiled TC plan through the SocketServer ->
// broker path `dlcirc serve --listen` runs in production.
//
// Sweeps connection count x broker dispatcher count and reports sustained
// QPS and p50/p99 request latency (send to response line on a real
// loopback socket, pipeline depth 2). One sweep point deliberately attempts
// more connections than --max-conns allows and asserts the overflow gets
// the structured "busy" rejection line rather than a hang or a reset; the
// broker-queue admission path ("busy: request queue full") is likewise
// counted, not failed, wherever the load happens to trip it.
//
// Usage: bench_net_serve [--small] [--json FILE] [--duration-ms N]
//   --small          CI smoke mode: a handful of connections, short window
//   --json FILE      machine-readable results (BENCH_net.json convention)
//   --duration-ms N  measured window per point [1500]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench/harness.h"
#include "src/graph/generators.h"
#include "src/pipeline/session.h"
#include "src/serve/net.h"
#include "src/serve/plan_store.h"
#include "src/serve/server.h"
#include "src/serve/wire.h"
#include "src/util/rng.h"

using namespace dlcirc;

namespace {

constexpr const char* kTcProgram =
    "@target T. T(X,Y) :- E(X,Y). T(X,Y) :- T(X,Z), E(Z,Y).";
constexpr int kPipelineDepth = 2;

using Clock = std::chrono::steady_clock;

pipeline::Session MakeSession(uint32_t n, uint32_t m, Rng* rng) {
  StGraph g = RandomConnectedGraph(n, m, /*num_labels=*/1, *rng);
  std::ostringstream csv;
  for (uint32_t e = 0; e < g.graph.num_edges(); ++e) {
    csv << "v" << g.graph.edge(e).src << ",v" << g.graph.edge(e).dst << "\n";
  }
  auto session_r = pipeline::Session::FromDatalog(kTcProgram);
  DLCIRC_CHECK(session_r.ok()) << session_r.error();
  pipeline::Session session = std::move(session_r).value();
  auto loaded = session.LoadGraphCsv(csv.str());
  DLCIRC_CHECK(loaded.ok()) << loaded.error();
  return session;
}

/// One pre-rendered eval request line (the tags repeat per request — the
/// serving cost under test is the sweep, not tag parsing variety).
std::string MakeRequestLine(uint32_t num_facts, Rng* rng) {
  std::string line = "{\"op\": \"eval\", \"id\": 1, \"tags\": [";
  for (uint32_t v = 0; v < num_facts; ++v) {
    if (v > 0) line += ", ";
    line += "\"" + std::to_string(1 + rng->NextBounded(9)) + "\"";
  }
  line += "]}\n";
  return line;
}

struct NetPoint {
  int attempted = 0;    ///< connections the clients tried to open
  int admitted = 0;     ///< connections that survived the cap
  int dispatchers = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t requests = 0;       ///< ok responses inside the window
  uint64_t busy_requests = 0;  ///< broker-queue admission rejections
  uint64_t rejected_conns = 0; ///< connection-cap rejections observed
  uint32_t active_peak = 0;    ///< server-side concurrent connections seen
};

/// The same glue ServeListen runs in dlcirc: NDJSON line -> broker request,
/// queue-depth admission control, and a completion that hands the response
/// line to the connection's ordered slot. Kept minimal (eval ops only) —
/// the wire grammar is wire_test's job.
struct FrontEnd {
  serve::Server* server;
  std::vector<uint32_t> facts;
  size_t admission_depth;

  void Handle(std::string&& line, serve::SocketServer::Responder responder) {
    auto parsed = serve::ParseJson(line);
    if (!parsed.ok() || !parsed.value().IsObject()) {
      responder.Send("{\"ok\": false, \"error\": \"bad request\"}");
      return;
    }
    serve::ServeRequest request;
    request.kind = serve::ServeRequest::Kind::kEval;
    request.semiring = "tropical";
    request.facts = facts;
    if (const serve::JsonValue* tags = parsed.value().Find("tags")) {
      request.tags.reserve(tags->items.size());
      for (const serve::JsonValue& t : tags->items) {
        request.tags.push_back(t.text);
      }
    }
    if (server->queue_depth() >= admission_depth) {
      responder.Send(
          "{\"ok\": false, \"error\": \"busy: request queue full\"}");
      return;
    }
    server->Submit(std::move(request),
                   [responder = std::move(responder)](
                       serve::ServeResponse r) mutable {
                     responder.Send(
                         r.ok ? "{\"id\": 1, \"ok\": true}"
                              : "{\"id\": 1, \"ok\": false, \"error\": \"" +
                                    serve::JsonEscape(r.error) + "\"}");
                   });
  }
};

/// Blocking loopback connection helper for the client threads.
int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct timeval timeout = {20, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool ReadLine(int fd, std::string* buf, std::string* line) {
  while (true) {
    size_t nl = buf->find('\n');
    if (nl != std::string::npos) {
      *line = buf->substr(0, nl);
      buf->erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf->append(chunk, static_cast<size_t>(n));
  }
}

NetPoint RunPoint(pipeline::Session& session, serve::PlanStore& store,
                  int attempted, uint32_t max_connections, int dispatchers,
                  double duration_ms, const std::string& request_line) {
  serve::ServerOptions server_options;
  server_options.num_dispatchers = dispatchers;
  server_options.queue_capacity = 4096;
  serve::Server server(session, store, server_options);

  FrontEnd front;
  front.server = &server;
  front.facts = {session.TargetFacts().front()};
  front.admission_depth = server_options.queue_capacity;

  serve::NetOptions net;
  net.host = "127.0.0.1";
  net.port = 0;
  net.max_connections = max_connections;
  serve::SocketServer sock;
  auto started = sock.Start(net, [&](std::string&& line,
                                     serve::SocketServer::Responder r) {
    front.Handle(std::move(line), std::move(r));
  });
  DLCIRC_CHECK(started.ok()) << started.error();

  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> busy_requests{0};
  std::atomic<uint64_t> rejected_conns{0};
  std::vector<uint64_t> completed(static_cast<size_t>(attempted), 0);
  std::vector<bench::LatencyRecorder> latencies(
      static_cast<size_t>(attempted));

  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(attempted));
  for (int c = 0; c < attempted; ++c) {
    clients.emplace_back([&, c] {
      int fd = ConnectLoopback(sock.port());
      if (fd < 0) return;
      std::string buf, line;
      std::deque<Clock::time_point> inflight;
      for (int i = 0; i < kPipelineDepth; ++i) {
        if (!SendAll(fd, request_line)) {
          ::close(fd);
          return;
        }
        inflight.push_back(Clock::now());
      }
      while (!stop.load(std::memory_order_relaxed)) {
        if (!ReadLine(fd, &buf, &line)) break;  // EOF: rejected or shutdown
        if (line.find("connection limit") != std::string::npos) {
          rejected_conns.fetch_add(1);
          break;
        }
        Clock::time_point now = Clock::now();
        const bool ok = line.find("\"ok\": true") != std::string::npos;
        const bool busy = line.find("busy") != std::string::npos;
        DLCIRC_CHECK(ok || busy) << "unexpected response: " << line;
        if (!inflight.empty()) {
          if (measuring.load(std::memory_order_relaxed)) {
            if (ok) {
              ++completed[static_cast<size_t>(c)];
              latencies[static_cast<size_t>(c)].RecordNs(
                  static_cast<uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          now - inflight.front())
                          .count()));
            } else {
              busy_requests.fetch_add(1);
            }
          }
          inflight.pop_front();
        }
        if (!SendAll(fd, request_line)) break;
        inflight.push_back(Clock::now());
      }
      ::close(fd);
    });
  }

  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(duration_ms / 5));
  const uint32_t active_peak = sock.stats().active;
  Clock::time_point window_start = Clock::now();
  measuring.store(true);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(duration_ms));
  measuring.store(false);
  const double window_ms = bench::MsSince(window_start);
  stop.store(true);
  sock.Stop();  // unblocks clients waiting in recv via close
  for (std::thread& t : clients) t.join();
  server.Stop();

  NetPoint point;
  point.attempted = attempted;
  point.admitted = static_cast<int>(sock.stats().accepted);
  point.dispatchers = dispatchers;
  point.busy_requests = busy_requests.load();
  point.rejected_conns = rejected_conns.load();
  point.active_peak = std::max(active_peak, point.rejected_conns > 0
                                                ? max_connections
                                                : active_peak);
  bench::LatencyRecorder all;
  for (size_t c = 0; c < latencies.size(); ++c) {
    point.requests += completed[c];
    all.Merge(latencies[c]);
  }
  point.qps = static_cast<double>(point.requests) / (window_ms / 1000.0);
  point.p50_ms = all.QuantileMs(0.50);
  point.p99_ms = all.QuantileMs(0.99);
  return point;
}

std::string JsonNum(double v) {
  std::ostringstream ss;
  ss << v;
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  std::string json_path;
  double duration_ms = 1500;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      duration_ms = std::stod(argv[++i]);
    }
  }
  if (small) duration_ms = std::min(duration_ms, 250.0);

  bench::Banner("E18", "src/serve/net.h (the TCP front door under load)",
                "Pipelined NDJSON over hundreds of persistent loopback "
                "connections: QPS/p99 vs connection and dispatcher count, "
                "plus structured admission-control rejections");

  const uint32_t n = small ? 10 : 16;
  const uint32_t m = small ? 20 : 40;
  Rng rng(20260807);
  pipeline::Session session = MakeSession(n, m, &rng);
  const uint32_t num_facts = session.db().num_facts();
  const std::string request_line = MakeRequestLine(num_facts, &rng);

  serve::PlanStore store;
  {
    auto warmed = store.GetOrCompile(
        session, pipeline::PlanKey::For<TropicalSemiring>());
    DLCIRC_CHECK(warmed.ok()) << warmed.error();
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "workload: TC eval over RandomConnectedGraph(n=" << n
            << ", m=" << m << "), " << num_facts
            << " EDB facts, pipeline depth " << kPipelineDepth
            << "\nhardware_concurrency: " << hw << "\n\n";

  const std::vector<int> connection_counts =
      small ? std::vector<int>{4, 8} : std::vector<int>{32, 100, 256};
  std::vector<int> dispatcher_counts = {1, 2, 4};
  dispatcher_counts.erase(
      std::remove_if(dispatcher_counts.begin(), dispatcher_counts.end(),
                     [&](int d) { return d > static_cast<int>(hw) && d > 1; }),
      dispatcher_counts.end());

  std::vector<NetPoint> points;
  for (int conns : connection_counts) {
    for (int dispatchers : dispatcher_counts) {
      NetPoint p = RunPoint(session, store, conns, /*max_connections=*/1024,
                            dispatchers, duration_ms, request_line);
      points.push_back(p);
      std::cout << "conns=" << conns << " dispatchers=" << dispatchers << ": "
                << JsonNum(p.qps) << " QPS, p50 " << JsonNum(p.p50_ms)
                << " ms, p99 " << JsonNum(p.p99_ms) << " ms (" << p.requests
                << " reqs, " << p.busy_requests << " busy)\n";
    }
  }

  // Admission control: attempt more connections than the cap allows; the
  // overflow must see the structured reject line (counted by the clients
  // themselves), and the admitted majority keeps serving.
  const int cap_attempt = small ? 8 : 128;
  const uint32_t cap = small ? 5 : 100;
  NetPoint capped = RunPoint(session, store, cap_attempt, cap,
                             /*dispatchers=*/2, duration_ms, request_line);
  std::cout << "\ncap " << cap << " with " << cap_attempt << " attempts: "
            << capped.rejected_conns << " rejected with the busy line, "
            << JsonNum(capped.qps) << " QPS from the admitted "
            << (capped.attempted - static_cast<int>(capped.rejected_conns))
            << "\n";

  const NetPoint& widest = points[points.size() - 1];
  bench::Verdict(widest.requests > 0 && widest.qps > 0,
                 std::to_string(widest.attempted) +
                     " concurrent pipelined connections sustained " +
                     JsonNum(widest.qps) + " QPS (p99 " +
                     JsonNum(widest.p99_ms) + " ms)");
  bench::Verdict(capped.rejected_conns > 0,
                 "connection cap rejected " +
                     std::to_string(capped.rejected_conns) + "/" +
                     std::to_string(cap_attempt) +
                     " with the structured busy error");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"experiment\": \"E18\",\n  \"workload\": {\"program\": "
           "\"TC\", \"n\": "
        << n << ", \"m\": " << m << ", \"edb_facts\": " << num_facts
        << ", \"pipeline_depth\": " << kPipelineDepth
        << "},\n  \"hardware_concurrency\": " << hw
        << ",\n  \"duration_ms\": " << duration_ms << ",\n  \"points\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const NetPoint& p = points[i];
      out << "    {\"connections\": " << p.attempted
          << ", \"dispatchers\": " << p.dispatchers
          << ", \"qps\": " << JsonNum(p.qps)
          << ", \"p50_ms\": " << JsonNum(p.p50_ms)
          << ", \"p99_ms\": " << JsonNum(p.p99_ms)
          << ", \"requests\": " << p.requests
          << ", \"busy_requests\": " << p.busy_requests << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"admission\": {\"cap\": " << cap
        << ", \"attempted\": " << cap_attempt
        << ", \"rejected\": " << capped.rejected_conns
        << ", \"qps\": " << JsonNum(capped.qps) << "}\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
