// The serve network front door: a poll-based event loop accepting
// persistent TCP connections that carry pipelined NDJSON lines (ROADMAP
// item 1). `dlcirc serve --listen HOST:PORT` runs one SocketServer in
// front of the existing Server broker; stdin/stdout mode is unchanged.
//
// Division of labor:
//   * SocketServer owns sockets only — accept, per-connection read/write
//     buffering, line framing, and response ordering. It knows nothing
//     about JSON or the broker.
//   * The Handler (supplied by the caller) owns the protocol: it gets each
//     complete line plus a Responder and must eventually call
//     Responder::Send exactly once, from any thread. This is where the
//     serve front end parses the request, applies queue-depth admission
//     control (a structured "busy" error instead of blocking the loop on
//     the broker's bounded MPMC queue), and submits to Server with a
//     completion that renders the response and calls Send from the
//     dispatcher that served it; the per-connection slots below put those
//     answers back in request order, so no thread waits on the broker.
//
// Connection behavior:
//   * Pipelining: a client may write many lines without reading; responses
//     are delivered strictly in request order per connection, whatever
//     order the handler completes them in (per-connection ordered slots).
//   * Admission control at accept: over max_connections the server writes
//     one structured error line and closes (counted as rejected) rather
//     than queueing the connection.
//   * Oversized line (max_line_bytes without a newline): framing is lost,
//     so the server sends one structured error line and closes after
//     flushing — it cannot resynchronize mid-line.
//   * Half-close (client shutdown(SHUT_WR)): already-received lines are
//     served and flushed, then the connection closes.
//   * Backpressure: a connection whose outbound buffer exceeds
//     max_write_buffer_bytes is closed (a reader this slow is a slow-loris
//     or dead peer; unbounded buffering is the failure mode this avoids).
//
// All socket reads/writes happen on the single event-loop thread;
// Responder::Send only enqueues and wakes the loop via a self-pipe, so
// handlers may complete on broker threads without touching sockets.
#ifndef DLCIRC_SERVE_NET_H_
#define DLCIRC_SERVE_NET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/util/result.h"

namespace dlcirc {
namespace obs {
class Histogram;
}  // namespace obs

namespace serve {

struct NetOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; SocketServer::port() reports the bound port.
  uint16_t port = 0;
  /// Accepts beyond this get one structured "busy" error line + close.
  uint32_t max_connections = 256;
  /// A line exceeding this without a newline gets an error + close.
  size_t max_line_bytes = 1 << 20;
  /// A connection buffering more outbound bytes than this is closed.
  size_t max_write_buffer_bytes = 8u << 20;
  int listen_backlog = 128;
  /// Structured error lines the socket layer itself sends (it is protocol-
  /// agnostic otherwise; the serve front end keeps these as NDJSON).
  std::string reject_line =
      "{\"ok\": false, \"error\": \"busy: connection limit reached\"}";
  std::string oversized_line =
      "{\"ok\": false, \"error\": \"oversized line (no newline within "
      "limit); closing\"}";
};

struct NetStats {
  uint64_t accepted = 0;       ///< connections admitted
  uint64_t rejected = 0;       ///< connections refused at the cap
  uint64_t closed = 0;         ///< admitted connections since closed
  uint64_t lines = 0;          ///< complete request lines handed off
  uint64_t oversized = 0;      ///< lines dropped for exceeding max_line_bytes
  uint64_t overflowed = 0;     ///< connections closed for write-buffer overflow
  uint32_t active = 0;         ///< currently open connections
};

class SocketServer {
 public:
  /// Single-use, thread-safe completion for one request line. Send may be
  /// called from any thread, at most once, while the SocketServer exists;
  /// after the connection dies (or Stop()) it is a harmless no-op. The line
  /// is sent verbatim plus a trailing '\n'.
  class Responder {
   public:
    Responder() = default;
    void Send(std::string line);

    struct Conn;  ///< connection state; defined in net.cc

   private:
    friend class SocketServer;
    Responder(SocketServer* server, std::shared_ptr<Conn> conn, uint64_t slot,
              uint64_t start_ns)
        : server_(server), conn_(std::move(conn)), slot_(slot),
          start_ns_(start_ns) {}
    SocketServer* server_ = nullptr;
    std::shared_ptr<Conn> conn_;
    uint64_t slot_ = 0;
    uint64_t start_ns_ = 0;
  };

  /// Called on the event-loop thread once per complete line (newline
  /// stripped). Must not block; must arrange for responder.Send exactly
  /// once (immediately or from another thread).
  using Handler = std::function<void(std::string&& line, Responder responder)>;

  SocketServer();
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts the event-loop thread. Errors (bad host,
  /// bind failure) are returned, not thrown.
  Result<bool> Start(const NetOptions& options, Handler handler);

  /// Closes the listener and every connection, then joins the loop thread.
  /// Safe to call twice; the destructor calls it.
  void Stop();

  /// The bound port (useful with NetOptions::port = 0).
  uint16_t port() const { return port_; }

  NetStats stats() const;

 private:
  struct Impl;
  void Loop();
  void Wake();
  void CompleteSlot(const std::shared_ptr<Responder::Conn>& conn,
                    uint64_t slot, std::string&& line, uint64_t start_ns);

  NetOptions options_;
  Handler handler_;
  std::unique_ptr<Impl> impl_;
  std::thread loop_;
  uint16_t port_ = 0;
  bool started_ = false;

  obs::Histogram* request_ns_ = nullptr;
};

}  // namespace serve
}  // namespace dlcirc

#endif  // DLCIRC_SERVE_NET_H_
