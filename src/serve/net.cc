#include "src/serve/net.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/obs/metrics.h"

namespace dlcirc {
namespace serve {

namespace {

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Best-effort blocking-ish write of one short line (the reject path runs
/// before the socket joins the event loop). MSG_NOSIGNAL everywhere: a
/// peer that already closed must surface EPIPE, not kill the process.
void WriteLineBestEffort(int fd, const std::string& line) {
  std::string framed = line + "\n";
  size_t off = 0;
  for (int spins = 0; off < framed.size() && spins < 64; ++spins) {
    ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd p = {fd, POLLOUT, 0};
      ::poll(&p, 1, 20);
    } else {
      break;
    }
  }
}

}  // namespace

/// One live connection. Socket I/O and the `in` buffer belong to the event
/// loop thread exclusively; everything response-ordering-related (`done`,
/// `next_expected`, `pending`, `out`, `alive`) is guarded by `mu` because
/// Responder::Send runs on broker threads.
struct SocketServer::Responder::Conn {
  int fd = -1;

  // Event-loop thread only.
  std::string in;
  uint64_t next_slot = 0;
  bool read_closed = false;  ///< peer half-closed; serve pending, then close
  bool closing = false;      ///< error line queued; close once flushed
  bool kill = false;         ///< close now (I/O error, overflow)

  std::mutex mu;
  std::map<uint64_t, std::string> done;  ///< completed out-of-order responses
  uint64_t next_expected = 0;
  uint64_t pending = 0;  ///< slots issued minus slots completed
  std::string out;       ///< framed bytes awaiting the socket
  bool alive = true;     ///< cleared by the loop when the connection closes
};

struct SocketServer::Impl {
  int listen_fd = -1;
  int wake_rd = -1;
  int wake_wr = -1;
  std::atomic<bool> stop{false};

  std::mutex conns_mu;  ///< guards `conns` (loop mutates, stats() reads)
  std::vector<std::shared_ptr<Responder::Conn>> conns;

  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> closed{0};
  std::atomic<uint64_t> lines{0};
  std::atomic<uint64_t> oversized{0};
  std::atomic<uint64_t> overflowed{0};
  std::atomic<uint32_t> active{0};
};

SocketServer::SocketServer() : impl_(new Impl) {}

SocketServer::~SocketServer() {
  Stop();
  if (impl_->wake_rd >= 0) {
    ::close(impl_->wake_rd);
    ::close(impl_->wake_wr);
  }
}

void SocketServer::Responder::Send(std::string line) {
  if (server_ == nullptr || conn_ == nullptr) return;
  server_->CompleteSlot(conn_, slot_, std::move(line), start_ns_);
  conn_.reset();  // single-use: a second Send is a no-op
  server_ = nullptr;
}

namespace {

/// Moves the completed prefix of response slots into the outbound buffer,
/// in request order: pipelined responses never overtake each other on a
/// connection. Caller holds conn.mu. Returns whether anything moved.
bool FlushReadyLocked(SocketServer::Responder::Conn& conn) {
  bool flushed = false;
  while (!conn.done.empty() &&
         conn.done.begin()->first == conn.next_expected) {
    conn.out += conn.done.begin()->second;
    conn.out.push_back('\n');
    conn.done.erase(conn.done.begin());
    ++conn.next_expected;
    flushed = true;
  }
  return flushed;
}

}  // namespace

void SocketServer::CompleteSlot(const std::shared_ptr<Responder::Conn>& conn,
                                uint64_t slot, std::string&& line,
                                uint64_t start_ns) {
  bool flushed = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->alive) return;
    // Defensive against a stored-and-reused Responder copy: a slot that
    // already flushed must not be completed twice.
    if (slot < conn->next_expected || conn->done.count(slot) != 0) return;
    --conn->pending;
    conn->done.emplace(slot, std::move(line));
    flushed = FlushReadyLocked(*conn);
  }
  if (request_ns_ != nullptr) request_ns_->RecordSince(start_ns);
  if (flushed) Wake();
}

void SocketServer::Wake() {
  char b = 1;
  ssize_t ignored = ::write(impl_->wake_wr, &b, 1);
  (void)ignored;
}

Result<bool> SocketServer::Start(const NetOptions& options, Handler handler) {
  if (started_) return Result<bool>::Error("SocketServer already started");
  options_ = options;
  handler_ = std::move(handler);

  request_ns_ = &obs::Registry::Default().GetHistogram(
      "dlcirc_net_request_ns", "",
      "line received to response enqueued, nanoseconds");

  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* addrs = nullptr;
  const std::string port_str = std::to_string(options_.port);
  int rc = ::getaddrinfo(options_.host.c_str(), port_str.c_str(), &hints,
                         &addrs);
  if (rc != 0) {
    return Result<bool>::Error("cannot resolve " + options_.host + ": " +
                               ::gai_strerror(rc));
  }
  int fd = -1;
  std::string bind_error = "no usable address for " + options_.host;
  for (struct addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
    fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, a->ai_addr, a->ai_addrlen) == 0 &&
        ::listen(fd, options_.listen_backlog) == 0 && SetNonBlocking(fd)) {
      break;
    }
    bind_error = "cannot bind " + options_.host + ":" + port_str + ": " +
                 std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(addrs);
  if (fd < 0) return Result<bool>::Error(bind_error);

  struct sockaddr_storage bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) == 0) {
    if (bound.ss_family == AF_INET) {
      port_ = ntohs(reinterpret_cast<struct sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      port_ =
          ntohs(reinterpret_cast<struct sockaddr_in6*>(&bound)->sin6_port);
    }
  }

  // The wake pipe outlives Stop(): a completion that passed its `alive`
  // check may still be writing to it after the loop is joined, so it is
  // created once, before any Responder exists, and closed only by the
  // destructor (completions must not outlive the SocketServer).
  if (impl_->wake_rd < 0) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      ::close(fd);
      return Result<bool>::Error(std::string("cannot create wake pipe: ") +
                                 std::strerror(errno));
    }
    SetNonBlocking(pipe_fds[0]);
    SetNonBlocking(pipe_fds[1]);
    impl_->wake_rd = pipe_fds[0];
    impl_->wake_wr = pipe_fds[1];
  }

  impl_->listen_fd = fd;
  impl_->stop.store(false);
  started_ = true;
  loop_ = std::thread([this] { Loop(); });
  return true;
}

void SocketServer::Stop() {
  if (!started_) return;
  impl_->stop.store(true);
  Wake();
  if (loop_.joinable()) loop_.join();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  started_ = false;
}

NetStats SocketServer::stats() const {
  NetStats s;
  s.accepted = impl_->accepted.load();
  s.rejected = impl_->rejected.load();
  s.closed = impl_->closed.load();
  s.lines = impl_->lines.load();
  s.oversized = impl_->oversized.load();
  s.overflowed = impl_->overflowed.load();
  s.active = impl_->active.load();
  return s;
}

void SocketServer::Loop() {
  using Conn = Responder::Conn;
  std::vector<std::shared_ptr<Conn>> conns;
  std::vector<struct pollfd> fds;
  std::vector<char> buf(64 * 1024);

  auto publish_conns = [&] {
    std::lock_guard<std::mutex> lock(impl_->conns_mu);
    impl_->conns = conns;
    impl_->active.store(static_cast<uint32_t>(conns.size()));
  };

  auto close_conn = [&](const std::shared_ptr<Conn>& conn) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->alive = false;
      conn->done.clear();
      conn->out.clear();
    }
    ::close(conn->fd);
    conn->fd = -1;
    impl_->closed.fetch_add(1);
  };

  while (!impl_->stop.load()) {
    fds.clear();
    fds.push_back({impl_->wake_rd, POLLIN, 0});
    fds.push_back({impl_->listen_fd, POLLIN, 0});
    for (const auto& conn : conns) {
      short events = 0;
      if (!conn->read_closed && !conn->closing) events |= POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->out.empty()) events |= POLLOUT;
      }
      fds.push_back({conn->fd, events, 0});
    }

    if (::poll(fds.data(), fds.size(), 500) < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (fds[0].revents & POLLIN) {
      while (::read(impl_->wake_rd, buf.data(), buf.size()) > 0) {
      }
    }

    // Accept burst, applying the connection cap.
    if (fds[1].revents & POLLIN) {
      while (true) {
        int cfd = ::accept(impl_->listen_fd, nullptr, nullptr);
        if (cfd < 0) break;
        if (conns.size() >= options_.max_connections) {
          WriteLineBestEffort(cfd, options_.reject_line);
          ::close(cfd);
          impl_->rejected.fetch_add(1);
          continue;
        }
        SetNonBlocking(cfd);
        int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_shared<Conn>();
        conn->fd = cfd;
        conns.push_back(std::move(conn));
        impl_->accepted.fetch_add(1);
      }
    }

    // Per-connection I/O. fds[i + 2] pairs with conns[i] — only for the
    // prefix that existed when fds was built; connections accepted this
    // iteration have no pollfd yet and wait for the next pass.
    for (size_t i = 0; i + 2 < fds.size(); ++i) {
      const auto& conn = conns[i];
      const short revents = fds[i + 2].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        conn->kill = true;
        continue;
      }
      if ((revents & (POLLIN | POLLHUP)) && !conn->read_closed &&
          !conn->closing) {
        while (true) {
          ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
          if (n > 0) {
            conn->in.append(buf.data(), static_cast<size_t>(n));
            size_t start = 0;
            for (size_t nl = conn->in.find('\n', start);
                 nl != std::string::npos;
                 nl = conn->in.find('\n', start)) {
              std::string line = conn->in.substr(start, nl - start);
              if (!line.empty() && line.back() == '\r') line.pop_back();
              start = nl + 1;
              uint64_t slot;
              {
                std::lock_guard<std::mutex> lock(conn->mu);
                slot = conn->next_slot++;
                ++conn->pending;
              }
              impl_->lines.fetch_add(1);
              const uint64_t start_ns =
                  request_ns_ != nullptr ? request_ns_->StartTimeNs() : 0;
              handler_(std::move(line),
                       Responder(this, conn, slot, start_ns));
            }
            conn->in.erase(0, start);
            if (conn->in.size() > options_.max_line_bytes) {
              // Framing is lost mid-line: queue one error as the next
              // response slot (so it stays behind earlier pipelined
              // responses) and close once everything has flushed.
              impl_->oversized.fetch_add(1);
              std::lock_guard<std::mutex> lock(conn->mu);
              conn->done.emplace(conn->next_slot++,
                                 options_.oversized_line);
              FlushReadyLocked(*conn);
              conn->closing = true;
              break;
            }
            continue;
          }
          if (n == 0) {
            conn->read_closed = true;  // half-close: flush, then close
          } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR) {
            conn->kill = true;
          }
          break;
        }
      }
      // Flush whatever is ready, whether or not POLLOUT fired (a response
      // may have been enqueued between poll() and now).
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->out.empty() && conn->fd >= 0) {
          ssize_t n = ::send(conn->fd, conn->out.data(), conn->out.size(),
                             MSG_NOSIGNAL);
          if (n > 0) {
            conn->out.erase(0, static_cast<size_t>(n));
          } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR) {
            conn->kill = true;
          }
        }
        if (conn->out.size() > options_.max_write_buffer_bytes) {
          impl_->overflowed.fetch_add(1);
          conn->kill = true;
        }
      }
    }

    // Close pass.
    bool changed = false;
    for (size_t i = 0; i < conns.size();) {
      const auto& conn = conns[i];
      bool done_for_good = conn->kill;
      if (!done_for_good && (conn->read_closed || conn->closing)) {
        // Serve everything already received, flush it, then close.
        std::lock_guard<std::mutex> lock(conn->mu);
        done_for_good =
            conn->out.empty() && conn->pending == 0 && conn->done.empty();
      }
      if (done_for_good) {
        close_conn(conn);
        conns.erase(conns.begin() + static_cast<long>(i));
        changed = true;
      } else {
        ++i;
      }
    }
    if (changed || impl_->active.load() != conns.size()) publish_conns();
  }

  for (const auto& conn : conns) close_conn(conn);
  conns.clear();
  publish_conns();
}

}  // namespace serve
}  // namespace dlcirc
