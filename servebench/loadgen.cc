#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>

namespace servebench {

uint64_t MonotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

std::string WithId(const std::string& line, uint64_t seq) {
  std::string out = "{\"id\":" + std::to_string(seq);
  const size_t body = line.find_first_not_of(" \t", 1);
  if (body != std::string::npos && line[body] != '}') out += ",";
  out.append(line, 1, std::string::npos);
  return out;
}

namespace {

struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  size_t out_off = 0;
  std::deque<std::pair<uint64_t, uint64_t>> inflight;  // (seq, send_ns)
  uint64_t next_seq = 0;
};

int Connect(uint16_t port, std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

// Writes as much of c->out as the socket takes; false on a hard error.
bool Flush(Conn* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = write(c->fd, c->out.data() + c->out_off,
                            c->out.size() - c->out_off);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    c->out_off += static_cast<size_t>(n);
  }
  c->out.clear();
  c->out_off = 0;
  return true;
}

}  // namespace

LoopResult RunClosedLoop(const std::vector<std::vector<std::string>>& scripts,
                         const LoopOptions& options) {
  LoopResult result;
  std::vector<Conn> conns(scripts.size());
  const int slices = std::max(options.slices, 1);
  // Every exit closes the sockets and reports all slices + 1 boundaries
  // (those never reached read as the exit time).
  auto close_all = [&] {
    result.sent.clear();
    for (Conn& c : conns) {
      if (c.fd >= 0) close(c.fd);
      c.fd = -1;
      result.sent.push_back(c.next_seq);
    }
    while (result.boundaries_ns.size() <= static_cast<size_t>(slices)) {
      result.boundaries_ns.push_back(MonotonicNs());
    }
  };
  for (size_t i = 0; i < conns.size(); ++i) {
    if (scripts[i].empty()) {
      result.error = "empty script for connection " + std::to_string(i);
      close_all();
      return result;
    }
    conns[i].fd = Connect(options.port, &result.error);
    if (conns[i].fd < 0) {
      close_all();
      return result;
    }
  }

  const uint64_t start = MonotonicNs();
  const uint64_t window_start =
      start + static_cast<uint64_t>(options.warmup_s * 1e9);
  std::vector<uint64_t> planned;
  for (int k = 0; k <= slices; ++k) {
    planned.push_back(window_start + static_cast<uint64_t>(
                                         options.window_s * 1e9 * k / slices));
  }
  const uint64_t drain_end =
      planned.back() + static_cast<uint64_t>(options.drain_timeout_s * 1e9);
  bool sending = true;

  auto refill = [&](size_t i) {
    Conn& c = conns[i];
    const std::vector<std::string>& script = scripts[i];
    while (c.inflight.size() < static_cast<size_t>(options.depth)) {
      const uint64_t seq = c.next_seq++;
      c.out += WithId(script[seq % script.size()], seq);
      c.out += '\n';
      c.inflight.emplace_back(seq, MonotonicNs());
    }
    return Flush(&c);
  };
  for (size_t i = 0; i < conns.size(); ++i) {
    if (!refill(i)) {
      result.error = std::string("write: ") + std::strerror(errno);
      close_all();
      return result;
    }
  }

  std::vector<pollfd> fds(conns.size());
  char buf[1 << 16];
  while (true) {
    const uint64_t now = MonotonicNs();
    while (result.boundaries_ns.size() < planned.size() &&
           now >= planned[result.boundaries_ns.size()]) {
      const int k = static_cast<int>(result.boundaries_ns.size());
      result.boundaries_ns.push_back(now);
      if (options.on_boundary) options.on_boundary(k);
      sending = k < slices;
    }
    if (!sending) {
      bool idle = true;
      for (const Conn& c : conns) idle = idle && c.inflight.empty();
      if (idle) break;
      if (now >= drain_end) {
        result.error = "drain timed out with responses outstanding";
        break;
      }
    }
    const uint64_t next_boundary =
        sending ? planned[result.boundaries_ns.size()] : drain_end;
    const int timeout_ms = static_cast<int>(std::clamp<uint64_t>(
        next_boundary > now ? (next_boundary - now) / 1000000 + 1 : 0, 0, 50));
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].fd;
      fds[i].events = POLLIN;
      if (conns[i].out_off < conns[i].out.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    const int ready = poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      result.error = std::string("poll: ") + std::strerror(errno);
      break;
    }
    for (size_t i = 0; i < conns.size() && result.error.empty(); ++i) {
      Conn& c = conns[i];
      if (fds[i].revents & (POLLERR | POLLNVAL)) {
        result.error = "connection " + std::to_string(i) + " failed";
        break;
      }
      if (fds[i].revents & (POLLIN | POLLHUP)) {
        while (true) {
          const ssize_t n = read(c.fd, buf, sizeof(buf));
          if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            result.error = std::string("read: ") + std::strerror(errno);
            break;
          }
          if (n == 0) {
            result.error = "server closed connection " + std::to_string(i);
            break;
          }
          c.in.append(buf, static_cast<size_t>(n));
        }
        const uint64_t recv_ns = MonotonicNs();
        size_t begin = 0;
        for (size_t nl; (nl = c.in.find('\n', begin)) != std::string::npos;
             begin = nl + 1) {
          if (c.inflight.empty()) {
            result.error = "unsolicited response on connection " +
                           std::to_string(i);
            break;
          }
          Record r;
          r.conn = static_cast<uint32_t>(i);
          r.seq = c.inflight.front().first;
          r.send_ns = c.inflight.front().second;
          r.recv_ns = recv_ns;
          if (options.keep_lines) r.line = c.in.substr(begin, nl - begin);
          c.inflight.pop_front();
          result.records.push_back(std::move(r));
        }
        c.in.erase(0, begin);
      }
      if (!result.error.empty()) break;
      if (sending ? !refill(i) : !Flush(&c)) {
        result.error = std::string("write: ") + std::strerror(errno);
      }
    }
    if (!result.error.empty()) break;
  }
  close_all();
  return result;
}

}  // namespace servebench
