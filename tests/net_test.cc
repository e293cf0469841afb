// Hostile-network tests for src/serve/net.h: the SocketServer must keep
// pipelined responses in request order, reject cleanly at the connection
// cap, recover a structured error out of an oversized (frameless) line,
// serve everything already received after a half-close, survive slow-loris
// byte-at-a-time writers, and stay data-race-free under many concurrent
// clients with handlers completing on foreign threads (the TSan job runs
// this whole file).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/serve/net.h"

namespace dlcirc {
namespace {

using serve::NetOptions;
using serve::SocketServer;

/// Minimal blocking loopback client with a receive deadline, so a server
/// bug fails the test instead of hanging it.
class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    struct timeval timeout = {10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool SendAll(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// One '\n'-terminated line (stripped). False on EOF, timeout, or error.
  bool ReadLine(std::string* line) {
    while (true) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True once the peer has closed and all buffered bytes are consumed.
  bool AtEof() {
    if (!buf_.empty()) return false;
    char chunk[256];
    return ::recv(fd_, chunk, sizeof(chunk), 0) == 0;
  }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

NetOptions LoopbackOptions() {
  NetOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  return options;
}

/// Handlers complete on these threads, not the event loop — the production
/// shape (broker dispatchers finish requests) and the interesting one for
/// TSan: Responder::Send racing the loop's reads, flushes, and closes.
class WorkerPool {
 public:
  explicit WorkerPool(int n) {
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        while (true) {
          std::pair<std::string, SocketServer::Responder> job;
          {
            std::unique_lock<std::mutex> lock(mu_);
            nonempty_.wait(lock, [this] { return done_ || !jobs_.empty(); });
            if (jobs_.empty()) return;
            job = std::move(jobs_.front());
            jobs_.pop_front();
          }
          job.second.Send("echo:" + job.first);
        }
      });
    }
  }
  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    nonempty_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  void Push(std::string line, SocketServer::Responder responder) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.emplace_back(std::move(line), std::move(responder));
    }
    nonempty_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable nonempty_;
  std::deque<std::pair<std::string, SocketServer::Responder>> jobs_;
  bool done_ = false;
  std::vector<std::thread> threads_;
};

TEST(NetTest, PipelinedResponsesComeBackInRequestOrder) {
  // The handler stalls every line until all five arrived, then completes
  // them in REVERSE order from another thread; the slot machinery must
  // still deliver them to the client in request order.
  const int kLines = 5;
  std::mutex mu;
  std::vector<std::pair<std::string, SocketServer::Responder>> held;
  SocketServer server;
  auto started = server.Start(
      LoopbackOptions(),
      [&](std::string&& line, SocketServer::Responder responder) {
        std::lock_guard<std::mutex> lock(mu);
        held.emplace_back(std::move(line), std::move(responder));
        if (held.size() == kLines) {
          std::vector<std::pair<std::string, SocketServer::Responder>> batch =
              std::move(held);
          std::thread([batch = std::move(batch)]() mutable {
            for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
              it->second.Send("echo:" + it->first);
            }
          }).detach();
        }
      });
  ASSERT_TRUE(started.ok()) << started.error();

  Client client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendAll("r0\nr1\nr2\nr3\nr4\n"));
  for (int i = 0; i < kLines; ++i) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line)) << "response " << i;
    EXPECT_EQ(line, "echo:r" + std::to_string(i));
  }
  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().lines, static_cast<uint64_t>(kLines));
}

TEST(NetTest, OversizedLineGetsStructuredErrorAfterPipelinedResponses) {
  NetOptions options = LoopbackOptions();
  options.max_line_bytes = 64;
  SocketServer server;
  auto started = server.Start(
      options, [](std::string&& line, SocketServer::Responder responder) {
        responder.Send("echo:" + std::move(line));
      });
  ASSERT_TRUE(started.ok()) << started.error();

  // A good pipelined line followed by an endless unterminated one: the
  // echo must arrive first, then the oversized error, then EOF — the
  // server cannot resynchronize mid-line, so it closes.
  Client client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendAll("good\n" + std::string(200, 'x')));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "echo:good");
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, options.oversized_line);
  EXPECT_TRUE(client.AtEof());
  server.Stop();
  EXPECT_EQ(server.stats().oversized, 1u);
}

TEST(NetTest, HalfCloseStillServesEverythingAlreadyReceived) {
  SocketServer server;
  auto started = server.Start(
      LoopbackOptions(),
      [](std::string&& line, SocketServer::Responder responder) {
        responder.Send("echo:" + std::move(line));
      });
  ASSERT_TRUE(started.ok()) << started.error();

  Client client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendAll("a\nb\nc\n"));
  client.ShutdownWrite();  // FIN: no more requests, but three are owed
  for (const char* expected : {"echo:a", "echo:b", "echo:c"}) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(line, expected);
  }
  EXPECT_TRUE(client.AtEof());
  server.Stop();
}

TEST(NetTest, SlowLorisByteAtATimeStillParses) {
  SocketServer server;
  auto started = server.Start(
      LoopbackOptions(),
      [](std::string&& line, SocketServer::Responder responder) {
        responder.Send("echo:" + std::move(line));
      });
  ASSERT_TRUE(started.ok()) << started.error();

  Client client(server.port());
  ASSERT_TRUE(client.ok());
  const std::string request = "dripped\n";
  for (char c : request) {
    ASSERT_TRUE(client.SendAll(std::string(1, c)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "echo:dripped");
  server.Stop();
}

TEST(NetTest, ConnectionCapRejectsWithTheStructuredBusyLine) {
  NetOptions options = LoopbackOptions();
  options.max_connections = 1;
  SocketServer server;
  auto started = server.Start(
      options, [](std::string&& line, SocketServer::Responder responder) {
        responder.Send("echo:" + std::move(line));
      });
  ASSERT_TRUE(started.ok()) << started.error();

  Client first(server.port());
  ASSERT_TRUE(first.ok());
  // Round-trip once so the first connection is definitely registered
  // before the second arrives.
  ASSERT_TRUE(first.SendAll("hold\n"));
  std::string line;
  ASSERT_TRUE(first.ReadLine(&line));
  EXPECT_EQ(line, "echo:hold");

  Client second(server.port());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.ReadLine(&line));
  EXPECT_EQ(line, options.reject_line);
  EXPECT_TRUE(second.AtEof());

  // The admitted connection keeps working after the rejection.
  ASSERT_TRUE(first.SendAll("still\n"));
  ASSERT_TRUE(first.ReadLine(&line));
  EXPECT_EQ(line, "echo:still");
  server.Stop();
  serve::NetStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(NetTest, ManyConcurrentPipelinedClientsAllGetTheirOwnAnswers) {
  // Multi-client stress (the TSan target): every client pipelines bursts
  // while worker threads complete responses out of loop-thread context.
  const int kClients = 8;
  const int kLinesPerClient = 50;
  WorkerPool pool(4);
  SocketServer server;
  auto started = server.Start(
      LoopbackOptions(),
      [&](std::string&& line, SocketServer::Responder responder) {
        pool.Push(std::move(line), std::move(responder));
      });
  ASSERT_TRUE(started.ok()) << started.error();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      std::string burst;
      for (int i = 0; i < kLinesPerClient; ++i) {
        burst += "c" + std::to_string(c) + "-" + std::to_string(i) + "\n";
      }
      if (!client.SendAll(burst)) {
        ++failures;
        return;
      }
      for (int i = 0; i < kLinesPerClient; ++i) {
        std::string line;
        std::string expected =
            "echo:c" + std::to_string(c) + "-" + std::to_string(i);
        if (!client.ReadLine(&line) || line != expected) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
  serve::NetStats stats = server.stats();
  EXPECT_EQ(stats.lines,
            static_cast<uint64_t>(kClients) * kLinesPerClient);
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.active, 0u);
}

TEST(NetTest, StopRacesCompletionsFromAnotherThread) {
  // Responders held past the loop's last read complete from a helper
  // thread while Stop() runs, round-robin over many connections, so some
  // land on connections the loop has not closed yet while it closes the
  // others. Such a completion may wake the loop after Stop() has joined
  // it; the wake pipe must still be open then (under TSan, a close in
  // Stop() races that wake on the descriptor).
  const int kConns = 32;
  const int kLinesPerConn = 64;
  std::mutex mu;
  std::vector<std::vector<SocketServer::Responder>> held(kConns);
  int num_held = 0;
  SocketServer server;
  auto started = server.Start(
      LoopbackOptions(),
      [&](std::string&& line, SocketServer::Responder responder) {
        std::lock_guard<std::mutex> lock(mu);
        held[std::stoi(line)].push_back(std::move(responder));
        ++num_held;
      });
  ASSERT_TRUE(started.ok()) << started.error();

  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.push_back(std::make_unique<Client>(server.port()));
    ASSERT_TRUE(clients.back()->ok());
    std::string burst;
    for (int i = 0; i < kLinesPerConn; ++i) burst += std::to_string(c) + "\n";
    ASSERT_TRUE(clients.back()->SendAll(burst));
  }
  for (int spins = 0; spins < 5000; ++spins) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (num_held == kConns * kLinesPerConn) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(num_held, kConns * kLinesPerConn);
  }

  std::atomic<bool> go{false};
  std::thread sender([&] {
    while (!go.load()) {
    }
    for (int i = 0; i < kLinesPerConn; ++i) {
      for (int c = 0; c < kConns; ++c) held[c][i].Send("late");
    }
  });
  go.store(true);
  server.Stop();
  sender.join();
  serve::NetStats stats = server.stats();
  EXPECT_EQ(stats.lines, static_cast<uint64_t>(kConns) * kLinesPerConn);
  EXPECT_EQ(stats.closed, static_cast<uint64_t>(kConns));
  EXPECT_EQ(stats.active, 0u);
}

}  // namespace
}  // namespace dlcirc
