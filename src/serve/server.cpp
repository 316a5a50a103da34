#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/spans.hpp"
#include "support/json.hpp"

namespace mpisect::serve {

namespace {

[[noreturn]] void sys_fail(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// Best-effort trace-path extraction for sharding. A line that fails to
/// parse still goes to shard 0, where handle_line renders the error.
std::string trace_path_of(const std::string& line) noexcept {
  try {
    const support::JsonValue req = support::json_parse(line);
    const support::JsonValue* t = req.find("trace");
    if (t != nullptr && t->is_string()) return t->string;
  } catch (...) {
  }
  return {};
}

bool write_all(int fd, const std::string& data) noexcept {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(Service& service, int workers) : service_(service) {
  if (workers < 1) workers = 1;
  for (int i = 0; i < workers; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Server::~Server() {
  stop();
  for (auto& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
  for (auto& t : pool_) {
    if (t.joinable()) t.join();
  }
}

int Server::listen(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  listen_fd_.store(fd, std::memory_order_release);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    sys_fail("bind");
  }
  if (::listen(fd, 16) < 0) sys_fail("listen");

  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    sys_fail("getsockname");
  }

  for (auto& shard : shards_) {
    pool_.emplace_back([this, &shard] { worker_loop(*shard); });
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

void Server::run() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd =
        ::accept(listen_fd_.load(std::memory_order_acquire), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed by stop()
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void Server::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Atomic: run() is reading the descriptor from another thread.
  if (const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
      fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->cv.notify_all();
  }
}

void Server::worker_loop(Shard& shard) {
  for (;;) {
    std::packaged_task<std::string()> job;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock, [&] {
        return !shard.jobs.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (shard.jobs.empty()) return;  // stopping and drained
      job = std::move(shard.jobs.front());
      shard.jobs.pop_front();
    }
    job();
  }
}

std::string Server::dispatch(const std::string& line) {
  // Whole-request wall time including the shard queue wait (handle_line's
  // own span covers just the service work — the difference is queueing).
  const obs::Span dispatch_span("serve.dispatch");
  const int shard_idx =
      shard_for(trace_path_of(line), static_cast<int>(shards_.size()));
  Shard& shard = *shards_[static_cast<std::size_t>(shard_idx)];
  std::packaged_task<std::string()> task(
      [this, &line] { return service_.handle_line(line); });
  std::future<std::string> done = task.get_future();
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.jobs.push_back(std::move(task));
  }
  shard.cv.notify_one();
  return done.get();
}

void Server::connection_loop(int fd) {
  static const std::string kTooLong =
      "{\"id\":0,\"ok\":false,\"error\":\"request line exceeds " +
      std::to_string(kMaxLineBytes) + " bytes\"}\n";
  std::string buffer;
  std::size_t scanned = 0;  // the newline search resumes here
  bool skipping = false;    // inside an over-long line: drop to its newline
  bool open = true;
  char chunk[4096];
  while (open) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', scanned);
         open && nl != std::string::npos; nl = buffer.find('\n', scanned)) {
      const std::size_t begin = start;
      start = scanned = nl + 1;
      if (skipping) {
        skipping = false;
        continue;
      }
      std::string line = buffer.substr(begin, nl - begin);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      open = write_all(fd, line.size() > kMaxLineBytes
                               ? kTooLong
                               : dispatch(line) + "\n");
    }
    if (open && (skipping || buffer.size() - start > kMaxLineBytes)) {
      if (!skipping) open = write_all(fd, kTooLong);
      skipping = true;
      start = buffer.size();
    }
    buffer.erase(0, start);
    scanned = buffer.size();
  }
  ::close(fd);
}

}  // namespace mpisect::serve
