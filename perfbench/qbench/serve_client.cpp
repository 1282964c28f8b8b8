#include "serve_client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "spans.hpp"

namespace qbench {

namespace {

constexpr std::uint64_t kPingId = 4503599627370496ULL;  // 2^52

[[noreturn]] void sys_fail(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

LoopbackClient::LoopbackClient(std::uint64_t capacity, LineFn line)
    : capacity_(capacity), line_(std::move(line)) {
  // Wake at the scheduled send time, not up to 50 us later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  records_.resize(capacity);
}

void LoopbackClient::connect(std::uint16_t port, int connections) {
  disconnect();
  conns_.resize(static_cast<std::size_t>(connections));
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) sys_fail("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      sys_fail("connect");
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
}

void LoopbackClient::disconnect() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  conns_.clear();
}

LoopbackClient::~LoopbackClient() { disconnect(); }

bool LoopbackClient::send(std::uint64_t id, std::size_t conn,
                          std::int16_t phase, std::int64_t due_ns) {
  if (id >= capacity_) return false;
  Conn& c = conns_[conn];
  c.out += line_(id);
  RequestRecord& r = records_[id];
  r.due_ns = due_ns;
  r.phase = phase;
  flush(c);
  r.sent_ns = now_ns();
  ++sent_;
  return true;
}

void LoopbackClient::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    sys_fail("send");
  }
  c.out.clear();
  c.out_off = 0;
}

void LoopbackClient::pump(std::int64_t timeout_ns) {
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i].fd;
    fds[i].events = POLLIN;
    if (conns_[i].out_off < conns_[i].out.size()) fds[i].events |= POLLOUT;
  }
  if (timeout_ns < 0) timeout_ns = 0;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000LL);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000LL);
  const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (n < 0) {
    if (errno == EINTR) return;
    sys_fail("ppoll");
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_conn(i);
    if (fds[i].revents & POLLOUT) flush(conns_[i]);
  }
}

void LoopbackClient::read_conn(std::size_t index) {
  Conn& c = conns_[index];
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) throw std::runtime_error("server closed a connection");
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    sys_fail("recv");
  }
  const std::int64_t t = now_ns();
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = c.in.find('\n', start);
    if (nl == std::string::npos) break;
    on_line(index, c.in.data() + start, c.in.data() + nl, t);
    start = nl + 1;
  }
  c.in.erase(0, start);
}

void LoopbackClient::on_line(std::size_t conn, const char* begin,
                             const char* end, std::int64_t t) {
  // Responses are serialized with sorted keys, so the id member reads
  // `,"id":` or `{"id":` and never appears inside an escaped string.
  const std::string_view line(begin, static_cast<std::size_t>(end - begin));
  std::size_t pos = line.find(",\"id\":");
  if (pos == std::string_view::npos) pos = line.find("{\"id\":");
  if (pos == std::string_view::npos) {
    ++stray_;
    return;
  }
  const char* digits = begin + pos + 6;
  char* stop = nullptr;
  const unsigned long long id = std::strtoull(digits, &stop, 10);
  if (stop == digits) {
    ++stray_;
    return;
  }
  if (id == kPingId) {
    ping_seen_ = true;
    ping_ok_ = line.find("\"ok\":true") != std::string_view::npos;
    return;
  }
  if (id >= capacity_ || records_[id].phase < 0) {
    ++stray_;
    return;
  }
  RequestRecord& r = records_[id];
  if (++r.answers > 1) return;  // duplicate: counted, checked later
  r.recv_ns = t;
  r.ok = line.find("\"ok\":true") != std::string_view::npos;
  ++answered_;
  if (keep_ && keep_(id)) kept_[id] = std::string(line);
  if (on_answer_) on_answer_(conn, id);
}

std::vector<std::uint64_t> LoopbackClient::open_loop(
    std::int16_t phase, const std::vector<double>& offsets_s) {
  std::vector<std::uint64_t> ids;
  ids.reserve(offsets_s.size());
  lags_us_.clear();
  lags_us_.reserve(offsets_s.size());
  const std::int64_t t0 = now_ns() + 200000;
  std::size_t i = 0;
  while (i < offsets_s.size()) {
    std::int64_t now = now_ns();
    while (i < offsets_s.size()) {
      const std::int64_t due =
          t0 + static_cast<std::int64_t>(offsets_s[i] * 1e9);
      if (due > now) break;
      const std::uint64_t id = next_id_;
      if (!send(id, id % conns_.size(), phase, due)) return ids;
      ++next_id_;
      ids.push_back(id);
      lags_us_.push_back(static_cast<double>(records_[id].sent_ns - due) / 1e3);
      ++i;
      now = now_ns();
    }
    if (i == offsets_s.size()) break;
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(offsets_s[i] * 1e9);
    pump(due - now_ns());
  }
  return ids;
}

std::vector<std::uint64_t> LoopbackClient::closed_loop(std::int16_t phase,
                                                       int callers,
                                                       double duration_s) {
  std::vector<std::uint64_t> ids;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(duration_s * 1e9);
  bool exhausted = false;
  auto issue = [&](std::size_t conn) {
    if (exhausted) return;
    const std::uint64_t id = next_id_;
    const std::int64_t t = now_ns();
    if (!send(id, conn, phase, t)) {
      exhausted = true;
      return;
    }
    ++next_id_;
    ids.push_back(id);
  };
  on_answer_ = [&](std::size_t conn, std::uint64_t id) {
    if (records_[id].phase == phase && now_ns() < end) issue(conn);
  };
  for (int c = 0; c < callers; ++c) {
    issue(static_cast<std::size_t>(c) % conns_.size());
  }
  while (now_ns() < end && !exhausted) pump(end - now_ns());
  on_answer_ = nullptr;
  return ids;
}

bool LoopbackClient::drain(double timeout_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (in_flight() > 0) {
    const std::int64_t left = deadline - now_ns();
    if (left <= 0) return false;
    pump(left);
  }
  return true;
}

double LoopbackClient::round_trip_us(const std::string& body) {
  Conn& c = conns_[0];
  ping_seen_ = false;
  const std::int64_t t0 = now_ns();
  c.out += "{\"id\":" + std::to_string(kPingId) + ',' + body + '\n';
  flush(c);
  const std::int64_t deadline = t0 + 2000000000LL;
  while (!ping_seen_) {
    if (now_ns() > deadline) throw std::runtime_error("round trip timed out");
    pump(deadline - now_ns());
  }
  const double us = static_cast<double>(now_ns() - t0) / 1e3;
  if (!ping_ok_) throw std::runtime_error("round trip answered with an error");
  return us;
}

}  // namespace qbench
