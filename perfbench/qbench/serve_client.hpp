#pragma once

// One-thread NDJSON load generator over a few loopback connections.
// Open-loop phases send on a precomputed schedule and time each request
// from its due time; closed-loop phases keep a fixed number of callers
// that each wait for their reply before sending the next request.

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace qbench {

struct RequestRecord {
  std::int64_t due_ns = 0;   // open loop: scheduled send time
  std::int64_t sent_ns = 0;  // handed to the socket
  std::int64_t recv_ns = 0;  // response line read
  std::int16_t phase = -1;   // -1: never sent
  std::uint8_t answers = 0;  // response lines seen for this id
  bool ok = false;           // first answer was a success
};

class LoopbackClient {
 public:
  /// Request line for stream position `id` (ids are stream positions).
  using LineFn = std::function<std::string(std::uint64_t id)>;

  /// `capacity` bounds the ids the stream can produce.
  LoopbackClient(std::uint64_t capacity, LineFn line);
  ~LoopbackClient();
  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  /// Connect `connections` sockets to 127.0.0.1:port, closing any
  /// earlier ones.
  void connect(std::uint16_t port, int connections);
  void disconnect();

  /// Send one request per offset (seconds from now), each at its due
  /// time, as phase `phase`. Returns the ids sent, in order; stops early
  /// only if the stream runs out.
  std::vector<std::uint64_t> open_loop(std::int16_t phase,
                                       const std::vector<double>& offsets_s);

  /// Keep `callers` requests in flight for `duration_s`: each answer
  /// releases the next request on the same connection. Returns the ids
  /// sent. Stops issuing when the stream runs out.
  std::vector<std::uint64_t> closed_loop(std::int16_t phase, int callers,
                                         double duration_s);

  /// Read until every sent request is answered or `timeout_s` passes.
  /// Returns true when nothing is left in flight.
  bool drain(double timeout_s);

  /// Round trip of one line `{"id":<reserved id>,` + body on an otherwise
  /// idle connection; throws unless it is answered with "ok":true.
  double round_trip_us(const std::string& body);

  /// Keep the raw response lines of the ids `keep` selects (the
  /// correctness sample).
  void keep_responses(std::function<bool(std::uint64_t)> keep) {
    keep_ = std::move(keep);
  }
  const std::unordered_map<std::uint64_t, std::string>& kept() const {
    return kept_;
  }

  const std::vector<RequestRecord>& records() const { return records_; }
  std::uint64_t next_id() const { return next_id_; }
  std::uint64_t in_flight() const { return sent_ - answered_; }
  /// Response lines whose id was unknown, out of range or not sent.
  std::uint64_t stray_lines() const { return stray_; }
  /// How late each request of the last open-loop phase was sent,
  /// behind its due time (microseconds).
  const std::vector<double>& last_lags_us() const { return lags_us_; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
  };

  bool send(std::uint64_t id, std::size_t conn, std::int16_t phase,
            std::int64_t due_ns);
  /// Wait up to `timeout_ns` for socket events and process them.
  void pump(std::int64_t timeout_ns);
  void flush(Conn& c);
  void read_conn(std::size_t index);
  void on_line(std::size_t conn, const char* begin, const char* end,
               std::int64_t t);

  std::vector<Conn> conns_;
  std::uint64_t capacity_;
  LineFn line_;
  std::vector<RequestRecord> records_;
  std::function<bool(std::uint64_t)> keep_;
  std::unordered_map<std::uint64_t, std::string> kept_;
  std::uint64_t next_id_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t answered_ = 0;
  std::uint64_t stray_ = 0;
  std::vector<double> lags_us_;
  /// Closed-loop hook: called with the connection of each answer.
  std::function<void(std::size_t conn, std::uint64_t id)> on_answer_;
  // Round-trip bookkeeping.
  bool ping_seen_ = false;
  bool ping_ok_ = false;
};

}  // namespace qbench
