#include "serve/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <istream>
#include <mutex>
#include <ostream>
#include <thread>

#include "net/framing.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "qaoa/fixed_angles.hpp"
#include "simd/dispatch.hpp"
#include "util/error.hpp"

namespace qgnn::serve {

namespace {

// ---- JSON parsing -------------------------------------------------------

/// Deepest object/array nesting the parser accepts. Requests nest 3 deep
/// (object -> "edges" array -> edge pair) and stats documents a few more;
/// the bound keeps the recursive descent's stack use fixed, so a line of
/// nested brackets from a client ends in a typed error, never a stack
/// overflow.
constexpr int kMaxJsonDepth = 64;

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw InvalidArgument("bad JSON at offset " + std::to_string(pos_) +
                          ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const std::string& lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) {
        fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
      }
      ++depth_;
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // Accept \uXXXX but only map the ASCII range; the protocol
          // never needs full UTF-16 surrogate handling.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          if (code > 0x7f) fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    try {
      std::size_t used = 0;
      JsonValue v;
      v.kind = JsonValue::Kind::kNumber;
      v.number = std::stod(token, &used);
      if (used != token.size()) throw std::invalid_argument("partial");
      return v;
    } catch (const std::exception&) {
      pos_ = start;
      fail("invalid number '" + token + "'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open objects/arrays around pos_
};

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double x) {
  if (!std::isfinite(x)) {
    out += "null";  // JSON has no Inf/NaN
    return;
  }
  if (x == std::floor(x) && std::fabs(x) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", x);
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  out += buf;
}

void append_json(std::string& out, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: out += "null"; break;
    case JsonValue::Kind::kBool: out += v.boolean ? "true" : "false"; break;
    case JsonValue::Kind::kNumber: append_number(out, v.number); break;
    case JsonValue::Kind::kString: append_escaped(out, v.string); break;
    case JsonValue::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& e : v.array) {
        if (!first) out.push_back(',');
        first = false;
        append_json(out, e);
      }
      out.push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.object) {
        if (!first) out.push_back(',');
        first = false;
        append_escaped(out, key);
        out.push_back(':');
        append_json(out, value);
      }
      out.push_back('}');
      break;
    }
  }
}

int require_int(const JsonValue& v, const std::string& what) {
  if (!v.is_number() || v.number != std::floor(v.number)) {
    throw InvalidArgument(what + " must be an integer");
  }
  return static_cast<int>(v.number);
}

JsonValue json_summary(const obs::HistogramSummary& h) {
  JsonValue v;
  v.kind = JsonValue::Kind::kObject;
  v.object["count"] = json_number(static_cast<double>(h.count));
  v.object["sum"] = json_number(h.sum);
  v.object["mean"] = json_number(h.mean);
  v.object["min"] = json_number(h.min);
  v.object["max"] = json_number(h.max);
  v.object["p50"] = json_number(h.p50);
  v.object["p90"] = json_number(h.p90);
  v.object["p99"] = json_number(h.p99);
  return v;
}

}  // namespace

Request parse_request_doc(const JsonValue& doc) {
  if (!doc.is_object()) throw InvalidArgument("request must be an object");

  Request req;
  if (const JsonValue* id = doc.find("id")) req.id = *id;
  if (const JsonValue* model = doc.find("model")) {
    if (!model->is_string()) {
      throw InvalidArgument("'model' must be a string");
    }
    req.model = model->string;
  }

  const JsonValue* nodes = doc.find("nodes");
  if (!nodes) throw InvalidArgument("request missing 'nodes'");
  const int n = require_int(*nodes, "'nodes'");
  if (n < 1) throw InvalidArgument("'nodes' must be >= 1");
  req.graph = Graph(n);

  const JsonValue* edges = doc.find("edges");
  if (!edges || !edges->is_array()) {
    throw InvalidArgument("request missing 'edges' array");
  }
  for (const JsonValue& e : edges->array) {
    if (!e.is_array() || e.array.size() < 2 || e.array.size() > 3) {
      throw InvalidArgument(
          "each edge must be [u, v] or [u, v, weight]");
    }
    const int u = require_int(e.array[0], "edge endpoint");
    const int v = require_int(e.array[1], "edge endpoint");
    double w = 1.0;
    if (e.array.size() == 3) {
      if (!e.array[2].is_number()) {
        throw InvalidArgument("edge weight must be a number");
      }
      w = e.array[2].number;
    }
    req.graph.add_edge(u, v, w);  // validates range/self-loops/duplicates
  }
  return req;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

JsonValue json_bool(bool b) {
  JsonValue v;
  v.kind = JsonValue::Kind::kBool;
  v.boolean = b;
  return v;
}

JsonValue json_number(double x) {
  JsonValue v;
  v.kind = JsonValue::Kind::kNumber;
  v.number = x;
  return v;
}

JsonValue json_string(std::string s) {
  JsonValue v;
  v.kind = JsonValue::Kind::kString;
  v.string = std::move(s);
  return v;
}

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse_document();
}

std::string to_json(const JsonValue& value) {
  std::string out;
  append_json(out, value);
  return out;
}

Request parse_request(const std::string& line) {
  return parse_request_doc(parse_json(line));
}

std::string format_response(const JsonValue& id, const Prediction& p) {
  JsonValue resp;
  resp.kind = JsonValue::Kind::kObject;
  resp.object["id"] = id;
  JsonValue ok;
  ok.kind = JsonValue::Kind::kBool;
  ok.boolean = true;
  resp.object["ok"] = ok;
  JsonValue model;
  model.kind = JsonValue::Kind::kString;
  model.string = p.model;
  resp.object["model"] = model;
  JsonValue gen;
  gen.kind = JsonValue::Kind::kNumber;
  gen.number = static_cast<double>(p.generation);
  resp.object["generation"] = gen;
  JsonValue cached;
  cached.kind = JsonValue::Kind::kBool;
  cached.boolean = p.cache_hit;
  resp.object["cached"] = cached;
  JsonValue batch;
  batch.kind = JsonValue::Kind::kNumber;
  batch.number = static_cast<double>(p.batch_size);
  resp.object["batch_size"] = batch;
  JsonValue latency;
  latency.kind = JsonValue::Kind::kNumber;
  latency.number = p.latency_us;
  resp.object["latency_us"] = latency;
  JsonValue values;
  values.kind = JsonValue::Kind::kArray;
  for (std::size_t j = 0; j < p.values.cols(); ++j) {
    JsonValue x;
    x.kind = JsonValue::Kind::kNumber;
    x.number = p.values(0, j);
    values.array.push_back(x);
  }
  resp.object["values"] = values;
  return to_json(resp);
}

std::string format_error(const JsonValue& id, const std::string& message) {
  JsonValue resp;
  resp.kind = JsonValue::Kind::kObject;
  resp.object["id"] = id;
  JsonValue ok;
  ok.kind = JsonValue::Kind::kBool;
  resp.object["ok"] = ok;
  JsonValue err;
  err.kind = JsonValue::Kind::kString;
  err.string = message;
  resp.object["error"] = err;
  return to_json(resp);
}

std::string format_shed_response(const JsonValue& id) {
  JsonValue resp;
  resp.kind = JsonValue::Kind::kObject;
  resp.object["id"] = id;
  resp.object["ok"] = json_bool(false);
  JsonValue err;
  err.kind = JsonValue::Kind::kString;
  err.string = "overloaded: queue-wait p99 above SLO, retry with backoff";
  resp.object["error"] = std::move(err);
  resp.object["retriable"] = json_bool(true);
  resp.object["shed"] = json_bool(true);
  return to_json(resp);
}

std::string format_degraded_response(const JsonValue& id, const Graph& g) {
  // Round the mean degree to pick the fixed-angle table row; depth-1
  // angles exist for every degree >= 1, so the fallback cannot fail.
  const double mean_degree =
      2.0 * static_cast<double>(g.num_edges()) /
      static_cast<double>(g.num_nodes());
  const int degree = std::max(1, static_cast<int>(std::lround(mean_degree)));
  const auto params = fixed_angles(degree, 1);
  QGNN_REQUIRE(params.has_value(), "depth-1 fixed angles unavailable");

  JsonValue resp;
  resp.kind = JsonValue::Kind::kObject;
  resp.object["id"] = id;
  resp.object["ok"] = json_bool(true);
  JsonValue model;
  model.kind = JsonValue::Kind::kString;
  model.string = "fixed_angles";
  resp.object["model"] = std::move(model);
  resp.object["degraded"] = json_bool(true);
  JsonValue values;
  values.kind = JsonValue::Kind::kArray;
  for (double x : params->flatten()) values.array.push_back(json_number(x));
  resp.object["values"] = std::move(values);
  return to_json(resp);
}

std::string process_request_line(ServeHandle& handle,
                                 const std::string& line) {
  JsonValue id;
  try {
    const JsonValue doc = parse_json(line);
    if (const JsonValue* found = doc.find("id")) id = *found;
    if (const JsonValue* cmd = doc.find("cmd")) {
      // Control command, not a prediction request.
      if (!cmd->is_string()) throw InvalidArgument("'cmd' must be a string");
      if (cmd->string == "stats") {
        return format_stats_response(id, handle.stats());
      }
      if (cmd->string == "ping") {
        JsonValue resp;
        resp.kind = JsonValue::Kind::kObject;
        resp.object["id"] = id;
        resp.object["ok"] = json_bool(true);
        resp.object["pong"] = json_bool(true);
        return to_json(resp);
      }
      throw InvalidArgument("unknown cmd '" + cmd->string + "'");
    }
    Request req = parse_request_doc(doc);
    const Prediction p = req.model.empty()
                             ? handle.predict(req.graph)
                             : handle.predict(req.model, req.graph);
    return format_response(req.id, p);
  } catch (const std::exception& e) {
    return format_error(id, e.what());
  }
}

std::string format_stats_response(const JsonValue& id,
                                  const ServeStats& stats) {
  JsonValue body;
  body.kind = JsonValue::Kind::kObject;
  body.object["requests"] = json_number(static_cast<double>(stats.requests));
  body.object["cache_hits"] =
      json_number(static_cast<double>(stats.cache_hits));
  body.object["cache_misses"] =
      json_number(static_cast<double>(stats.cache_misses));
  body.object["cache_evictions"] =
      json_number(static_cast<double>(stats.cache_evictions));
  body.object["batches"] = json_number(static_cast<double>(stats.batches));
  body.object["batched_requests"] =
      json_number(static_cast<double>(stats.batched_requests));
  body.object["mean_batch_size"] = json_number(stats.mean_batch_size);
  body.object["latency_us_mean"] = json_number(stats.latency_us_mean);
  body.object["latency_us_p50"] = json_number(stats.latency_us_p50);
  body.object["latency_us_p90"] = json_number(stats.latency_us_p90);
  body.object["latency_us_p99"] = json_number(stats.latency_us_p99);
  body.object["requests_per_second"] =
      json_number(stats.requests_per_second);
  // Which SIMD tier the dispatched kernels (forward matmuls, fused
  // inference ops) resolved to in this process — lets a fleet operator
  // spot a shard silently running generic kernels.
  body.object["kernel_isa"] = json_string(simd::active_isa_name());
  body.object["queue_wait_us"] = json_summary(stats.queue_wait_us);
  body.object["batch_form_us"] = json_summary(stats.batch_form_us);
  body.object["forward_us"] = json_summary(stats.forward_us);
  body.object["cache_lookup_us"] = json_summary(stats.cache_lookup_us);
  body.object["batch_size"] = json_summary(stats.batch_size);

  // Online hard-example mining (src/mine). The mine.* counters live in
  // the process-global registry (the miner is attached to the handle, not
  // part of it); in a sharded deployment each worker reports its own
  // loop here and the router's stats aggregation passes the sub-object
  // through per shard. All-zero when mining is off.
  {
    auto& registry = obs::MetricsRegistry::global();
    const auto counter = [&registry](const char* name) {
      return json_number(
          static_cast<double>(registry.counter(name).value()));
    };
    JsonValue mining;
    mining.kind = JsonValue::Kind::kObject;
    mining.object["observed"] = counter(obs::names::kMineObserved);
    mining.object["mined_low_ar"] = counter(obs::names::kMineMinedLowAr);
    mining.object["mined_novel"] = counter(obs::names::kMineMinedNovel);
    mining.object["deduped"] = counter(obs::names::kMineDeduped);
    mining.object["dropped"] = counter(obs::names::kMineDropped);
    mining.object["spilled"] = counter(obs::names::kMineSpilled);
    mining.object["relabeled"] = counter(obs::names::kMineRelabeled);
    mining.object["gate_promoted"] = counter(obs::names::kMineGatePromoted);
    mining.object["gate_rejected"] = counter(obs::names::kMineGateRejected);
    mining.object["cycles"] = counter(obs::names::kMineCycles);
    mining.object["cycle_errors"] = counter(obs::names::kMineCycleErrors);
    mining.object["buffer_depth"] = json_number(
        registry.gauge(obs::names::kMineBufferDepth).value());
    mining.object["relabel_us"] =
        json_summary(registry.histogram(obs::names::kMineRelabelUs).summary());
    mining.object["fine_tune_us"] = json_summary(
        registry.histogram(obs::names::kMineFineTuneUs).summary());
    body.object["mine"] = std::move(mining);
  }

  JsonValue resp;
  resp.kind = JsonValue::Kind::kObject;
  resp.object["id"] = id;
  resp.object["ok"] = json_bool(true);
  resp.object["stats"] = std::move(body);
  return to_json(resp);
}

namespace {

/// Chunk-feed `in` through a LineFramer, calling on_line per complete
/// line and on_overflow per oversized line. Blocks one character at a
/// time only when nothing is buffered (interactive clients still get
/// per-line responses), then drains whatever the stream has without
/// blocking. Returns when the stream ends or a shutdown signal
/// interrupts the blocking read.
void feed_lines(std::istream& in, net::LineFramer& framer,
                const std::function<void(std::string&&)>& on_line,
                const std::function<void(std::size_t)>& on_overflow) {
  char chunk[1 << 16];
  for (;;) {
    const int first = in.get();
    if (first == std::char_traits<char>::eof()) {
      if (net::shutdown_signal_received() || in.eof()) break;
      // Transient failure (EINTR from a signal that was not ours);
      // clear and retry.
      in.clear();
      continue;
    }
    const char c = static_cast<char>(first);
    framer.feed(&c, 1, on_line, on_overflow);
    while (in.rdbuf()->in_avail() > 0) {
      const std::streamsize got =
          in.readsome(chunk, static_cast<std::streamsize>(sizeof chunk));
      if (got <= 0) break;
      framer.feed(chunk, static_cast<std::size_t>(got), on_line,
                  on_overflow);
    }
  }
  // getline parity: a final line without a trailing newline is still a
  // request.
  std::string tail = framer.take_partial();
  if (!tail.empty()) on_line(std::move(tail));
}

std::string oversized_error(std::size_t dropped_bytes,
                            std::size_t max_line_bytes) {
  return format_error(
      JsonValue{}, "request line exceeds " +
                       std::to_string(max_line_bytes) + " bytes (dropped " +
                       std::to_string(dropped_bytes) + "); line skipped");
}

}  // namespace

std::size_t run_ndjson_server(std::istream& in, std::ostream& out,
                              ServeHandle& handle, int workers,
                              std::size_t max_line_bytes) {
  QGNN_REQUIRE(workers >= 1, "NDJSON server needs >= 1 worker");
  if (max_line_bytes == 0) max_line_bytes = net::kMaxLineBytes;

  std::mutex out_mutex;
  auto emit = [&](const std::string& response) {
    std::lock_guard<std::mutex> lk(out_mutex);
    out << response << '\n';
    out.flush();
  };
  auto handle_line = [&](const std::string& line) {
    emit(process_request_line(handle, line));
  };
  net::LineFramer framer(max_line_bytes);
  std::size_t handled = 0;

  // Runs on the feed thread in both modes, so the increment never races
  // with the one in the feed callback below.
  auto on_overflow = [&](std::size_t dropped) {
    emit(oversized_error(dropped, max_line_bytes));
    ++handled;  // answered with an error line: handled like any request
  };

  if (workers == 1) {
    feed_lines(in, framer,
               [&](std::string&& line) {
                 handle_line(line);
                 ++handled;
               },
               on_overflow);
    return handled;
  }

  // Pipelined mode: a bounded queue feeds `workers` client threads so
  // back-to-back stdin requests can coalesce into micro-batches.
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<std::string> queue;
  bool done_reading = false;
  const std::size_t max_queued = static_cast<std::size_t>(workers) * 4;

  auto worker_loop = [&] {
    for (;;) {
      std::string line;
      {
        std::unique_lock<std::mutex> lk(queue_mutex);
        queue_cv.wait(lk, [&] { return done_reading || !queue.empty(); });
        if (queue.empty()) return;
        line = std::move(queue.front());
        queue.pop_front();
      }
      queue_cv.notify_all();
      handle_line(line);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker_loop);

  feed_lines(in, framer,
             [&](std::string&& line) {
               {
                 std::unique_lock<std::mutex> lk(queue_mutex);
                 queue_cv.wait(lk,
                               [&] { return queue.size() < max_queued; });
                 queue.push_back(std::move(line));
                 ++handled;
               }
               queue_cv.notify_one();
             },
             on_overflow);
  {
    std::lock_guard<std::mutex> lk(queue_mutex);
    done_reading = true;
  }
  queue_cv.notify_all();
  for (std::thread& t : pool) t.join();
  return handled;
}

}  // namespace qgnn::serve
