// Serve chain of the serve_repeat and serve_unique workloads.
//
// Server: an in-process NdjsonTcpService over one ServeHandle with the
// qgnn_serve --listen --verify-ar defaults (max_batch 16, 500 us batching
// delay, cache 4096, 4 submit workers, no SLO shedding) and the
// --demo model (GCN, seed 42). Client: one thread on nproc-1 loopback
// connections. Phases: closed-loop warm-up, then rounds of open loop at
// r1, open loop at r2 and a closed loop with nproc callers.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "context.hpp"
#include "dataset/features.hpp"
#include "gen.hpp"
#include "gnn/graph_batch.hpp"
#include "gnn/model.hpp"
#include "graph/canonical.hpp"
#include "graph/generators.hpp"
#include "qaoa/ansatz.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "serve/tcp_service.hpp"
#include "serve_client.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace qbench {

ServeRates serve_rates(const std::string& workload) {
  if (workload == "serve_repeat") return ServeRates{450.0, 1000.0};
  if (workload == "serve_unique") return ServeRates{170.0, 360.0};
  throw std::invalid_argument("no serve rates for workload " + workload);
}

Plan plan(double seconds) {
  Plan p;
  p.rounds = std::max(2, static_cast<int>(seconds / 7.0));
  p.warm_s = 0.06 * seconds;
  p.r1_s = std::max(1.0, 0.024 * seconds);
  p.r2_s = std::max(1.0, 0.02 * seconds);
  p.closed_s = std::max(1.0, 0.02 * seconds);
  return p;
}

namespace {

namespace serve = qgnn::serve;

/// serve_repeat: Zipf exponent and pool size relative to the cache.
constexpr double kZipfS = 1.0;
constexpr std::size_t kPoolPerCache = 4;
/// serve_repeat also sends relabelled copies of its kRelabelled most
/// popular graphs: one request in kRelabelEvery from id kRelabelFrom on.
/// Zipf ranks below 16 are drawn every few hundred requests, so their
/// originals are answered and cached long before kRelabelFrom and never
/// evicted: each copy is a cache hit on another labelling's entry.
constexpr std::size_t kRelabelled = 16;
constexpr std::uint64_t kRelabelFrom = 8192;
constexpr std::uint64_t kRelabelEvery = 256;
/// Request ids each stream can produce. serve_unique stops a closed
/// loop early rather than repeat a graph (README.md, "Stream length").
constexpr std::size_t kRepeatStreamLength = std::size_t{1} << 20;
constexpr std::size_t kUniqueStreamLength = 32768;
/// One response in kKeepEvery is kept for the bit-identity check, and
/// at most kCheckedGraphs distinct graphs are re-predicted.
constexpr std::uint64_t kKeepEvery = 97;
constexpr std::size_t kCheckedGraphs = 64;
/// Requests replayed serially through the layer functions (traced run).
constexpr std::size_t kReplayRepeat = 1500;
constexpr std::size_t kReplayUnique = 400;
/// The replay runs this many times with spans and as many without.
constexpr int kReplayRepeats = 2;
/// Generous drain limit after each phase (a passing phase drains in ms).
constexpr double kDrainS = 15.0;

enum Phase : std::int16_t { kWarm = 0, kR1 = 1, kR2 = 2, kClosed = 3 };

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

/// FNV-1a over the node count and the edge list in order: identifies
/// one exact request graph (labelling included), not its structure.
std::uint64_t graph_fingerprint(const qgnn::Graph& g) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(g.num_nodes()));
  for (const qgnn::Edge& e : g.edges()) {
    mix(static_cast<std::uint64_t>(e.u) << 8 | static_cast<std::uint64_t>(e.v));
  }
  return h;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_values(const std::vector<double>& got, const qgnn::Matrix& want) {
  bool equal = got.size() == want.cols();
  for (std::size_t j = 0; equal && j < got.size(); ++j) {
    equal = same_bits(got[j], want(0, j));
  }
  return equal;
}

serve::ServeConfig server_config() {
  serve::ServeConfig c;  // qgnn_serve defaults
  c.verify_ar = true;
  return c;
}

qgnn::GnnModel demo_model() {
  qgnn::GnnModelConfig mc;  // qgnn_serve --demo: GCN, seed 42
  qgnn::Rng rng(42);
  return qgnn::GnnModel(mc, rng);
}

/// Observes every answered prediction through the handle's public
/// prediction tap: verified AR for ar_mean, and the served AR of the
/// graphs in the correctness sample.
struct TapState {
  std::mutex mutex;
  double ar_sum = 0.0;
  std::uint64_t ar_count = 0;
  const std::unordered_set<std::uint64_t>* watch = nullptr;
  std::unordered_map<std::uint64_t, double> served_ar;
  bool ar_conflict = false;

  void observe(const qgnn::Graph& g, const serve::Prediction& p) {
    if (!p.ar_verified) return;
    const std::uint64_t fp = graph_fingerprint(g);
    const bool watched = watch->count(fp) != 0;
    std::lock_guard<std::mutex> lk(mutex);
    ar_sum += p.approximation_ratio;
    ++ar_count;
    if (watched) {
      auto [it, fresh] = served_ar.emplace(fp, p.approximation_ratio);
      if (!fresh && !same_bits(it->second, p.approximation_ratio)) {
        ar_conflict = true;
      }
    }
  }
  void reset_mean() {
    std::lock_guard<std::mutex> lk(mutex);
    ar_sum = 0.0;
    ar_count = 0;
  }
};

/// The request stream: ids are stream positions.
struct Stream {
  bool repeat = false;
  /// serve_unique: one body per id. serve_repeat: `pool` pool bodies,
  /// then the kRelabelled relabelled copies.
  std::vector<std::string> bodies;
  std::vector<std::uint64_t> fingerprints;  // graph_fingerprint per body
  std::vector<std::uint32_t> order;         // serve_repeat: body index per id
  std::size_t pool = 0;

  /// serve_repeat: id is a relabelled copy of a popular pool graph.
  bool relabelled(std::uint64_t id) const { return repeat && order[id] >= pool; }

  std::size_t capacity() const { return repeat ? order.size() : bodies.size(); }
  /// Index of id's graph in bodies.
  std::size_t index(std::uint64_t id) const { return repeat ? order[id] : id; }
  const std::string& body(std::uint64_t id) const { return bodies[index(id)]; }
  qgnn::Graph graph(std::uint64_t id) const {
    return serve::parse_request(request_line(id, body(id))).graph;
  }
};

Stream make_stream(bool repeat, std::uint64_t seed) {
  Stream st;
  st.repeat = repeat;
  const std::size_t count = repeat
                                ? kPoolPerCache * server_config().cache_capacity
                                : kUniqueStreamLength;
  GraphSet set = distinct_graphs(qgnn::derive_seed(seed, 1), count);
  if (repeat) {
    qgnn::Rng rng(qgnn::derive_seed(seed, 3));
    for (std::size_t k = 0; k < kRelabelled; ++k) {
      qgnn::Graph copy = shuffled(set.graphs[k], rng);
      set.bodies.push_back(request_body(copy));
      set.graphs.push_back(std::move(copy));
    }
  }
  st.fingerprints.reserve(set.graphs.size());
  for (const qgnn::Graph& g : set.graphs) {
    st.fingerprints.push_back(graph_fingerprint(g));
  }
  st.bodies = std::move(set.bodies);
  if (repeat) {
    st.pool = count;
    st.order = zipf_indices(qgnn::derive_seed(seed, 2), count, kZipfS,
                            kRepeatStreamLength);
    std::vector<char> early(kRelabelled, 0);
    for (std::uint64_t id = 0; id < kRelabelFrom; ++id) {
      if (st.order[id] < kRelabelled) early[st.order[id]] = 1;
    }
    for (std::uint64_t id = kRelabelFrom; id < st.order.size(); id += kRelabelEvery) {
      const std::size_t k = (id - kRelabelFrom) / kRelabelEvery % kRelabelled;
      QGNN_REQUIRE(early[k], "serve_repeat: a relabelled graph's original is "
                             "not sent before its copies");
      st.order[id] = static_cast<std::uint32_t>(count + k);
    }
  }
  return st;
}

/// The inputs, built from the seed before set-up and not timed: the
/// stream, the arrival schedules and the correctness sample.
struct Inputs {
  std::uint64_t seed = 0;
  Stream stream;
  std::vector<std::vector<double>> r1_offsets;  // one schedule per round
  std::vector<std::vector<double>> r2_offsets;
  /// Fingerprints of the graphs of the kept ids.
  std::unordered_set<std::uint64_t> watch;

  /// Ids whose response is kept for checking: a seeded sample of about
  /// one in kKeepEvery, and every relabelled copy.
  bool kept(std::uint64_t id) const {
    return qgnn::derive_seed(seed ^ 0x6b65657000000000ULL, id) % kKeepEvery == 0 ||
           stream.relabelled(id);
  }
};

void build_inputs(Inputs& in, std::uint64_t seed, bool repeat,
                  const ServeRates& rates, const Plan& plan) {
  in.seed = seed;
  in.stream = make_stream(repeat, seed);
  const Stream& st = in.stream;
  for (std::uint64_t id = 0; id < st.capacity(); ++id) {
    if (in.kept(id)) in.watch.insert(st.fingerprints[st.index(id)]);
  }
  for (int r = 0; r < plan.rounds; ++r) {
    const auto round = static_cast<std::uint64_t>(r);
    in.r1_offsets.push_back(poisson_offsets(
        qgnn::derive_seed(seed, 10 + 2 * round),
        static_cast<std::size_t>(std::llround(rates.r1 * plan.r1_s)), plan.r1_s));
    in.r2_offsets.push_back(poisson_offsets(
        qgnn::derive_seed(seed, 11 + 2 * round),
        static_cast<std::size_t>(std::llround(rates.r2 * plan.r2_s)), plan.r2_s));
  }
}

/// The program's side, which set-up builds. Members are destroyed in
/// reverse order: the service stops before the handle (and its tap) go.
struct Server {
  TapState tap;
  std::unique_ptr<serve::ServeHandle> handle;
  std::unique_ptr<serve::NdjsonTcpService> service;
};

/// `{"cmd":"ping"}` without its opening brace, for round_trip_us.
const std::string kPingBody = "\"cmd\":\"ping\"}";

/// Set-up, the part that is timed: the handle and its model, the TCP
/// service, the client's connections and the first answer, a prediction
/// for `first_body`: the complete graph K13, outside the streams. Its
/// QAOA verification is about half the time, so that compute, not thread
/// start-up and wake-ups, dominates what set-up measures; at 13 nodes it
/// runs on one thread, below the statevector's parallel threshold, where
/// a busy host slows it least (STEADINESS.md).
std::unique_ptr<Server> start_server(const Inputs& in, LoopbackClient& client,
                                     const std::string& first_body,
                                     int connections) {
  auto s = std::make_unique<Server>();
  s->tap.watch = &in.watch;
  s->handle = std::make_unique<serve::ServeHandle>(server_config());
  s->handle->register_model(server_config().default_model, demo_model());
  TapState* tap = &s->tap;
  s->handle->set_prediction_tap(
      [tap](const qgnn::Graph& g, const serve::Prediction& p) {
        tap->observe(g, p);
      });
  serve::TcpServiceConfig tcp;  // 127.0.0.1, ephemeral port, no shedding
  s->service = std::make_unique<serve::NdjsonTcpService>(*s->handle, tcp);
  s->service->start();
  client.connect(s->service->port(), connections);
  client.round_trip_us(first_body);
  return s;
}

/// Outcome of one measured phase.
struct PhaseStats {
  std::vector<double> lat_us;  // due -> answer; unanswered count as +inf
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;     // error answers plus unanswered
  std::uint64_t backlog_end = 0;
  double answered_per_s = 0.0;  // answers inside the sending window / window
};

PhaseStats phase_stats(const LoopbackClient& client,
                       const std::vector<std::uint64_t>& ids,
                       std::int64_t window_start, double window_s,
                       std::uint64_t backlog_end) {
  PhaseStats s;
  s.sent = ids.size();
  s.backlog_end = backlog_end;
  const std::int64_t window_end =
      window_start + static_cast<std::int64_t>(window_s * 1e9);
  std::uint64_t in_window = 0;
  for (const std::uint64_t id : ids) {
    const RequestRecord& r = client.records()[id];
    if (r.answers == 0) {
      s.lat_us.push_back(1e18);
      ++s.failed;
      continue;
    }
    s.lat_us.push_back(static_cast<double>(r.recv_ns - r.due_ns) / 1e3);
    if (r.ok) {
      ++s.ok;
      if (r.recv_ns <= window_end) ++in_window;
    } else {
      ++s.failed;
    }
  }
  s.answered_per_s = static_cast<double>(in_window) / window_s;
  return s;
}

/// Open-loop phase at `offsets`, then drain.
PhaseStats run_open(LoopbackClient& client, std::int16_t phase,
                    const std::vector<double>& offsets, double duration_s,
                    std::vector<double>& lags) {
  const std::int64_t start = now_ns() + 200000;  // open_loop's own lead
  const std::vector<std::uint64_t> ids = client.open_loop(phase, offsets);
  const std::uint64_t backlog = client.in_flight();
  lags.insert(lags.end(), client.last_lags_us().begin(),
              client.last_lags_us().end());
  client.drain(kDrainS);
  return phase_stats(client, ids, start, duration_s, backlog);
}

/// Per-graph serve layers, replayed serially on this thread with a span
/// around every public call (when `spans` is on). Also collects per-n
/// timings for n = 15.
struct ReplayResult {
  std::vector<double> hash_n15_us;
  std::vector<double> verify_build_n15_us;
  std::vector<qgnn::Graph> graphs;  // the replayed graphs, for b16
};

double span_us(const SpanRecorder& spans, std::int32_t index) {
  const Span& s = spans.spans()[static_cast<std::size_t>(index)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
}

void replay(const Stream& stream, const std::vector<std::uint64_t>& ids,
            SpanRecorder& spans, ReplayResult& out) {
  const qgnn::GnnModel model = demo_model();
  const qgnn::FeatureConfig& features = model.config().features;
  serve::PredictionCache cache(server_config().cache_capacity);
  for (const std::uint64_t id : ids) {
    const std::string line = request_line(id, stream.body(id));
    const std::int32_t root = spans.open("replay.request", id, -1);
    std::optional<serve::Request> req;
    {
      SpanRecorder::Scope s(spans, "protocol.parse", id, root);
      req.emplace(serve::parse_request(line));
    }
    const qgnn::Graph& g = req->graph;
    std::uint64_t hash = 0;
    std::int32_t hash_span = -1;
    {
      SpanRecorder::Scope s(spans, "canonical.hash", id, root);
      hash = qgnn::canonical_hash(g);
      hash_span = s.index();
    }
    const bool n15 = spans.on() && g.num_nodes() == 15;
    if (n15) out.hash_n15_us.push_back(span_us(spans, hash_span));
    const serve::CacheKey key{server_config().default_model, 1, hash};
    std::optional<serve::CachedPrediction> hit;
    {
      SpanRecorder::Scope s(spans, "cache.probe", id, root);
      hit = cache.probe(key);
    }
    serve::Prediction p;
    p.model = key.model;
    p.generation = 1;
    if (hit) {
      p.values = hit->values;
      p.cache_hit = true;
      p.approximation_ratio = hit->approximation_ratio;
      p.ar_verified = hit->ar_verified;
    } else {
      {
        SpanRecorder::Scope s(spans, "cache.lookup", id, root);
        (void)cache.lookup(key);
      }
      std::optional<qgnn::GraphBatch> batch;
      {
        SpanRecorder::Scope s(spans, "features.build", id, root);
        batch.emplace(qgnn::make_graph_batch(g, features));
      }
      {
        SpanRecorder::Scope s(spans, "gnn.forward", id, root);
        p.values = model.predict(*batch);
      }
      {
        SpanRecorder::Scope s(spans, "cache.insert", id, root);
        cache.insert(key, p.values);
      }
      std::optional<qgnn::QaoaAnsatz> ansatz;
      std::int32_t build_span = -1;
      {
        SpanRecorder::Scope s(spans, "verify.build", id, root);
        ansatz.emplace(g);
        build_span = s.index();
      }
      if (n15) out.verify_build_n15_us.push_back(span_us(spans, build_span));
      {
        SpanRecorder::Scope s(spans, "verify.eval", id, root);
        p.approximation_ratio =
            ansatz->approximation_ratio(qgnn::target_to_params(p.values));
      }
      p.ar_verified = true;
      p.batch_size = 1;
      cache.set_ar(key, p.approximation_ratio);
    }
    {
      SpanRecorder::Scope s(spans, "protocol.format", id, root);
      const std::string resp = serve::format_response(req->id, p);
      if (resp.empty()) throw std::logic_error("empty response");
    }
    spans.close(root);
    if (out.graphs.size() < 16) out.graphs.push_back(g);
  }
}

StreamStats stats_of(const Stream& stream, std::uint64_t count) {
  // Hash every distinct graph of the prefix once, in parallel.
  std::vector<std::size_t> graphs;
  std::vector<char> used(stream.bodies.size(), 0);
  for (std::uint64_t id = 0; id < count; ++id) {
    const std::size_t i = stream.index(id);
    if (!used[i]) graphs.push_back(i);
    used[i] = 1;
  }
  std::vector<std::uint64_t> hash_of(stream.bodies.size(), 0);
  qgnn::ThreadPool::global().parallel_for(
      0, graphs.size(), 16, [&](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t k = lo; k < hi; ++k) {
          const std::size_t i = graphs[k];
          hash_of[i] = qgnn::canonical_hash(
              serve::parse_request(request_line(0, stream.bodies[i])).graph);
        }
      });
  StreamStats out;
  out.requests = count;
  out.distinct_graphs = graphs.size();
  out.pool_per_cache = stream.repeat
                           ? static_cast<double>(stream.pool) /
                                 static_cast<double>(server_config().cache_capacity)
                           : 0.0;
  std::unordered_map<std::uint64_t, std::size_t> first_body;  // by hash
  std::uint64_t repeats = 0;
  for (std::uint64_t id = 0; id < count; ++id) {
    const std::size_t i = stream.index(id);
    const auto [it, fresh] = first_body.emplace(hash_of[i], i);
    if (fresh) continue;
    ++repeats;
    if (stream.fingerprints[it->second] != stream.fingerprints[i]) {
      ++out.relabelled_repeats;
    }
  }
  out.repeat_share =
      count ? static_cast<double>(repeats) / static_cast<double>(count) : 0.0;
  return out;
}

/// Values row of a kept response line.
std::vector<double> response_values(const std::string& line) {
  const serve::JsonValue doc = serve::parse_json(line);
  const serve::JsonValue* values = doc.find("values");
  if (!values || !values->is_array()) throw std::runtime_error("no values in " + line);
  std::vector<double> out;
  for (const serve::JsonValue& v : values->array) out.push_back(v.number);
  return out;
}

void check_answers(const Inputs& in, const Server& s,
                   const LoopbackClient& client, Report& report) {
  std::uint64_t missing = 0, duplicate = 0, errors = 0;
  for (std::uint64_t id = 0; id < client.next_id(); ++id) {
    const RequestRecord& r = client.records()[id];
    if (r.answers == 0) ++missing;
    if (r.answers > 1) ++duplicate;
    if (r.answers > 0 && !r.ok) ++errors;
  }
  if (missing || duplicate || errors || client.stray_lines()) {
    report.fail_check("answers: " + std::to_string(missing) + " missing, " +
                      std::to_string(duplicate) + " duplicated, " +
                      std::to_string(errors) + " errors, " +
                      std::to_string(client.stray_lines()) + " stray");
  }
  if (s.tap.ar_conflict) {
    report.fail_check("one graph was served two different verified ARs");
  }

  // Bit-identity against a fresh in-process handle, graph by graph.
  // Relabelled copies are compared with a handle without a cache, which
  // runs the model on the copy's own labelling; their mismatches are
  // counted, not failed (README.md, "Relabelled repeats").
  std::vector<std::uint64_t> ids;
  for (const auto& [id, line] : client.kept()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  serve::ServeHandle fresh(server_config());
  fresh.register_model(server_config().default_model, demo_model());
  serve::ServeConfig uncached = server_config();
  uncached.cache_capacity = 0;
  serve::ServeHandle cold(uncached);
  cold.register_model(uncached.default_model, demo_model());
  std::unordered_map<std::uint64_t, serve::Prediction> expected, expected_cold;
  std::size_t compared = 0;
  std::uint64_t relabel_sent = 0, relabel_mismatch = 0;
  for (const std::uint64_t id : ids) {
    const qgnn::Graph g = in.stream.graph(id);
    const std::uint64_t fp = graph_fingerprint(g);
    const bool copy = in.stream.relabelled(id);
    if (copy) ++relabel_sent;
    auto& want_of = copy ? expected_cold : expected;
    auto it = want_of.find(fp);
    if (it == want_of.end()) {
      if (!copy && expected.size() >= kCheckedGraphs) continue;
      it = want_of.emplace(fp, copy ? cold.predict(g) : fresh.predict(g)).first;
    }
    const serve::Prediction& want = it->second;
    const auto served = s.tap.served_ar.find(fp);
    const bool ar_equal = served != s.tap.served_ar.end() && want.ar_verified &&
                          same_bits(served->second, want.approximation_ratio);
    const bool values_equal = same_values(response_values(client.kept().at(id)), want.values);
    if (copy) {
      if (!ar_equal || !values_equal) ++relabel_mismatch;
      continue;
    }
    if (!ar_equal) {
      report.fail_check("request " + std::to_string(id) +
                        ": served AR differs from a fresh handle");
    }
    if (!values_equal) {
      report.fail_check("request " + std::to_string(id) +
                        ": served (gamma, beta) differ from a fresh handle");
    }
    ++compared;
  }
  if (compared == 0) report.fail_check("no response was sampled for checking");
  report.add("canonical.relabel_mismatch", static_cast<double>(relabel_mismatch), "count");
  report.add("info.relabel.sent", static_cast<double>(relabel_sent), "count");
}

}  // namespace

std::vector<std::string> stream_lines(const std::string& workload,
                                      std::uint64_t seed, std::size_t count) {
  const Stream st = make_stream(workload == "serve_repeat", seed);
  std::vector<std::string> out;
  for (std::uint64_t id = 0; id < count && id < st.capacity(); ++id) {
    out.push_back(request_line(id, st.body(id)));
  }
  return out;
}

StreamStats stream_stats(const std::string& workload, std::uint64_t seed,
                         std::size_t count) {
  const Stream st = make_stream(workload == "serve_repeat", seed);
  return stats_of(st, std::min<std::uint64_t>(count, st.capacity()));
}

struct ServeRun::State {
  RunOptions opt;
  SpanRecorder* spans = nullptr;
  bool repeat = false;
  ServeRates rates;
  Plan plan;
  int callers = 1;
  // Destroyed in reverse order: the client disconnects, then the server
  // stops, then the inputs it read go.
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Server> server;
  std::unique_ptr<LoopbackClient> client;
  serve::ServeStats stats_after_warm;
  std::string first_body;  // set-up's first request: K13
  int connections = 1;
  std::vector<double> setup_s;
  int r1_round = 0;
  int r2_round = 0;
  // Per-chunk results.
  std::vector<double> r1_p99, closed_rates;
  std::vector<double> r1_lat, r2_lat;  // pooled over chunks
  std::vector<double> lags;
  std::uint64_t r2_backlog = 0;
  PhaseCount warm{"warm"}, r1{"r1"}, r2{"r2"}, closed{"closed"};
};

namespace {

void add_count(PhaseCount& total, const PhaseStats& s) {
  total.sent += s.sent;
  total.ok += s.ok;
  total.failed += s.failed;
}

}  // namespace

ServeRun::ServeRun(const RunOptions& opt, SpanRecorder& spans, Report& report)
    : s_(std::make_unique<State>()) {
  State& s = *s_;
  s.opt = opt;
  s.spans = &spans;
  s.repeat = opt.workload == "serve_repeat";
  s.rates = serve_rates(opt.workload);
  s.plan = plan(opt.seconds);
  const RunContext ctx = run_context();
  // One client thread plus its connections stay within nproc.
  s.connections = std::max(1, ctx.nproc - 1);
  s.callers = std::max(1, ctx.nproc);
  s.inputs = std::make_unique<Inputs>();
  const Inputs* inputs = s.inputs.get();
  const std::int64_t t_inputs = now_ns();
  build_inputs(*s.inputs, opt.seed, s.repeat, s.rates, s.plan);
  report.add("info.inputs_s", seconds_between(t_inputs, now_ns()), "s");
  // One client for every set-up of the measured server: its records, one
  // per stream id, are allocated once, outside the timer.
  s.client = std::make_unique<LoopbackClient>(
      inputs->stream.capacity(),
      [inputs](std::uint64_t id) { return request_line(id, inputs->stream.body(id)); });
  s.client->keep_responses([inputs](std::uint64_t id) { return inputs->kept(id); });
  s.first_body = request_body(qgnn::complete_graph(13));
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s.client->disconnect();
    s.server.reset();
    const std::int64_t t0 = now_ns();
    s.server = start_server(*s.inputs, *s.client, s.first_body, s.connections);
    s.setup_s.push_back(seconds_between(t0, now_ns()));
  }
}

ServeRun::~ServeRun() = default;

void ServeRun::warm() {
  State& s = *s_;
  LoopbackClient& client = *s.client;
  const std::vector<std::uint64_t> ids =
      client.closed_loop(kWarm, s.callers, s.plan.warm_s);
  client.drain(kDrainS);
  add_count(s.warm, phase_stats(client, ids, now_ns(), 1.0, 0));
  s.server->tap.reset_mean();
  s.stats_after_warm = s.server->handle->stats();
}

void ServeRun::r1_chunk() {
  State& s = *s_;
  const PhaseStats ps =
      run_open(*s.client, kR1,
               s.inputs->r1_offsets[static_cast<std::size_t>(s.r1_round++)],
               s.plan.r1_s, s.lags);
  add_count(s.r1, ps);
  s.r1_p99.push_back(quantile(ps.lat_us, 0.99));
  s.r1_lat.insert(s.r1_lat.end(), ps.lat_us.begin(), ps.lat_us.end());
}

void ServeRun::r2_chunk() {
  State& s = *s_;
  const PhaseStats ps =
      run_open(*s.client, kR2,
               s.inputs->r2_offsets[static_cast<std::size_t>(s.r2_round++)],
               s.plan.r2_s, s.lags);
  add_count(s.r2, ps);
  s.r2_lat.insert(s.r2_lat.end(), ps.lat_us.begin(), ps.lat_us.end());
  s.r2_backlog = std::max(s.r2_backlog, ps.backlog_end);
}

void ServeRun::closed_chunk() {
  State& s = *s_;
  LoopbackClient& client = *s.client;
  const std::int64_t start = now_ns();
  const std::vector<std::uint64_t> ids =
      client.closed_loop(kClosed, s.callers, s.plan.closed_s);
  client.drain(kDrainS);
  const PhaseStats ps = phase_stats(client, ids, start, s.plan.closed_s, 0);
  add_count(s.closed, ps);
  s.closed_rates.push_back(ps.answered_per_s);
}

void ServeRun::setup_chunk() {
  State& s = *s_;
  // Only ping ids, which need no records.
  LoopbackClient probe(0, [](std::uint64_t) { return std::string(); });
  for (int rep = 0; rep < kSetupPerRound; ++rep) {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Server> server =
        start_server(*s.inputs, probe, s.first_body, s.connections);
    s.setup_s.push_back(seconds_between(t0, now_ns()));
    probe.disconnect();
  }
}

void ServeRun::finish(Report& report) {
  State& s = *s_;
  SpanRecorder& spans = *s.spans;
  const Inputs& inputs = *s.inputs;
  Server& server = *s.server;
  LoopbackClient& client = *s.client;
  for (const PhaseCount* p : {&s.warm, &s.r1, &s.r2, &s.closed}) {
    report.add_phase(*p);
  }
  double ar_mean = 0.0;
  {
    std::lock_guard<std::mutex> lk(server.tap.mutex);
    ar_mean = server.tap.ar_count
                  ? server.tap.ar_sum / static_cast<double>(server.tap.ar_count)
                  : 0.0;
  }
  report.add("setup_s", median(s.setup_s), "s");
  // The serve timings are printed, and layer metrics of the traced run,
  // but not gated (README.md, "Why the serve and training timings are
  // not gated" and "Also printed, not gated").
  report.add("lat_p50_us.r1", median(s.r1_lat), "us");
  report.add("lat_p99_us.r1", median(s.r1_p99), "us");
  report.add("info.lat_p99_us.r1.pooled", quantile(s.r1_lat, 0.99), "us");
  report.add("lat_p50_us.r2", median(s.r2_lat), "us");
  report.add("closed_per_s", median(s.closed_rates), "1/s");
  report.add("ar_mean", ar_mean, "ratio");
  // Reported with their sample counts, not gated (README.md).
  report.add("info.lat_p99_us.r2", quantile(s.r2_lat, 0.99), "us");
  report.add("info.r1.samples", static_cast<double>(s.r1_lat.size()), "count");
  report.add("info.r2.samples", static_cast<double>(s.r2_lat.size()), "count");

  check_answers(inputs, server, client, report);
  if (!s.opt.trace) return;

  // --- traced run: the layers ------------------------------------------
  const serve::ServeStats st = server.handle->stats();
  std::uint64_t sent = 0, ok = 0, failed = 0;
  for (const PhaseCount& p : report.phases()) {
    if (p.name == "label" || p.name == "train") continue;
    sent += p.sent;
    ok += p.ok;
    failed += p.failed;
  }
  report.add("gen.sent", static_cast<double>(sent), "count");
  report.add("gen.ok", static_cast<double>(ok), "count");
  report.add("gen.failed", static_cast<double>(failed), "count");
  report.add("gen.lag_us.p99", quantile(s.lags, 0.99), "us");
  report.add("gen.backlog_end", static_cast<double>(s.r2_backlog), "count");
  report.add("gen.repeat_share",
             stats_of(inputs.stream, client.next_id()).repeat_share, "ratio");

  std::vector<double> rtt;
  for (int i = 0; i < 50; ++i) rtt.push_back(client.round_trip_us(kPingBody));
  const qgnn::net::TcpServerStats net = server.service->net_stats();
  report.add("net.rtt_us.p50", median(rtt), "us");
  report.add("net.lines_in", static_cast<double>(net.lines_in), "count");
  report.add("net.lines_out", static_cast<double>(net.lines_out), "count");
  report.add("net.conn_dropped", static_cast<double>(net.connections_dropped), "count");

  const std::uint64_t hits = st.cache_hits - s.stats_after_warm.cache_hits;
  const std::uint64_t misses = st.cache_misses - s.stats_after_warm.cache_misses;
  const double hit_ratio =
      hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
  report.add("cache.hit_ratio", hit_ratio, "ratio");
  report.add("cache.evictions", static_cast<double>(st.cache_evictions), "count");
  report.add("serve.queue_wait_us.p50", st.queue_wait_us.p50, "us");
  report.add("serve.queue_wait_us.p99", st.queue_wait_us.p99, "us");
  report.add("batcher.batch_size.mean", st.mean_batch_size, "count");
  report.add("batcher.batches", static_cast<double>(st.batches), "count");
  report.add("verify.count", static_cast<double>(st.ar_verifications), "count");

  // Serial replay of the r1 requests through the layer functions, with
  // the spans on and, alternately, off: trace.overhead is what recording
  // the spans costs the replay.
  std::vector<std::uint64_t> replay_ids;
  for (std::uint64_t id = 0; id < client.next_id(); ++id) {
    if (client.records()[id].phase == kR1) replay_ids.push_back(id);
  }
  replay_ids.resize(std::min(replay_ids.size(), s.repeat ? kReplayRepeat : kReplayUnique));
  ReplayResult rr;
  ReplayResult untraced;
  SpanRecorder off(false);
  double traced_s = 0.0, untraced_s = 0.0;
  // Alternate which goes first, so that neither gains from the other's
  // warming of caches.
  for (int rep = 0; rep < 2 * kReplayRepeats; ++rep) {
    const bool traced = (rep % 4 == 1) || (rep % 4 == 2);
    const std::int64_t t0 = now_ns();
    replay(inputs.stream, replay_ids, traced ? spans : off, traced ? rr : untraced);
    (traced ? traced_s : untraced_s) += seconds_between(t0, now_ns());
  }
  report.add("trace.overhead", traced_s / untraced_s - 1.0, "ratio");
  const auto self = spans.self_times_us();
  auto self_median = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  const double parse = self_median("protocol.parse");
  const double format = self_median("protocol.format");
  const double hash = self_median("canonical.hash");
  const double probe = self_median("cache.probe");
  const double lookup = self_median("cache.lookup");
  const double insert = self_median("cache.insert");
  const double features = self_median("features.build");
  const double forward = self_median("gnn.forward");
  const double vbuild = self_median("verify.build");
  const double veval = self_median("verify.eval");
  report.add("protocol.parse_us", parse, "us");
  report.add("protocol.format_us", format, "us");
  report.add("canonical.hash_us.p50", hash, "us");
  report.add("canonical.hash_us.n15", median(rr.hash_n15_us), "us");
  report.add("cache.lookup_us.p50", lookup, "us");
  report.add("cache.probe_us", probe, "us");
  report.add("cache.insert_us", insert, "us");
  report.add("features.build_us", features, "us");
  report.add("gnn.forward_us.b1", forward, "us");
  report.add("verify.build_us", vbuild, "us");
  report.add("verify.eval_us", veval, "us");
  report.add("verify.build_us.n15", median(rr.verify_build_n15_us), "us");

  // Union forward of 16 graphs, per graph.
  {
    const qgnn::GnnModel model = demo_model();
    const qgnn::GraphBatch batch =
        qgnn::make_graph_batch(rr.graphs, model.config().features);
    std::vector<double> us;
    for (int i = 0; i < 30; ++i) {
      const std::int32_t span = spans.open("gnn.forward_b16", static_cast<std::uint64_t>(i), -1);
      const std::int64_t t0 = now_ns();
      const qgnn::Matrix rows = model.predict(batch);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                   static_cast<double>(rows.rows()));
      spans.close(span);
    }
    report.add("gnn.forward_us.b16", median(us), "us");
  }

  // MicroBatcher::run with one caller and a no-op executor: pure wait.
  {
    const serve::ServeConfig cfg = server_config();
    serve::MicroBatcher batcher(cfg.max_batch, cfg.max_queue_delay,
                                [](std::vector<serve::BatchRequest*>& batch) {
                                  for (serve::BatchRequest* r : batch) {
                                    r->batch_size = static_cast<int>(batch.size());
                                  }
                                });
    const qgnn::Graph g(2);
    std::vector<double> us;
    for (int i = 0; i < 20; ++i) {
      serve::BatchRequest req(&g);
      const std::int32_t span = spans.open("batcher.run", static_cast<std::uint64_t>(i), -1);
      const std::int64_t t0 = now_ns();
      batcher.run(req);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      spans.close(span);
    }
    report.add("batcher.run_us.c1", median(us), "us");
  }

  // lat_p50_us.r1 minus the layer medians on the median request's
  // blocking path: a cache hit when most requests hit, else a miss
  // (which the TCP front end hashes three times: inline probe, predict
  // lookup, batch insert).
  const double rtt_p50 = median(rtt);
  double path = rtt_p50 + parse + hash + probe + format;
  if (hit_ratio < 0.5) {
    path += 2 * hash + lookup + st.queue_wait_us.p50 + features + forward +
            insert + vbuild + veval;
  }
  report.add("unattributed_us.r1", median(s.r1_lat) - path, "us");
}

}  // namespace qbench
