#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace qbench {

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {"ar_mean", "label_per_s",
                                                 "val_mse", "setup_s"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "lat_p50_us.r1", "closed_per_s", "train_samples_per_s",
      "lat_p99_us.r1", "lat_p50_us.r2",
      "gen.sent", "gen.ok", "gen.failed", "gen.lag_us.p99",
      "gen.backlog_end", "gen.repeat_share",
      "net.rtt_us.p50", "net.lines_in", "net.lines_out", "net.conn_dropped",
      "protocol.parse_us", "protocol.format_us",
      "canonical.hash_us.p50", "canonical.hash_us.n15",
      "canonical.relabel_mismatch",
      "cache.hit_ratio", "cache.evictions", "cache.lookup_us.p50",
      "cache.probe_us", "cache.insert_us",
      "serve.queue_wait_us.p50", "serve.queue_wait_us.p99",
      "batcher.batch_size.mean", "batcher.batches", "batcher.run_us.c1",
      "features.build_us", "gnn.forward_us.b1", "gnn.forward_us.b16",
      "verify.build_us", "verify.eval_us", "verify.build_us.n15",
      "verify.count",
      "engine.evals", "engine.eval_us.n14",
      "factory.item_ms.n8", "factory.item_ms.n9", "factory.item_ms.n10",
      "factory.item_ms.n11", "factory.item_ms.n12", "factory.item_ms.n13",
      "factory.item_ms.n14", "factory.item_ms.n15",
      "factory.graphs_labeled", "factory.label_ar_mean", "pool.idle_share",
      "packed.write_ms", "packed.bytes",
      "trainer.epoch_ms", "trainer.forward_us", "trainer.backward_us",
      "trainer.optimizer_us",
      "unattributed_us.r1", "trace.overhead"};
  return names;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::string number_text(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, res.ptr);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!valid_name(name)) throw std::invalid_argument("bad metric name " + name);
  if (has(name)) throw std::invalid_argument("metric added twice: " + name);
  metrics_.push_back(Metric{name, value, unit});
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Report::fail_check(const std::string& what) {
  check_failures_.push_back(what);
}

std::uint64_t Report::attempted() const {
  std::uint64_t n = 0;
  for (const PhaseCount& p : phases_) n += p.sent;
  return n;
}

std::uint64_t Report::failed() const {
  std::uint64_t n = 0;
  for (const PhaseCount& p : phases_) n += p.failed;
  return n;
}

std::string Report::phases_json() const {
  std::string out = "{\"phases\":[";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const PhaseCount& p = phases_[i];
    if (i) out += ',';
    out += "{\"name\":\"" + p.name + "\",\"sent\":" + std::to_string(p.sent) +
           ",\"ok\":" + std::to_string(p.ok) +
           ",\"failed\":" + std::to_string(p.failed) + "}";
  }
  out += "]}";
  return out;
}

std::string Report::result_json(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(1, attempted()));
  out += ",\"failed\":" + std::to_string(failed());
  out += ",\"metrics\":{";
  bool first = true;
  auto emit = [&](const Metric& m) {
    if (!first) out += ',';
    first = false;
    out += '"' + m.name + "\":{\"value\":" + number_text(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  };
  if (names.empty()) {
    for (const Metric& m : metrics_) emit(m);
  } else {
    for (const std::string& n : names) {
      for (const Metric& m : metrics_) {
        if (m.name == n) emit(m);
      }
    }
  }
  out += "}}";
  return out;
}

}  // namespace qbench
