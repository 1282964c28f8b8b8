#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace qbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanRecorder::open(const char* name, std::uint64_t request,
                                std::int32_t parent) {
  if (!on_) return -1;
  const std::int64_t t = now_ns();
  spans_.push_back(Span{name, request, parent, t, t});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::close(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::map<std::string, std::vector<double>> SpanRecorder::self_times_us()
    const {
  // Children of one span run serially inside it, so their durations add.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e3);
  }
  return out;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) out << ",\n";
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - t0) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"request\":" << s.request << ",\"span\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("short write on trace " + path);
}

}  // namespace qbench
