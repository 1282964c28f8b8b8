#pragma once

// The benchmark's own spans, recorded around calls into the program's
// public API (never inside it). Single-threaded: only the benchmark's
// main thread records. Kept in memory and written as one Chrome trace
// (chrome://tracing, ui.perfetto.dev) when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qbench {

std::int64_t now_ns();

struct Span {
  const char* name = "";
  std::uint64_t request = 0;  // shared by every span of one request
  std::int32_t parent = -1;   // index of the enclosing span, -1 at top
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool on) : on_(on) {}

  bool on() const { return on_; }

  /// Open a span now and return its index (-1 when off); close it with
  /// close().
  std::int32_t open(const char* name, std::uint64_t request,
                    std::int32_t parent);
  void close(std::int32_t index);

  /// RAII span around one call.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::uint64_t request,
          std::int32_t parent)
        : rec_(rec), index_(rec.open(name, request, parent)) {}
    ~Scope() { rec_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int32_t index() const { return index_; }

   private:
    SpanRecorder& rec_;
    std::int32_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name in microseconds: each span's duration minus
  /// the time its direct children cover.
  std::map<std::string, std::vector<double>> self_times_us() const;

  /// Write every span as Chrome trace "X" events.
  void write_chrome_trace(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

}  // namespace qbench
