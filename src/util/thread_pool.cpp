#include "util/thread_pool.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/error.hpp"

namespace qgnn {

namespace {

/// Set while a thread is executing chunk bodies, so nested parallel_for
/// calls (from a worker or from the caller's own participation) run
/// serially instead of re-entering the pool.
thread_local bool tl_in_parallel_region = false;

// The process-wide pool singleton: intentional shared state, guarded by
// g_global_mutex and sized once from QGNN_NUM_THREADS. Work scheduled on
// it stays thread-count invariant by construction (fixed chunk
// decomposition), so the usual objection to mutable globals does not bite.
// qgnn-lint: allow(mutable-global)
std::mutex g_global_mutex;
// qgnn-lint: allow(mutable-global)
std::unique_ptr<ThreadPool> g_global_pool;

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  QGNN_REQUIRE(num_threads >= 1, "thread pool needs at least one lane");
  auto& registry = obs::MetricsRegistry::global();
  obs_jobs_ = &registry.counter(obs::names::kPoolJobs);
  obs_chunks_ = &registry.counter(obs::names::kPoolChunks);
  obs_idle_us_ = &registry.counter(obs::names::kPoolWorkerIdleUs);
  obs_max_chunks_ = &registry.gauge(obs::names::kPoolMaxChunksInJob);
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int t = 0; t < num_threads - 1; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::participate(Job& job) {
  const bool was_in_region = tl_in_parallel_region;
  tl_in_parallel_region = true;
  std::uint64_t c;
  while ((c = job.next.fetch_add(1, std::memory_order_relaxed)) <
         job.chunks) {
    if (!job.failed.load(std::memory_order_relaxed)) {
      const std::uint64_t lo = job.begin + c * job.grain;
      const std::uint64_t hi = std::min(job.end, lo + job.grain);
      try {
        (*job.body)(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lk(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
        job.failed.store(true, std::memory_order_relaxed);
      }
    }
    if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.chunks) {
      std::lock_guard<std::mutex> lk(mutex_);
      done_.notify_all();
    }
  }
  tl_in_parallel_region = was_in_region;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      // Idle accounting reads the clock only when observability is on.
      const bool timed = obs::enabled();
      const auto idle_begin = timed ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
      std::unique_lock<std::mutex> lk(mutex_);
      wake_.wait(lk, [&] {
        return stop_ || (job_ != nullptr && job_epoch_ != seen_epoch);
      });
      // Return before the idle accounting: the global pool is destroyed
      // at exit after the function-local metrics registry that
      // obs_idle_us_ points into.
      if (stop_) return;
      if (timed) {
        const auto idle_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - idle_begin)
                .count();
        worker_idle_us_.fetch_add(static_cast<std::uint64_t>(idle_us),
                                  std::memory_order_relaxed);
        obs_idle_us_->add(static_cast<std::uint64_t>(idle_us));
      }
      seen_epoch = job_epoch_;
      job = job_;
    }
    participate(*job);
  }
}

void ThreadPool::parallel_for(std::uint64_t begin, std::uint64_t end,
                              std::uint64_t grain, const RangeBody& body) {
  if (end <= begin) return;
  const std::uint64_t g = std::max<std::uint64_t>(1, grain);
  const std::uint64_t chunks = (end - begin + g - 1) / g;
  jobs_submitted_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) obs_jobs_->add(1);
  if (num_threads_ <= 1 || chunks <= 1 || tl_in_parallel_region) {
    chunks_executed_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) obs_chunks_->add(1);
    body(begin, end);
    return;
  }

  parallel_jobs_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen_max = max_chunks_in_job_.load(std::memory_order_relaxed);
  while (chunks > seen_max &&
         !max_chunks_in_job_.compare_exchange_weak(
             seen_max, chunks, std::memory_order_relaxed)) {
  }
  if (obs::enabled()) {
    obs_max_chunks_->record_max(static_cast<double>(chunks));
  }

  std::lock_guard<std::mutex> submit_lk(submit_mutex_);
  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->grain = g;
  job->chunks = chunks;
  job->body = &body;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    job_ = job;
    ++job_epoch_;
  }
  wake_.notify_all();

  participate(*job);

  {
    std::unique_lock<std::mutex> lk(mutex_);
    done_.wait(lk, [&] {
      return job->completed.load(std::memory_order_acquire) == job->chunks;
    });
    job_ = nullptr;
  }
  chunks_executed_.fetch_add(chunks, std::memory_order_relaxed);
  if (obs::enabled()) obs_chunks_->add(chunks);
  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool::Counters ThreadPool::counters() const {
  Counters c;
  c.jobs_submitted = jobs_submitted_.load(std::memory_order_relaxed);
  c.parallel_jobs = parallel_jobs_.load(std::memory_order_relaxed);
  c.chunks_executed = chunks_executed_.load(std::memory_order_relaxed);
  c.max_chunks_in_job = max_chunks_in_job_.load(std::memory_order_relaxed);
  c.worker_idle_us = worker_idle_us_.load(std::memory_order_relaxed);
  return c;
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lk(g_global_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(configured_threads());
  }
  return *g_global_pool;
}

void ThreadPool::set_global_threads(int num_threads) {
  QGNN_REQUIRE(num_threads >= 1, "thread pool needs at least one lane");
  std::lock_guard<std::mutex> lk(g_global_mutex);
  g_global_pool = std::make_unique<ThreadPool>(num_threads);
}

int ThreadPool::configured_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw == 0 ? 1 : static_cast<int>(std::min(hw, 256u));
  const char* env = std::getenv("QGNN_NUM_THREADS");
  if (!env) return fallback;

  // Strict parse: the whole value must be one integer in [1, 256]. Anything
  // else ("8cores", "0", "99999", "") falls back to the hardware default
  // with a warning — silently clamping or truncating would hide typos.
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(env, &end, 10);
  const bool parsed = end != env && *end == '\0' && errno == 0;
  if (parsed && n >= 1 && n <= 256) return static_cast<int>(n);

  std::fprintf(stderr,
               "qgnn: warning: QGNN_NUM_THREADS='%s' is not an integer in "
               "[1, 256]; using default of %d threads\n",
               env, fallback);
  return fallback;
}

}  // namespace qgnn
