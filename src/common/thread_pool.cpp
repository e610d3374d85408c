#include "common/thread_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

namespace repro::common {

namespace {

thread_local bool t_on_worker = false;

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;
  std::deque<std::function<void()>> queue;
  mutable std::mutex mutex;
  std::condition_variable cv;
  bool stopping = false;

  void worker_loop() {
    t_on_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) return;
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }

  /// Pop one queued task and run it on the calling thread; false when idle.
  bool run_one() {
    std::function<void()> task;
    {
      std::lock_guard lock(mutex);
      if (queue.empty()) return false;
      task = std::move(queue.front());
      queue.pop_front();
    }
    task();
    return true;
  }
};

ThreadPool::ThreadPool(std::size_t num_threads) : impl_(std::make_unique<Impl>()) {
  if (num_threads == 0) num_threads = default_thread_count();
  const std::size_t background = num_threads > 0 ? num_threads - 1 : 0;
  impl_->workers.reserve(background);
  for (std::size_t i = 0; i < background; ++i) {
    impl_->workers.emplace_back([impl = impl_.get()] { impl->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  for (auto& w : impl_->workers) w.join();
}

std::size_t ThreadPool::size() const noexcept { return impl_->workers.size() + 1; }

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) const {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (grain == 0) grain = 1;
  const std::size_t threads = size();
  if (threads == 1 || n <= grain || t_on_worker) {
    body(begin, end);
    return;
  }

  // Static partition: chunk count and boundaries depend only on the range,
  // the grain and the pool size — never on scheduling.
  const std::size_t max_chunks = (n + grain - 1) / grain;
  const std::size_t chunks = std::min(threads, max_chunks);

  struct Job {
    std::latch done;
    std::mutex error_mutex;
    std::exception_ptr error;
    explicit Job(std::size_t c) : done(static_cast<std::ptrdiff_t>(c)) {}
  };
  Job job(chunks);

  const auto run_chunk = [&](std::size_t c) {
    const std::size_t lo = begin + (n * c) / chunks;
    const std::size_t hi = begin + (n * (c + 1)) / chunks;
    try {
      if (lo < hi) body(lo, hi);
    } catch (...) {
      std::lock_guard lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
    }
    job.done.count_down();
  };

  {
    std::lock_guard lock(impl_->mutex);
    for (std::size_t c = 1; c < chunks; ++c) {
      impl_->queue.emplace_back([&run_chunk, c] { run_chunk(c); });
    }
  }
  // One wake-up per queued chunk: waking every idle worker for fewer
  // chunks only adds context switches (the destructor still wakes all).
  for (std::size_t c = 1; c < chunks; ++c) impl_->cv.notify_one();
  run_chunk(0);
  // Help drain the queue (our own chunks, or a concurrent caller's), then
  // block until every chunk of this job has finished.
  while (!job.done.try_wait()) {
    if (!impl_->run_one()) {
      job.done.wait();
      break;
    }
  }
  if (job.error) std::rethrow_exception(job.error);
}

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("REPRO_THREADS")) {
    char* rest = nullptr;
    const long v = std::strtol(env, &rest, 10);
    if (rest != env && *rest == '\0' && v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

namespace {

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard lock(g_global_mutex);
  if (!g_global_pool) g_global_pool = std::make_unique<ThreadPool>();
  return *g_global_pool;
}

void ThreadPool::set_global_threads(std::size_t n) {
  auto fresh = std::make_unique<ThreadPool>(n);
  std::lock_guard lock(g_global_mutex);
  g_global_pool = std::move(fresh);
}

bool ThreadPool::on_worker_thread() noexcept { return t_on_worker; }

}  // namespace repro::common
