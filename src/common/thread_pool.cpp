#include "common/thread_pool.hpp"

#include "common/log.hpp"

namespace crac {

ThreadPool::ThreadPool(std::size_t num_threads) {
  CRAC_CHECK(num_threads > 0);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

std::vector<std::future<void>> ThreadPool::submit_batch(
    std::vector<std::function<void()>> tasks) {
  std::vector<std::future<void>> futures;
  futures.reserve(tasks.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& fn : tasks) {
      auto task =
          std::make_shared<std::packaged_task<void()>>(std::move(fn));
      futures.push_back(task->get_future());
      queue_.push_back([task] { (*task)(); });
    }
  }
  cv_.notify_all();
  return futures;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t workers = size();
  if (n == 1 || workers == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  const std::size_t chunks = std::min(n, workers);
  // done_mu, done_cv and done live on this stack frame. The last worker
  // increments and notifies while holding done_mu, so the caller cannot see
  // the final count (and return, freeing the frame) until that worker has
  // released the lock and stopped touching them.
  std::size_t done = 0;
  std::mutex done_mu;
  std::condition_variable done_cv;

  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = n * c / chunks;
    const std::size_t end = n * (c + 1) / chunks;
    submit([&, begin, end] {
      for (std::size_t i = begin; i < end; ++i) body(i);
      std::lock_guard<std::mutex> lock(done_mu);
      if (++done == chunks) done_cv.notify_one();
    });
  }

  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done == chunks; });
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace crac
