#include "runtime/thread_pool.hpp"

#include <utility>

namespace ffsva::runtime {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

bool ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lk(mu_);
    if (stopping_) return false;
    tasks_.push_back(std::move(task));
  }
  work_available_.notify_one();
  return true;
}

void ThreadPool::wait_idle() {
  UniqueLock lk(mu_);
  while (!tasks_.empty() || active_ != 0) idle_.wait(lk);
}

void ThreadPool::shutdown() {
  {
    MutexLock lk(mu_);
    if (stopping_) {
      // Already shut down by a previous call; workers may be joined.
    }
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lk(mu_);
      while (!stopping_ && tasks_.empty()) work_available_.wait(lk);
      if (tasks_.empty()) {
        // stopping_ and drained
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
      ++active_;
    }
    task();
    {
      MutexLock lk(mu_);
      --active_;
      if (tasks_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace ffsva::runtime
