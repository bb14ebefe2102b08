// Fixed-size worker pool.
//
// FFS-VA runs the SDDs of all streams on the CPU (paper Section 3.1.2); the
// threaded engine multiplexes them over this pool instead of spawning one
// OS thread per stream when stream counts are large. Tasks are type-erased
// std::function<void()>; submit() returns a future-like completion via
// wait_idle() because pipeline stages track their own results through
// queues, not return values.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "runtime/annotations.hpp"

namespace ffsva::runtime {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Returns false if the pool is shutting down.
  bool submit(std::function<void()> task) FFSVA_EXCLUDES(mu_);

  /// Block until every submitted task has finished and the queue is empty.
  void wait_idle() FFSVA_EXCLUDES(mu_);

  /// Stop accepting tasks, finish queued work, join workers. Idempotent.
  void shutdown() FFSVA_EXCLUDES(mu_);

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop() FFSVA_EXCLUDES(mu_);

  mutable Mutex mu_{rank::kThreadPool, "ThreadPool::mu_"};
  CondVar work_available_;
  CondVar idle_;
  // bounded-ok: the pool's own task queue; producers are the engine's
  // bounded stages and fork-join loops, whose outstanding submits are
  // bounded by chunk counts, not an inter-thread frame channel.
  std::deque<std::function<void()>> tasks_ FFSVA_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  ///< Written by ctor/shutdown only.
  std::size_t active_ FFSVA_GUARDED_BY(mu_) = 0;
  bool stopping_ FFSVA_GUARDED_BY(mu_) = false;
};

}  // namespace ffsva::runtime
