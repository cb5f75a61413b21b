#pragma once

/**
 * @file
 * Fixed-size worker pool for the batch simulation engine.
 *
 * Deliberately minimal: submit() enqueues a task, wait() blocks until every
 * submitted task has finished. Determinism of a batch run never depends on
 * the pool — jobs write into pre-sized slots and draw from per-job RNG
 * streams — so the pool needs no ordering guarantees beyond "every task runs
 * exactly once".
 */

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace feather {
namespace serve {

/** Fixed-size thread pool; tasks may be submitted from any thread. */
class ThreadPool
{
  public:
    /** Spawns max(1, @p num_threads) workers. */
    explicit ThreadPool(int num_threads);

    /** Drains outstanding tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task for execution on some worker. */
    void submit(std::function<void()> task);

    /** Block until every task submitted so far has completed. */
    void wait();

  private:
    void workerLoop();

    std::mutex mu_;
    std::condition_variable work_cv_; ///< workers: "a task is available"
    std::condition_variable idle_cv_; ///< wait(): "all tasks completed"
    std::queue<std::function<void()>> queue_;
    size_t inflight_ = 0; ///< queued + currently-running tasks
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace serve
} // namespace feather
