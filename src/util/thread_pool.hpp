#pragma once
// Fixed-size worker pool for embarrassingly parallel experiment batches.
//
// Deliberately minimal: tasks are type-erased void() thunks, submission
// returns a future for joining and exception propagation, and the pool
// joins its workers on destruction.  Determinism is the caller's job --
// flow::JobScheduler achieves it by giving every scenario its own isolated
// context and seed so results are independent of scheduling order.
//
// One FIFO queue under one mutex: at the granularity the pool is used for
// (whole scenarios, seconds each) queue contention is unmeasurable, and the
// single lock keeps wait_idle and shutdown trivially correct.  Workers take
// the oldest task, so submissions start in order.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace mvf::util {

class ThreadPool {
public:
    /// Spawns `threads` workers (clamped to >= 1).
    explicit ThreadPool(int threads);

    /// Drains outstanding tasks, then joins the workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int num_threads() const { return static_cast<int>(workers_.size()); }

    /// Enqueues a task at the back of the queue; the future resolves when
    /// it finishes (or rethrows what it threw).
    std::future<void> submit(std::function<void()> task);

    /// Blocks until every task submitted so far has completed.
    void wait_idle();

private:
    void worker_loop();

    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable idle_;
    std::deque<std::packaged_task<void()>> queue_;
    std::vector<std::thread> workers_;
    std::size_t in_flight_ = 0;
    bool stopping_ = false;
};

}  // namespace mvf::util
