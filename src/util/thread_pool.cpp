#include "util/thread_pool.hpp"

#include <algorithm>

namespace mvf::util {

ThreadPool::ThreadPool(int threads) {
    const int count = std::max(1, threads);
    workers_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::unique_lock lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> future = packaged.get_future();
    {
        std::unique_lock lock(mutex_);
        queue_.push_back(std::move(packaged));
    }
    work_ready_.notify_one();
    return future;
}

void ThreadPool::wait_idle() {
    std::unique_lock lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
    while (true) {
        std::packaged_task<void()> task;
        {
            std::unique_lock lock(mutex_);
            work_ready_.wait(lock,
                             [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
        }
        task();  // exceptions land in the task's future
        std::unique_lock lock(mutex_);
        --in_flight_;
        if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
}

}  // namespace mvf::util
