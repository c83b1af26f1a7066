// Fixed-size thread pool.  service::VerificationService discharges
// independent proof obligations concurrently on one; this is the mechanism
// behind the paper's "linear behavior in terms of the number of
// components" (§5): obligations never share state, so they scale with
// cores.  The cluster coordinator dispatches its forwards on another.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace cmc {

/// A minimal work-stealing-free thread pool.  Tasks are arbitrary
/// `void()` callables; submit() returns a future for the callable's result.
/// The pool joins its workers on destruction after draining the queue.
class ThreadPool {
 public:
  /// Create `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(unsigned threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Number of worker threads.
  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Number of submitted tasks not yet picked up by a worker (tasks in
  /// flight on a worker are not counted).  This is the service layer's
  /// queue-depth metric; like any concurrent gauge it is stale the moment
  /// it returns.
  std::size_t pendingTasks() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  /// Schedule `fn(args...)`; the returned future yields its result.
  /// The callable and arguments are decay-copied (moved when passed as
  /// rvalues) into a tuple and invoked with std::apply — unlike std::bind
  /// this supports move-only callables and move-only arguments, and never
  /// misreads placeholders or nested bind expressions.
  /// An exception escaping the task is captured by the packaged_task and
  /// rethrown from the future's get() — it never reaches workerLoop(), so
  /// a throwing task cannot take a worker down or stall later tasks.
  template <typename Fn, typename... Args>
  auto submit(Fn&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<std::decay_t<Fn>&, std::decay_t<Args>...>> {
    // The callable is invoked as an lvalue (it lives in the closure), the
    // arguments as rvalues (std::apply over the moved tuple).
    using Result =
        std::invoke_result_t<std::decay_t<Fn>&, std::decay_t<Args>...>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        [fn = std::decay_t<Fn>(std::forward<Fn>(fn)),
         args = std::tuple<std::decay_t<Args>...>(
             std::forward<Args>(args)...)]() mutable -> Result {
          return std::apply(fn, std::move(args));
        });
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace cmc
