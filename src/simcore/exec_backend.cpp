#include "cm5/sim/exec_backend.hpp"

#include <condition_variable>
#include <cstdlib>
#include <thread>
#include <vector>

#include "cm5/util/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define CM5_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CM5_ASAN 1
#endif
#endif
#ifndef CM5_ASAN
#define CM5_ASAN 0
#endif

namespace cm5::sim {

std::unique_ptr<ExecutionBackend> make_fiber_backend();  // fiber_backend.cpp

const char* to_string(ExecutionModel model) noexcept {
  switch (model) {
    case ExecutionModel::kFibers:
      return "fibers";
    case ExecutionModel::kThreads:
      return "threads";
  }
  return "unknown";
}

std::int32_t execution_lanes() { return 1; }

ExecutionModel default_execution_model() {
  if (const char* v = std::getenv("CM5_EXEC_THREADS");
      v != nullptr && v[0] == '1' && v[1] == '\0') {
    return ExecutionModel::kThreads;
  }
  return ExecutionModel::kFibers;
}

std::size_t fiber_stack_bytes() {
  if (const char* v = std::getenv("CM5_FIBER_STACK_KB");
      v != nullptr && v[0] != '\0') {
    const long kb = std::atol(v);
    if (kb >= 64) return static_cast<std::size_t>(kb) * 1024;
  }
  return CM5_ASAN ? (1u << 20) : (256u << 10);
}

namespace {

/// The original kernel execution mechanism, unchanged in behavior: one
/// OS thread per node, parked on a per-node condition variable under the
/// kernel mutex. Every handoff costs a futex wake + a futex wait — the
/// "cross-thread handoff floor" the fiber backend removes — but the
/// mechanism is trivially correct, TSAN-checkable, and therefore the
/// oracle the differential fuzz compares fibers against.
class ThreadBackend final : public ExecutionBackend {
 public:
  ~ThreadBackend() override {
    // drive() joins in every successful run; this is the abnormal-exit
    // path (an exception before/without drive). Joining without tokens
    // granted would deadlock, so only assert the normal protocol.
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  ExecutionModel model() const noexcept override {
    return ExecutionModel::kThreads;
  }
  bool concurrent() const noexcept override { return true; }

  void launch(std::int32_t n, std::function<void(NodeId)> body) override {
    body_ = std::move(body);
    cells_ = std::vector<Cell>(static_cast<std::size_t>(n));
    threads_.reserve(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i) {
      threads_.emplace_back([this, i] { body_(i); });
    }
  }

  void park(std::unique_lock<std::mutex>& lock, NodeId me,
            const bool& token) override {
    cells_[static_cast<std::size_t>(me)].cv.wait(lock,
                                                 [&token] { return token; });
  }

  void unpark(NodeId target) override {
    ++switches_;
    cells_[static_cast<std::size_t>(target)].cv.notify_one();
  }

  void notify_finished() override { run_done_cv_.notify_all(); }

  void drive(std::unique_lock<std::mutex>& lock,
             const bool& finished) override {
    run_done_cv_.wait(lock, [&finished] { return finished; });
    lock.unlock();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  std::int64_t switches() const noexcept override { return switches_; }

 private:
  struct Cell {
    std::condition_variable cv;
  };
  std::function<void(NodeId)> body_;
  std::vector<Cell> cells_;
  std::vector<std::thread> threads_;
  std::condition_variable run_done_cv_;
  std::int64_t switches_ = 0;
};

}  // namespace

std::unique_ptr<ExecutionBackend> ExecutionBackend::create(
    ExecutionModel model) {
  if (model == ExecutionModel::kFibers) return make_fiber_backend();
  return std::make_unique<ThreadBackend>();
}

}  // namespace cm5::sim
