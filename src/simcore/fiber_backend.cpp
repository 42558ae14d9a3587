#include <cstdint>
#include <memory>
#include <vector>

#include "cm5/sim/exec_backend.hpp"
#include "cm5/sim/sanitizer.hpp"
#include "cm5/util/check.hpp"
#include "fiber_context.hpp"

/// \file fiber_backend.cpp
/// The kFibers execution backend: every node program runs on its own
/// pooled, guard-paged stack (see stack_pool.hpp), and a token handoff
/// is a user-space register switch on the one thread that called
/// Kernel::run().
///
/// Control discipline: the kernel's token protocol guarantees exactly
/// one context executes at a time, so this backend is single-threaded
/// by construction and needs no synchronization at all. A parked fiber
/// hands control *directly* to the next token holder (one switch per
/// handoff, no scheduler trampoline); the driver context only runs to
/// boot the first fiber and to collect control when the run ends. On
/// the abort path the kernel grants every node its token at once; the
/// ready queue serializes those wakeups in grant order so each fiber
/// can unwind, mirroring the thread backend's release-everyone notify.
///
/// The switch primitive and the AddressSanitizer/ThreadSanitizer
/// annotations that let the tools follow a stack switch live in
/// fiber_context.hpp.

namespace cm5::sim {
namespace {

using fiber::FiberContext;

class FiberBackend final : public ExecutionBackend {
 public:
  FiberBackend() { driver_.backend = this; }

  ~FiberBackend() override {
    for (auto& c : contexts_) fiber::destroy_fiber(*c);
  }

  ExecutionModel model() const noexcept override {
    return ExecutionModel::kFibers;
  }
  bool concurrent() const noexcept override { return false; }

  void launch(std::int32_t n, std::function<void(NodeId)> body) override {
    body_ = std::move(body);
    fiber::adopt_host_context(driver_);
    contexts_.reserve(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i) {
      auto c = std::make_unique<FiberContext>();
      c->backend = this;
      c->id = i;
      c->entry = [](FiberContext* ctx) {
        static_cast<FiberBackend*>(ctx->backend)->run(*ctx);
      };
      fiber::create_fiber(*c, kFiberStackBytes);
      contexts_.push_back(std::move(c));
    }
  }

  void park(std::unique_lock<std::mutex>&, NodeId me,
            const bool& token) override {
    FiberContext& self = *contexts_[static_cast<std::size_t>(me)];
    while (!token) transfer(self, next_target(), /*dying=*/false);
  }

  void unpark(NodeId target) override {
    if (target == current_) return;  // self-grant: park sees the token
    if (contexts_[static_cast<std::size_t>(target)]->finished) return;
    ready_.push_back(target);
  }

  void notify_finished() override {
    // Nothing to signal: the driver regains control when the last
    // fiber finishes and the ready queue drains.
  }

  void drive(std::unique_lock<std::mutex>&, const bool& finished) override {
    while (FiberContext* t = pop_ready()) {
      transfer(driver_, *t, /*dying=*/false);
    }
    CM5_CHECK_MSG(finished,
                  "fiber scheduler ran dry before the run finished "
                  "(lost token grant)");
    for (const auto& c : contexts_) {
      CM5_CHECK_MSG(c->finished, "node fiber still live after run end");
    }
  }

  std::int64_t switches() const noexcept override { return switches_; }

  /// Fiber bodies start here (via the boot trampoline). Never returns.
  [[noreturn]] void run(FiberContext& ctx) {
    body_(ctx.id);
    ctx.finished = true;
    transfer(ctx, next_target(), /*dying=*/true);
    CM5_CHECK_MSG(false, "finished fiber was resumed");
    std::abort();  // unreachable; transfer out of a dying fiber is final
  }

 private:
  /// Next context to run: the oldest live ready entry, else the driver.
  /// Stale entries (fibers that finished after being granted a token on
  /// the abort path) are dropped here.
  FiberContext& next_target() {
    if (FiberContext* c = pop_ready()) return *c;
    return driver_;
  }

  FiberContext* pop_ready() {
    while (head_ < ready_.size()) {
      FiberContext& c = *contexts_[static_cast<std::size_t>(ready_[head_++])];
      if (head_ == ready_.size()) {
        ready_.clear();
        head_ = 0;
      }
      if (!c.finished) return &c;
    }
    ready_.clear();
    head_ = 0;
    return nullptr;
  }

  void transfer(FiberContext& from, FiberContext& to, bool dying) {
    ++switches_;
    current_ = to.id;
    fiber::switch_fiber(from, to, dying);
  }

  std::function<void(NodeId)> body_;
  std::vector<std::unique_ptr<FiberContext>> contexts_;
  FiberContext driver_;
  std::vector<NodeId> ready_;  ///< FIFO of granted-but-unswitched fibers
  std::size_t head_ = 0;
  NodeId current_ = -1;  ///< running context (-1 = driver)
  std::int64_t switches_ = 0;
};

}  // namespace

std::unique_ptr<ExecutionBackend> make_fiber_backend() {
  return std::make_unique<FiberBackend>();
}

}  // namespace cm5::sim
