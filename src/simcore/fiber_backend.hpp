#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "cm5/net/topology.hpp"
#include "cm5/sim/sanitizer.hpp"
#include "cm5/util/check.hpp"
#include "fiber_context.hpp"

/// \file fiber_backend.hpp
/// How the kernel runs node programs: every node program runs on its own
/// pooled, guard-paged stack (see stack_pool.hpp), and a token handoff is
/// a user-space register switch on the one thread that called
/// Kernel::run().
///
/// The kernel's token protocol guarantees exactly one context executes
/// at a time, so the scheduler is single-threaded by construction and
/// needs no synchronization. A parked fiber hands control *directly* to
/// the next token holder (one switch per handoff, no scheduler
/// trampoline); the driver context only runs to boot the first fiber and
/// to collect control when the run ends. On the abort path the kernel
/// grants every node its token at once; the ready queue serializes those
/// wakeups in grant order so each fiber can unwind.
///
/// The switch primitive and the AddressSanitizer/ThreadSanitizer
/// annotations that let the tools follow a stack switch live in
/// fiber_context.hpp.

namespace cm5::sim {

using net::NodeId;

/// One instance per Kernel::run(); not reusable.
class FiberBackend {
 public:
  FiberBackend() { driver_.backend = this; }

  ~FiberBackend() {
    for (auto& c : contexts_) fiber::destroy_fiber(*c);
  }

  FiberBackend(const FiberBackend&) = delete;
  FiberBackend& operator=(const FiberBackend&) = delete;

  /// Creates fibers 0..n-1; fiber i runs body(i) exactly once, starting
  /// at its first unpark.
  void launch(std::int32_t n, std::function<void(NodeId)> body) {
    body_ = std::move(body);
    fiber::adopt_host_context(driver_);
    contexts_.reserve(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i) {
      auto c = std::make_unique<fiber::FiberContext>();
      c->backend = this;
      c->id = i;
      c->entry = [](fiber::FiberContext* ctx) {
        static_cast<FiberBackend*>(ctx->backend)->run(*ctx);
      };
      fiber::create_fiber(*c, kFiberStackBytes);
      contexts_.push_back(std::move(c));
    }
  }

  /// Called from fiber `me`: runs other fibers until `token` is true.
  void park(NodeId me, const bool& token) {
    fiber::FiberContext& self = *contexts_[static_cast<std::size_t>(me)];
    while (!token) transfer(self, next_target(), /*dying=*/false);
  }

  /// Signals that `target`'s token flag was set and its fiber should
  /// resume. Free for the running fiber itself (the advance()/yield fast
  /// path) and ignored for fibers that already finished.
  void unpark(NodeId target) {
    if (target == current_) return;  // self-grant: park sees the token
    if (contexts_[static_cast<std::size_t>(target)]->finished) return;
    ready_.push_back(target);
  }

  /// Driver side: runs fibers until every one has finished; checks that
  /// `finished` was set. On return no fiber will ever run again.
  void drive(const bool& finished) {
    while (fiber::FiberContext* t = pop_ready()) {
      transfer(driver_, *t, /*dying=*/false);
    }
    CM5_CHECK_MSG(finished,
                  "fiber scheduler ran dry before the run finished "
                  "(lost token grant)");
    for (const auto& c : contexts_) {
      CM5_CHECK_MSG(c->finished, "node fiber still live after run end");
    }
  }

  /// Number of fiber switches this run. Deterministic for a given
  /// simulation; exported as bench telemetry (perf.context_switches).
  std::int64_t switches() const noexcept { return switches_; }

 private:
  /// Fiber bodies start here (via the boot trampoline). Never returns.
  [[noreturn]] void run(fiber::FiberContext& ctx) {
    body_(ctx.id);
    ctx.finished = true;
    transfer(ctx, next_target(), /*dying=*/true);
    CM5_CHECK_MSG(false, "finished fiber was resumed");
    std::abort();  // unreachable; transfer out of a dying fiber is final
  }

  /// Next context to run: the oldest live ready entry, else the driver.
  fiber::FiberContext& next_target() {
    if (fiber::FiberContext* c = pop_ready()) return *c;
    return driver_;
  }

  /// Stale entries (fibers that finished after being granted a token on
  /// the abort path) are dropped here.
  fiber::FiberContext* pop_ready() {
    while (head_ < ready_.size()) {
      fiber::FiberContext& c =
          *contexts_[static_cast<std::size_t>(ready_[head_++])];
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

  void transfer(fiber::FiberContext& from, fiber::FiberContext& to,
                bool dying) {
    ++switches_;
    current_ = to.id;
    fiber::switch_fiber(from, to, dying);
  }

  std::function<void(NodeId)> body_;
  std::vector<std::unique_ptr<fiber::FiberContext>> contexts_;
  fiber::FiberContext driver_;
  std::vector<NodeId> ready_;  ///< FIFO of granted-but-unswitched fibers
  std::size_t head_ = 0;
  NodeId current_ = -1;  ///< running context (-1 = driver)
  std::int64_t switches_ = 0;
};

}  // namespace cm5::sim
