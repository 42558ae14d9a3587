#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "cm5/net/topology.hpp"

/// \file exec_backend.hpp
/// The execution seam of the DES kernel: how simulated node programs get
/// a call stack, and how control moves between them.
///
/// The kernel's scheduling protocol is a token machine — at any instant
/// exactly one node context may execute simulated *kernel* work, and the
/// kernel (running inside whichever context currently holds the token)
/// decides who runs next. That decision logic is backend-independent;
/// what a backend supplies is the *mechanism*: create a context per
/// node, park a context until its token arrives, unpark the chosen one,
/// and tell the driver (the caller of Kernel::run) when the run is over.
///
/// Two implementations exist:
///
///  * kFibers (default): every node program runs on its own pooled
///    stack, and a token handoff is a user-space register switch
///    (~tens of ns) on the one OS thread that called Kernel::run().
///  * kThreads: one OS thread per node, parked on a per-node condition
///    variable — the original kernel implementation, retained verbatim
///    as the differential oracle and as the backend ThreadSanitizer
///    checks for real cross-thread handoffs. A handoff costs two
///    kernel-mediated context switches, which dominates simulation wall
///    time at scale.
///
/// Both backends drive the same scheduling decisions in the same order,
/// so simulated results (times, traces, table bytes) are identical; see
/// tests/integration/fuzz_test.cpp (BackendDifferential*).

namespace cm5::sim {

using net::NodeId;

/// Which execution mechanism carries node programs.
enum class ExecutionModel : std::uint8_t {
  kFibers,   ///< user-space stackful fibers (default)
  kThreads,  ///< one OS thread per node (oracle)
};

/// "fibers" / "threads" — stable strings, recorded in bench metrics.
const char* to_string(ExecutionModel model) noexcept;

/// Process-wide default: kFibers, unless CM5_EXEC_THREADS=1 selects the
/// thread oracle.
ExecutionModel default_execution_model();

/// Always 1; kept only because benchmark/src records it in its config.
std::int32_t execution_lanes();

/// Fiber stack size in bytes: CM5_FIBER_STACK_KB when set (min 64 KiB),
/// otherwise 256 KiB (1 MiB under AddressSanitizer, whose redzones
/// inflate frames). Each stack is lazily committed by the OS, so large
/// partitions reserve address space, not memory.
std::size_t fiber_stack_bytes();

/// Mechanism for running node contexts under the kernel's token
/// protocol. One instance per Kernel::run(); not reusable.
///
/// Threading contract: launch() and drive() are called by the driver
/// (the thread that called Kernel::run). park() is called only from
/// inside a node context; unpark() and notify_finished() from whichever
/// context currently executes kernel code (driver or node). In
/// concurrent backends all calls except drive()'s join phase happen
/// with the kernel mutex held.
class ExecutionBackend {
 public:
  /// Creates a backend for `model`.
  static std::unique_ptr<ExecutionBackend> create(ExecutionModel model);

  virtual ~ExecutionBackend() = default;

  ExecutionBackend(const ExecutionBackend&) = delete;
  ExecutionBackend& operator=(const ExecutionBackend&) = delete;

  /// The model this backend implements.
  virtual ExecutionModel model() const noexcept = 0;

  /// True when node contexts are OS threads that can touch kernel state
  /// concurrently (so the kernel must hold its mutex around that state).
  virtual bool concurrent() const noexcept = 0;

  /// Creates contexts 0..n-1; context i runs body(i) exactly once. A
  /// context may begin executing before, at, or after its first unpark —
  /// bodies must immediately park until they hold the token.
  virtual void launch(std::int32_t n, std::function<void(NodeId)> body) = 0;

  /// Called from context `me`: blocks until `token` is true. `lock`
  /// holds the kernel mutex in concurrent backends (released while
  /// parked, reacquired before returning); non-concurrent backends
  /// ignore it. Spurious returns are absorbed internally — when park()
  /// returns, `token` is true.
  virtual void park(std::unique_lock<std::mutex>& lock, NodeId me,
                    const bool& token) = 0;

  /// Signals that `target`'s token flag was set and its context should
  /// resume. Callable from any context, including `target` itself
  /// (self-grant, the advance()/yield fast path — backends make that
  /// free) and for contexts that already finished (ignored).
  virtual void unpark(NodeId target) = 0;

  /// Called once when the kernel flips its run-finished flag.
  virtual void notify_finished() = 0;

  /// Driver side: runs node contexts until `finished` is true and every
  /// context has terminated (the moral equivalent of joining threads).
  /// On return no node context will ever run again.
  virtual void drive(std::unique_lock<std::mutex>& lock,
                     const bool& finished) = 0;

  /// Number of control transfers this run. Fibers count actual stack
  /// switches; threads count token wakeups posted to another context.
  /// Deterministic for a given simulation, comparable only within one
  /// backend; exported as bench telemetry (perf.context_switches).
  virtual std::int64_t switches() const noexcept = 0;

 protected:
  ExecutionBackend() = default;
};

}  // namespace cm5::sim
