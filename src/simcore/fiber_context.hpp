#pragma once

#include <cstddef>
#include <cstdint>

#include "cm5/net/topology.hpp"
#include "cm5/sim/sanitizer.hpp"
#include "cm5/sim/stack_pool.hpp"

/// \file fiber_context.hpp
/// Stackful-fiber machinery behind the fiber execution backend
/// (fiber_backend.hpp): context layout, boot image construction, the
/// switch primitive, and the sanitizer annotations that let
/// AddressSanitizer and ThreadSanitizer follow a stack switch.
///
/// On x86_64 a switch is the hand-rolled register swap in
/// fiber_context_x86_64.S (~tens of ns; no syscall); elsewhere it falls
/// back to swapcontext(), which costs a sigprocmask syscall per switch.
/// A fiber is pinned to the OS thread that first resumes it — the
/// sanitizer handshakes are per-thread, and the fiber backend runs
/// every fiber of a run on the thread that called Kernel::run().

#if defined(__x86_64__)
#define CM5_FIBER_ASM 1
#else
#define CM5_FIBER_ASM 0
#include <ucontext.h>
#endif

namespace cm5::sim::fiber {

struct FiberContext {
  /// Entry trampoline: called once on the fiber's own stack; must never
  /// return (finish with a dying switch). Null for host contexts.
  void (*entry)(FiberContext*) = nullptr;
  void* backend = nullptr;  ///< owning backend, for the entry trampoline
  net::NodeId id = -1;      ///< -1 for host (driver) contexts
  void* sp = nullptr;       ///< parked stack pointer (asm path)
  FiberStackPool::Stack stack;  ///< empty for host contexts
  bool finished = false;
#if CM5_TSAN
  void* tsan_fiber = nullptr;
#endif
#if !CM5_FIBER_ASM
  ucontext_t uc;
#endif
};

/// Gives `c` a pooled stack and builds the boot image so the first
/// switch into it enters `c.entry(&c)`. `entry`, `backend`, and `id`
/// must already be set.
void create_fiber(FiberContext& c, std::size_t stack_bytes);

/// Returns `c`'s stack to the pool (and destroys its TSAN fiber).
/// Safe on a fiber that never ran or was abandoned parked; must not be
/// called on the running fiber.
void destroy_fiber(FiberContext& c);

/// Initializes a host context: the calling thread's own stack, so
/// sanitizers have real bounds when fibers switch back to it. Call once
/// per driver thread, on that thread.
void adopt_host_context(FiberContext& c);

/// Switches from `from` (the running context, on this thread) to `to`.
/// `dying` marks `from` as never resuming (its sanitizer state is
/// released rather than parked).
void switch_fiber(FiberContext& from, FiberContext& to, bool dying);

}  // namespace cm5::sim::fiber
