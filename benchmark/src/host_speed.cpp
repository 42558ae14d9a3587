#include "host_speed.hpp"

#include <pthread.h>
#include <sys/time.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <ctime>
#include <stdexcept>
#include <utility>

namespace cm5bench {
namespace {

static_assert(std::atomic<std::int64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "the signal handler needs lock-free atomics");

/// The cycle: the entry after i is g_next[i]. Built before the timer is
/// armed; the handler only reads it.
std::array<std::uint32_t, kHops> g_next{};

std::atomic<std::int64_t> g_busy_ns{0};
std::atomic<std::int64_t> g_timed_ns{0};
std::atomic<std::int64_t> g_walks{0};
/// Where the last walk ended, so the loads cannot be optimized away.
std::atomic<std::uint32_t> g_at{0};

/// Alternate signal stack: the handler must not run on a fiber's stack,
/// which is sized for the node program it belongs to.
std::array<char, 1 << 16> g_alt_stack{};

/// clock_gettime is async-signal-safe.
std::int64_t clock_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint32_t walk(std::uint32_t at) {
  for (std::int64_t i = 0; i < kHops; ++i) at = g_next[at];
  return at;
}

void walk_and_count() {
  const std::int64_t t0 = clock_ns();
  std::uint32_t at = walk(g_at.load(std::memory_order_relaxed));
  const std::int64_t t1 = clock_ns();
  at = walk(at);
  const std::int64_t t2 = clock_ns();
  g_at.store(at, std::memory_order_relaxed);
  g_busy_ns += t2 - t0;
  g_timed_ns += t2 - t1;
  g_walks += 1;
}

void on_alarm(int) {
  const int saved = errno;
  walk_and_count();
  errno = saved;
}

/// Sattolo's shuffle of the identity from a fixed seed: a random
/// permutation that is one cycle through every entry, so a walk touches
/// all 64 KiB in an order the prefetchers cannot follow.
void build_cycle() {
  for (std::size_t i = 0; i < g_next.size(); ++i) {
    g_next[i] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = g_next.size() - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(g_next[i], g_next[x % i]);
  }
}

/// Holds SIGALRM off this thread for a scope.
class AlarmBlocked {
 public:
  AlarmBlocked() {
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGALRM);
    pthread_sigmask(SIG_BLOCK, &set, &saved_);
  }
  ~AlarmBlocked() { pthread_sigmask(SIG_SETMASK, &saved_, nullptr); }
  AlarmBlocked(const AlarmBlocked&) = delete;
  AlarmBlocked& operator=(const AlarmBlocked&) = delete;

 private:
  sigset_t saved_{};
};

void set_timer(std::int64_t period_us) {
  itimerval timer{};
  timer.it_interval.tv_sec = period_us / 1'000'000;
  timer.it_interval.tv_usec = period_us % 1'000'000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_REAL, &timer, nullptr) != 0) {
    throw std::runtime_error("setitimer failed");
  }
}

}  // namespace

void start_host_probe() {
  build_cycle();
  stack_t alt{};
  alt.ss_sp = g_alt_stack.data();
  alt.ss_size = g_alt_stack.size();
  struct sigaction action {};
  action.sa_handler = on_alarm;
  action.sa_flags = SA_RESTART | SA_ONSTACK;
  sigemptyset(&action.sa_mask);
  if (sigaltstack(&alt, nullptr) != 0 ||
      sigaction(SIGALRM, &action, nullptr) != 0) {
    throw std::runtime_error("cannot install the host-speed probe");
  }
  set_timer(kProbePeriodUs);
}

void stop_host_probe() { set_timer(0); }

ProbeTotals probe_totals() {
  const AlarmBlocked blocked;
  return ProbeTotals{g_busy_ns.load(), g_timed_ns.load(), g_walks.load()};
}

std::int64_t probe_busy_ns() { return g_busy_ns.load(); }

void probe_now() {
  const AlarmBlocked blocked;
  walk_and_count();
}

double speed_scale(const ProbeTotals& begin, const ProbeTotals& end) {
  const std::int64_t walks = end.walks - begin.walks;
  const std::int64_t ns = end.timed_ns - begin.timed_ns;
  if (walks <= 0 || ns <= 0) return 1.0;
  const double ns_per_hop =
      static_cast<double>(ns) / static_cast<double>(walks * kHops);
  return kReferenceNsPerHop / ns_per_hop;
}

}  // namespace cm5bench
