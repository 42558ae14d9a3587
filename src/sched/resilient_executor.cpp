#include "cm5/sched/resilient_executor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <functional>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "checkpoint_digest.hpp"
#include "cm5/sched/estimate.hpp"
#include "cm5/sched/executor.hpp"
#include "cm5/util/check.hpp"
#include "cm5/util/rng.hpp"

namespace cm5::sched {
namespace {

constexpr std::byte kAckOk{1};
constexpr std::byte kAckCorrupt{2};

double to_unit(std::uint64_t x) noexcept {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Jacobson/Karels RTT estimation over *normalized* waits (observed wait
/// divided by the step's estimated duration), so one estimator remains
/// meaningful across steps of very different sizes.
struct RttEstimator {
  double srtt = 0.0;
  double rttvar = 0.0;
  bool ready = false;

  void observe(double sample) noexcept {
    if (!ready) {
      srtt = sample;
      rttvar = sample / 2.0;
      ready = true;
      return;
    }
    const double err = sample - srtt;
    srtt += err / 8.0;                          // alpha = 1/8
    rttvar += (std::abs(err) - rttvar) / 4.0;   // beta = 1/4
  }
  double rto() const noexcept { return srtt + 4.0 * rttvar; }
};

/// What one node learned during a resilient run. Slots live in a vector
/// owned by run_resilient_schedule; the kernel serializes node programs,
/// so writes need no synchronization. A node killed by the fault plan
/// leaves whatever its last end-of-step flush recorded.
struct NodeLedger {
  std::vector<std::uint64_t> delivered;  // step * nprocs + src (dst = owner)
  std::int64_t retries = 0;
  std::int64_t recv_timeouts = 0;
  std::int64_t corrupt_detected = 0;
  std::int32_t repairs = 0;
  std::vector<std::uint8_t> dead;  // final agreed view (1 = dead)
  bool excommunicated = false;
};

/// Fired by the lowest agreed-live node after each step's agreement and
/// drains; (step, firing node). Used for checkpointing/resume digests.
using StepHook = std::function<void(std::int32_t, NodeId)>;

/// The per-node protocol. One instance per node program invocation.
class NodeSession {
 public:
  NodeSession(machine::Node& node, const CommSchedule& schedule,
              const ResilientOptions& opts,
              const std::vector<util::SimDuration>& step_est,
              NodeLedger& ledger, const StepHook& hook)
      : node_(node),
        schedule_(schedule),
        opts_(opts),
        step_est_(step_est),
        ledger_(ledger),
        hook_(hook),
        self_(node.self()),
        n_(node.nprocs()),
        mask_bytes_((static_cast<std::size_t>(n_) + 7) / 8) {
    const auto un = static_cast<std::size_t>(n_);
    mask_.assign(mask_bytes_, std::byte{0});
    suspected_.assign(un, 0);
    streak_.assign(un, 0);
    peer_rtt_.assign(un, RttEstimator{});
    expected_.assign(un, -1);
    copies_seen_.assign(un, 0);
    got_.assign(un, 0);
    sent_to_.assign(un, 0);
    ledger_.dead.assign(un, 0);
  }

  void run() {
    for (std::int32_t step = 0; step < schedule_.num_steps(); ++step) {
      begin_step(step);
      if (!ledger_.excommunicated) {
        for (const Op& op : ops_) {
          switch (op.kind) {
            case Op::Kind::Send:
              send_edge(step, op.peer, op.send_bytes);
              break;
            case Op::Kind::Recv:
              recv_edge(step, op.peer, op.recv_bytes);
              break;
            case Op::Kind::Exchange:
              // Figure 2: the lower-numbered processor receives first.
              if (self_ < op.peer) {
                recv_edge(step, op.peer, op.recv_bytes);
                send_edge(step, op.peer, op.send_bytes);
              } else {
                send_edge(step, op.peer, op.send_bytes);
                recv_edge(step, op.peer, op.recv_bytes);
              }
              break;
          }
        }
        // Late/duplicate data already posted to us: re-ack duplicates
        // (stops resend loops when our earlier ack was lost) and record
        // late deliveries, clearing the false suspicion before the
        // agreement masks are built.
        drain_data(step, /*record=*/true);
      }
      agree_on_dead();
      // Post-agreement cleanliness sweeps. The agreement is a barrier,
      // so every copy and every verdict for this step has been posted by
      // now; receive-and-discard whatever nobody claimed (copies posted
      // after our pre-agreement drain ran, verdicts for senders that had
      // already given up) so nothing leaks into later steps or trips the
      // kernel's unmatched-send check. These sweeps never write to the
      // ledger: checkpoint digests must only see state frozen at the
      // barrier.
      drain_acks(step);
      drain_data(step, /*record=*/false);
      if (hook_ && !ledger_.excommunicated && lowest_live() == self_) {
        hook_(step, self_);
      }
      if (step == opts_.stop_after_step) break;
    }
  }

 private:
  static std::int32_t data_tag(std::int32_t step) {
    return kDataTagBase + step;
  }
  static std::int32_t ack_tag(std::int32_t step) { return kAckTagBase + step; }

  NodeId lowest_live() const {
    for (NodeId i = 0; i < n_; ++i) {
      if (ledger_.dead[static_cast<std::size_t>(i)] == 0) return i;
    }
    return -1;
  }

  void begin_step(std::int32_t step) {
    const auto est = step_est_[static_cast<std::size_t>(step)];
    cur_est_ = est;
    fixed_timeout_ = std::max(kMinTimeout, static_cast<util::SimDuration>(
                                               kTimeoutFactor *
                                               static_cast<double>(est)));
    const auto un = static_cast<std::size_t>(n_);
    expected_.assign(un, -1);
    copies_seen_.assign(un, 0);
    got_.assign(un, 0);
    sent_to_.assign(un, 0);
    ordered_ops(schedule_, step, self_, ops_);
    for (const Op& op : ops_) {
      if (op.kind == Op::Kind::Recv || op.kind == Op::Kind::Exchange) {
        expected_[static_cast<std::size_t>(op.peer)] = op.recv_bytes;
      }
    }
  }

  /// Receive deadline for window `window` on an edge to `peer`. The
  /// first window always gets the fixed deadline — the adaptive RTO
  /// only governs recovery windows, after the edge has shown loss.
  /// Recovery windows are deliberately NOT doubled per consecutive
  /// timeout: a short window costs nothing but a counter (the message
  /// stays queued and the next window claims it), resend pacing is the
  /// sender's exponentially backed-off job, and doubling the deadline
  /// would climb back to the fixed oracle within one window, forfeiting
  /// the entire benefit on the expensive path (dead peers, where every
  /// surviving edge burns max_attempts windows).
  util::SimDuration window_timeout(NodeId peer, std::int32_t window) const {
    if (opts_.timeout_policy == TimeoutPolicy::kFixed) return fixed_timeout_;
    if (window == 0) return fixed_timeout_;
    const RttEstimator& peer_est = peer_rtt_[static_cast<std::size_t>(peer)];
    const RttEstimator& est = peer_est.ready ? peer_est : global_rtt_;
    if (!est.ready) return fixed_timeout_;  // no samples yet: fall back
    const double ratio = std::max(est.rto(), kRtoFloorFactor);
    const util::SimDuration t = std::max(
        kMinTimeout,
        static_cast<util::SimDuration>(ratio * static_cast<double>(cur_est_)));
    return std::min(t, fixed_timeout_);
  }

  void observe_wait(NodeId peer, util::SimDuration wait) {
    if (cur_est_ <= 0) return;
    const double sample =
        static_cast<double>(wait) / static_cast<double>(cur_est_);
    peer_rtt_[static_cast<std::size_t>(peer)].observe(sample);
    global_rtt_.observe(sample);
  }

  std::uint64_t backoff_key(NodeId peer, std::int32_t step,
                            std::int32_t attempt) const {
    return 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(self_) + 1) ^
           0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(peer) + 1) ^
           0x94d049bb133111ebULL * (static_cast<std::uint64_t>(step) + 1) ^
           (static_cast<std::uint64_t>(attempt) + 1);
  }

  void send_ack(NodeId peer, std::int32_t step, bool ok,
                std::int32_t copy_index) {
    const std::array<std::byte, 2> payload{
        ok ? kAckOk : kAckCorrupt,
        static_cast<std::byte>(copy_index & 0xff)};
    node_.send_async_data(peer, payload, ack_tag(step));
  }

  /// Sender half of one directed edge: async copies until an ACK, a
  /// final NACK at the attempt limit, or the limit itself.
  void send_edge(std::int32_t step, NodeId peer, std::int64_t bytes) {
    if (ledger_.dead[static_cast<std::size_t>(peer)]) return;  // excised
    sent_to_[static_cast<std::size_t>(peer)] = 1;
    std::int32_t sent = 0;
    auto send_copy = [&] {
      node_.send_async(peer, bytes, data_tag(step));
      ++sent;
    };
    send_copy();
    bool acked = false;
    // Each verdict (ACK/NACK) and each timeout consumes one window; the
    // receiver issues at most max_attempts verdicts, so 2 * max_attempts
    // windows bound the loop even with stale NACKs in flight.
    for (std::int32_t window = 0; window < 2 * opts_.max_attempts; ++window) {
      const util::SimTime wait_from = node_.now();
      const std::optional<machine::Message> resp = node_.receive_timeout(
          peer, ack_tag(step), window_timeout(peer, window));
      if (!resp) {
        ++ledger_.recv_timeouts;
        if (sent >= opts_.max_attempts) break;
        node_.compute(
            resilient_backoff(opts_, sent - 1, backoff_key(peer, step, sent)));
        send_copy();
        ++ledger_.retries;
        continue;
      }
      observe_wait(peer, node_.now() - wait_from);
      CM5_CHECK_MSG(resp->data.size() == 2, "malformed resilient ack");
      if (resp->data[0] == kAckOk) {
        acked = true;
        break;
      }
      // NACK for copy `idx` (receiver-side copy count). If we have sent
      // more copies than the receiver had seen, a newer copy's verdict
      // is still pending — wait for it instead of resending.
      const std::int32_t idx = std::to_integer<std::int32_t>(resp->data[1]);
      if (idx < sent - 1) continue;
      if (sent >= opts_.max_attempts) break;
      node_.compute(
          resilient_backoff(opts_, sent - 1, backoff_key(peer, step, sent)));
      send_copy();
      ++ledger_.retries;
    }
    if (!acked) suspected_[static_cast<std::size_t>(peer)] = 1;
  }

  void record_delivery(std::int32_t step, NodeId peer) {
    ledger_.delivered.push_back(
        static_cast<std::uint64_t>(step) * static_cast<std::uint64_t>(n_) +
        static_cast<std::uint64_t>(peer));
    got_[static_cast<std::size_t>(peer)] = 1;
  }

  /// Receiver half of one directed edge: wait windows until an
  /// uncorrupted copy arrives; ACK it (NACK corrupted copies).
  void recv_edge(std::int32_t step, NodeId peer, std::int64_t bytes) {
    if (ledger_.dead[static_cast<std::size_t>(peer)]) return;  // excised
    auto& copies = copies_seen_[static_cast<std::size_t>(peer)];
    for (std::int32_t window = 0; window < opts_.max_attempts; ++window) {
      const util::SimTime wait_from = node_.now();
      const std::optional<machine::Message> msg = node_.receive_timeout(
          peer, data_tag(step), window_timeout(peer, window));
      if (!msg) {
        ++ledger_.recv_timeouts;
        continue;
      }
      observe_wait(peer, node_.now() - wait_from);
      ++copies;
      CM5_CHECK_MSG(msg->size == bytes, "resilient data of unexpected size");
      if (msg->corrupted) {  // models a failed payload checksum
        ++ledger_.corrupt_detected;
        send_ack(peer, step, /*ok=*/false, copies - 1);
        continue;
      }
      send_ack(peer, step, /*ok=*/true, copies - 1);
      record_delivery(step, peer);
      return;
    }
    suspected_[static_cast<std::size_t>(peer)] = 1;
  }

  /// Zero-deadline sweep of this step's data tag, per sending peer.
  /// With record set (pre-agreement): re-ack duplicates and claim late
  /// deliveries. Without (post-agreement): receive and discard only —
  /// no acks (the peer's ack sweep already ran or is about to), no
  /// ledger writes (digests are frozen at the agreement barrier).
  void drain_data(std::int32_t step, bool record) {
    for (NodeId src = 0; src < n_; ++src) {
      const auto s = static_cast<std::size_t>(src);
      if (expected_[s] < 0) continue;
      while (const std::optional<machine::Message> msg =
                 node_.receive_timeout(src, data_tag(step), 0)) {
        CM5_CHECK_MSG(msg->size == expected_[s],
                      "resilient data of unexpected size");
        if (!record) continue;
        ++copies_seen_[s];
        if (msg->corrupted) {
          ++ledger_.corrupt_detected;
          send_ack(src, step, /*ok=*/false, copies_seen_[s] - 1);
          continue;
        }
        send_ack(src, step, /*ok=*/true, copies_seen_[s] - 1);
        if (got_[s] == 0) {
          record_delivery(step, src);
          suspected_[s] = 0;  // it delivered after all — not dead
        }
      }
    }
  }

  /// Zero-deadline sweep of this step's ack tag for every peer we sent
  /// to: swallow stale verdicts (duplicate acks, NACKs that arrived
  /// after we gave up or succeeded).
  void drain_acks(std::int32_t step) {
    for (NodeId peer = 0; peer < n_; ++peer) {
      if (sent_to_[static_cast<std::size_t>(peer)] == 0) continue;
      while (node_.receive_timeout(peer, ack_tag(step), 0)) {
      }
    }
  }

  /// End-of-step agreement: concatenate fresh-suspicion bitmasks through
  /// the control network; every live node ORs them byte-wise into the
  /// same union (n * ceil(n/8) byte ORs, not n^2 bit tests), and a node
  /// is excised only after appearing in the union for suspicion_rounds
  /// consecutive steps (slow != dead). Growth of the agreed dead set is
  /// a repair event — later steps excise the newly dead. A node that
  /// finds *itself* excommunicated keeps joining the global ops (so the
  /// survivors' concatenations stay well-formed) but contributes nothing
  /// and performs no further data communication.
  void agree_on_dead() {
    std::fill(mask_.begin(), mask_.end(), std::byte{0});
    if (!ledger_.excommunicated) {
      for (std::size_t i = 0; i < static_cast<std::size_t>(n_); ++i) {
        if (suspected_[i] != 0) {
          mask_[i / 8] |= std::byte{1} << (i % 8);
        }
      }
    }
    const std::span<const std::byte> all =
        ledger_.excommunicated ? node_.global_concat({})
                               : node_.global_concat(mask_);
    CM5_CHECK_MSG(all.size() % mask_bytes_ == 0,
                  "agreement concatenation of unexpected size");
    std::fill(mask_.begin(), mask_.end(), std::byte{0});
    for (std::size_t base = 0; base < all.size(); base += mask_bytes_) {
      for (std::size_t b = 0; b < mask_bytes_; ++b) mask_[b] |= all[base + b];
    }
    bool grew = false;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n_); ++i) {
      if ((mask_[i / 8] & (std::byte{1} << (i % 8))) != std::byte{0}) {
        ++streak_[i];
        if (streak_[i] >= opts_.suspicion_rounds && ledger_.dead[i] == 0) {
          ledger_.dead[i] = 1;
          grew = true;
        }
      } else {
        streak_[i] = 0;  // performed this round — forgive the suspicion
      }
    }
    if (grew) {
      ++ledger_.repairs;
      if (ledger_.dead[static_cast<std::size_t>(self_)] != 0) {
        ledger_.excommunicated = true;
      }
    }
    std::fill(suspected_.begin(), suspected_.end(), 0);
  }

  machine::Node& node_;
  const CommSchedule& schedule_;
  const ResilientOptions& opts_;
  const std::vector<util::SimDuration>& step_est_;
  NodeLedger& ledger_;
  const StepHook& hook_;
  const NodeId self_;
  const std::int32_t n_;
  const std::size_t mask_bytes_;
  std::vector<std::byte> mask_;           // agreement scratch, mask_bytes_
  std::vector<std::uint8_t> suspected_;   // fresh suspicions, this step
  std::vector<std::int32_t> streak_;      // consecutive suspected rounds
  std::vector<RttEstimator> peer_rtt_;
  RttEstimator global_rtt_;               // fallback for unseen peers
  // Per-step protocol state (reset in begin_step).
  std::vector<Op> ops_;                   // this step's ops, executor order
  std::vector<std::int64_t> expected_;    // recv bytes per src, -1 = none
  std::vector<std::int32_t> copies_seen_;
  std::vector<std::uint8_t> got_;
  std::vector<std::uint8_t> sent_to_;
  util::SimDuration cur_est_ = 0;
  util::SimDuration fixed_timeout_ = 0;
};

/// Digest of the globally frozen protocol state at a step's agreement
/// barrier: the agreed dead set plus every node's delivered-edge set
/// restricted to steps <= step. Restricting by step matters: by the
/// time the lowest node fires the hook, faster nodes may already be
/// working on step + 1, and that in-flight progress must not leak into
/// the digest (a run stopped at this step would not have it).
std::uint64_t ledger_digest(const std::vector<NodeLedger>& ledgers,
                            std::int32_t step, std::int32_t n,
                            const std::vector<std::uint8_t>& dead) {
  digest::Fnv h;
  h.mix(static_cast<std::uint64_t>(step));
  h.mix(static_cast<std::uint64_t>(n));
  for (const std::uint8_t d : dead) h.mix(d);
  const std::uint64_t limit = (static_cast<std::uint64_t>(step) + 1) *
                              static_cast<std::uint64_t>(n);
  std::vector<std::uint64_t> keys;
  for (const NodeLedger& ledger : ledgers) {
    keys.clear();
    for (const std::uint64_t k : ledger.delivered) {
      if (k < limit) keys.push_back(k);
    }
    std::sort(keys.begin(), keys.end());
    h.mix(keys.size());
    for (const std::uint64_t k : keys) h.mix(k);
  }
  // Reserve 0 for "not recorded".
  return h.value() == 0 ? 0x9e3779b97f4a7c15ULL : h.value();
}

/// Hash of everything that determines a resilient run's trajectory:
/// machine size, the schedule's every op, the protocol options, and the
/// installed fault plan. Guards resume against configuration drift.
std::uint64_t configuration_digest(const CommSchedule& schedule,
                                   const ResilientOptions& options,
                                   const machine::Cm5Machine& machine) {
  digest::Fnv h;
  h.mix(static_cast<std::uint64_t>(schedule.nprocs()));
  h.mix(static_cast<std::uint64_t>(schedule.num_steps()));
  for (std::int32_t step = 0; step < schedule.num_steps(); ++step) {
    for (NodeId p = 0; p < schedule.nprocs(); ++p) {
      for (const Op& op : schedule.ops(step, p)) {
        h.mix(static_cast<std::uint64_t>(op.kind));
        h.mix(static_cast<std::uint64_t>(op.peer));
        h.mix(static_cast<std::uint64_t>(op.send_bytes));
        h.mix(static_cast<std::uint64_t>(op.recv_bytes));
      }
    }
  }
  digest::mix_resilient_options(h, options);
  h.mix_string(machine.fault_plan() ? machine.fault_plan()->to_json().dump()
                                    : std::string());
  return h.value();
}

}  // namespace

util::SimDuration resilient_backoff(const ResilientOptions& options,
                                    std::int32_t attempt, std::uint64_t key) {
  const std::int32_t shift = std::max<std::int32_t>(attempt, 0);
  const util::SimDuration cap = std::max<util::SimDuration>(options.backoff_max, 0);
  util::SimDuration d;
  if (options.backoff_base <= 0) {
    d = 0;
  } else if (shift >= 62 || options.backoff_base > (cap >> shift)) {
    d = cap;  // doubling would overshoot (or overflow): clamp
  } else {
    d = options.backoff_base << shift;
  }
  if (options.backoff_jitter > 0.0 && d > 0) {
    // Deterministic jitter: scale by a factor in [1 - jitter, 1] drawn
    // from `key`, desynchronizing peers that failed in lockstep.
    util::SplitMix64 rng(key);
    const double factor = 1.0 - options.backoff_jitter * to_unit(rng.next());
    d = static_cast<util::SimDuration>(static_cast<double>(d) * factor);
  }
  return d;
}

util::json::Value ResilientCheckpoint::to_json() const {
  util::json::Value root = util::json::Value::object();
  root["nprocs"] = nprocs;
  root["num_steps"] = num_steps;
  root["steps_completed"] = steps_completed;
  root["config_digest"] = digest::hex(config_digest);
  root["step_digests"] = digest::hex_array(step_digests);
  root["dead_nodes"] = digest::int_array(dead_nodes);
  root["delivered_keys"] = digest::int_array(delivered_keys);
  return root;
}

ResilientCheckpoint ResilientCheckpoint::from_json(
    const util::json::Value& v) {
  ResilientCheckpoint c;
  digest::parse_checkpoint("malformed resilient checkpoint", [&] {
    c.nprocs = static_cast<std::int32_t>(v.at("nprocs").as_int());
    c.num_steps = static_cast<std::int32_t>(v.at("num_steps").as_int());
    c.steps_completed =
        static_cast<std::int32_t>(v.at("steps_completed").as_int());
    c.config_digest = digest::parse_hex(v.at("config_digest"));
    c.step_digests = digest::parse_hex_array(v.at("step_digests"));
    c.dead_nodes = digest::parse_int_array<NodeId>(v.at("dead_nodes"));
    c.delivered_keys =
        digest::parse_int_array<std::uint64_t>(v.at("delivered_keys"));
    return c.nprocs > 0 && c.num_steps >= 0 && c.steps_completed >= 0 &&
           c.steps_completed <= c.num_steps &&
           c.step_digests.size() ==
               static_cast<std::size_t>(c.steps_completed);
  });
  return c;
}

ResilientRunReport run_resilient_schedule(machine::Cm5Machine& machine,
                                          const CommSchedule& schedule,
                                          const ResilientOptions& options) {
  CM5_CHECK_MSG(schedule.nprocs() == machine.topology().num_nodes(),
                "schedule built for a different machine size");
  CM5_CHECK_MSG(options.max_attempts >= 1, "max_attempts must be >= 1");
  CM5_CHECK_MSG(options.suspicion_rounds >= 1,
                "suspicion_rounds must be >= 1");
  CM5_CHECK_MSG(options.backoff_jitter >= 0.0 && options.backoff_jitter < 1.0,
                "backoff_jitter must be in [0, 1)");
  CM5_CHECK_MSG(options.stop_after_step < schedule.num_steps(),
                "stop_after_step beyond the schedule");
  if (machine.fault_plan()) {
    CM5_CHECK_MSG(kAckTagBase >= machine.fault_plan()->control_tag_floor,
                  "ack tags must be fault-exempt (>= control_tag_floor)");
  }

  const std::vector<util::SimDuration> step_est =
      estimate_step_times(schedule, machine.params());
  const std::int32_t n = schedule.nprocs();
  const std::int32_t num_steps = schedule.num_steps();

  const std::uint64_t config_digest =
      configuration_digest(schedule, options, machine);
  const ResilientCheckpoint* resume = options.resume_from.get();
  if (resume) {
    CM5_CHECK_MSG(resume->nprocs == n && resume->num_steps == num_steps,
                  "resume checkpoint from a different schedule shape");
    CM5_CHECK_MSG(resume->config_digest == config_digest,
                  "resume checkpoint from a different configuration");
  }

  std::vector<NodeLedger> ledgers(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> step_digests(
      static_cast<std::size_t>(num_steps), 0);

  // Fired (inside the simulation, zero virtual-time cost) by the lowest
  // agreed-live node once per step, after that step's agreement barrier:
  // digest the frozen global state, verify it against the resume token's
  // chain, and emit a checkpoint through the sink. If the lowest live
  // node was killed before reaching this point the step's digest stays 0
  // ("not recorded") and resume verification skips it.
  StepHook hook;
  if (options.checkpoint_sink || resume) {
    hook = [&](std::int32_t step, NodeId firing) {
      const std::vector<std::uint8_t>& dead =
          ledgers[static_cast<std::size_t>(firing)].dead;
      const std::uint64_t state = ledger_digest(ledgers, step, n, dead);
      if (resume && step < resume->steps_completed &&
          resume->step_digests[static_cast<std::size_t>(step)] != 0) {
        CM5_CHECK_MSG(
            state == resume->step_digests[static_cast<std::size_t>(step)],
            "resume replay diverged from checkpoint digest chain");
      }
      step_digests[static_cast<std::size_t>(step)] = state;
      if (!options.checkpoint_sink) return;
      ResilientCheckpoint c;
      c.nprocs = n;
      c.num_steps = num_steps;
      c.steps_completed = step + 1;
      c.config_digest = config_digest;
      c.step_digests.assign(step_digests.begin(),
                            step_digests.begin() + step + 1);
      for (NodeId i = 0; i < n; ++i) {
        if (dead[static_cast<std::size_t>(i)] != 0) c.dead_nodes.push_back(i);
      }
      const std::uint64_t limit = (static_cast<std::uint64_t>(step) + 1) *
                                  static_cast<std::uint64_t>(n);
      for (NodeId dst = 0; dst < n; ++dst) {
        for (const std::uint64_t key :
             ledgers[static_cast<std::size_t>(dst)].delivered) {
          if (key < limit) {
            c.delivered_keys.push_back(key * static_cast<std::uint64_t>(n) +
                                       static_cast<std::uint64_t>(dst));
          }
        }
      }
      std::sort(c.delivered_keys.begin(), c.delivered_keys.end());
      options.checkpoint_sink(c);
    };
  }
  const StepHook no_hook;

  auto make_program = [&](std::vector<NodeLedger>& slots,
                          const StepHook& step_hook) {
    return [&schedule, &options, &step_est, &slots,
            &step_hook](machine::Node& node) {
      NodeSession session(node, schedule, options, step_est,
                          slots[static_cast<std::size_t>(node.self())],
                          step_hook);
      session.run();
    };
  };

  ResilientRunReport report;
  report.run =
      options.trace
          ? machine.run_traced(make_program(ledgers, hook), options.trace)
          : machine.run(make_program(ledgers, hook));
  report.makespan = report.run.makespan;
  report.steps_completed =
      options.stop_after_step >= 0
          ? std::min(options.stop_after_step + 1, num_steps)
          : num_steps;

  if (options.measure_fault_free_baseline && machine.fault_plan() &&
      options.stop_after_step < 0) {
    const sim::FaultPlan saved = *machine.fault_plan();
    machine.clear_fault_plan();
    std::vector<NodeLedger> baseline_slots(static_cast<std::size_t>(n));
    report.fault_free_makespan =
        machine.run(make_program(baseline_slots, no_hook)).makespan;
    machine.set_fault_plan(saved);
  } else {
    report.fault_free_makespan = report.makespan;
  }

  // Merge the per-node ledgers.
  std::unordered_set<std::uint64_t> delivered;  // (step * n + src) * n + dst
  std::vector<std::uint8_t> dead(static_cast<std::size_t>(n), 0);
  for (NodeId dst = 0; dst < n; ++dst) {
    const NodeLedger& ledger = ledgers[static_cast<std::size_t>(dst)];
    for (const std::uint64_t key : ledger.delivered) {
      delivered.insert(key * static_cast<std::uint64_t>(n) +
                       static_cast<std::uint64_t>(dst));
    }
    report.retries += ledger.retries;
    report.recv_timeouts += ledger.recv_timeouts;
    report.corrupt_detected += ledger.corrupt_detected;
    report.repairs = std::max(report.repairs, ledger.repairs);
    for (std::size_t i = 0; i < ledger.dead.size(); ++i) {
      dead[i] |= ledger.dead[i];
    }
  }
  for (NodeId i = 0; i < n; ++i) {
    if (dead[static_cast<std::size_t>(i)] != 0) report.dead_nodes.push_back(i);
  }

  // Enumerate the schedule's directed edges from the send side and
  // classify each against the delivered set.
  for (std::int32_t step = 0; step < schedule.num_steps(); ++step) {
    for (NodeId p = 0; p < n; ++p) {
      for (const Op& op : schedule.ops(step, p)) {
        if (op.kind == Op::Kind::Recv) continue;  // mirror of a Send
        ++report.edges_total;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(step) * static_cast<std::uint64_t>(n) +
             static_cast<std::uint64_t>(p)) *
                static_cast<std::uint64_t>(n) +
            static_cast<std::uint64_t>(op.peer);
        if (delivered.count(key) != 0) {
          ++report.edges_delivered;
        } else {
          report.lost_edges.push_back(
              LostEdge{step, p, op.peer, op.send_bytes});
        }
      }
    }
  }
  std::sort(report.lost_edges.begin(), report.lost_edges.end(),
            [](const LostEdge& a, const LostEdge& b) {
              return std::tie(a.step, a.src, a.dst) <
                     std::tie(b.step, b.src, b.dst);
            });
  return report;
}

std::string ResilientRunReport::to_string() const {
  std::ostringstream os;
  os << "resilient run: " << edges_delivered << '/' << edges_total
     << " edges delivered (" << static_cast<int>(delivery_rate() * 100.0 + 0.5)
     << "%), " << retries << " retries, " << recv_timeouts << " timeouts, "
     << corrupt_detected << " corrupt, " << repairs << " repairs\n";
  os << "  makespan " << util::format_duration(makespan) << " (fault-free "
     << util::format_duration(fault_free_makespan) << ", overhead "
     << makespan_overhead() << "x)\n";
  if (!dead_nodes.empty()) {
    os << "  dead nodes:";
    for (const NodeId d : dead_nodes) os << ' ' << d;
    os << '\n';
  }
  for (const LostEdge& e : lost_edges) {
    os << "  lost: step " << e.step << "  " << e.src << " -> " << e.dst << "  "
       << e.bytes << " B\n";
  }
  return os.str();
}

util::json::Value ResilientRunReport::to_json() const {
  using util::json::Value;
  Value root = Value::object();
  root["edges_total"] = edges_total;
  root["edges_delivered"] = edges_delivered;
  root["delivery_rate"] = delivery_rate();
  root["retries"] = retries;
  root["recv_timeouts"] = recv_timeouts;
  root["corrupt_detected"] = corrupt_detected;
  root["repairs"] = repairs;
  root["steps_completed"] = steps_completed;
  root["makespan_ns"] = makespan;
  root["fault_free_makespan_ns"] = fault_free_makespan;
  root["makespan_overhead"] = makespan_overhead();
  root["dead_nodes"] = digest::int_array(dead_nodes);
  Value lost = Value::array();
  for (const LostEdge& e : lost_edges) {
    Value edge = Value::object();
    edge["step"] = e.step;
    edge["src"] = e.src;
    edge["dst"] = e.dst;
    edge["bytes"] = e.bytes;
    lost.push_back(std::move(edge));
  }
  root["lost_edges"] = std::move(lost);
  return root;
}

}  // namespace cm5::sched
