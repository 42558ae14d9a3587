#include "cm5/sim/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "metrics_internal.hpp"

namespace cm5::sim {
namespace {

using metrics_internal::in_range;
using metrics_internal::is_fault;
using metrics_internal::is_node_action;
using metrics_internal::Int32PairHash;
using metrics_internal::Kind;
using metrics_internal::MsgCounts;
using metrics_internal::MsgKey;
using metrics_internal::MsgKeyHash;

/// A dropped in-flight transfer emits TransferComplete immediately
/// followed by FaultDrop with the same key and time; an async send into
/// a dead node emits SendPosted immediately followed by FaultDrop (no
/// transfer ever starts). This classifies event i against that pattern.
bool is_inflight_drop(const std::vector<TraceEvent>& events, std::size_t i) {
  if (events[i].kind != Kind::FaultDrop || i == 0) return false;
  const TraceEvent& prev = events[i - 1];
  return prev.kind == Kind::TransferComplete && prev.node == events[i].node &&
         prev.peer == events[i].peer && prev.tag == events[i].tag &&
         prev.time == events[i].time;
}

/// True if TransferComplete at index i is immediately voided by a drop.
bool complete_is_dropped(const std::vector<TraceEvent>& events,
                         std::size_t i) {
  if (i + 1 >= events.size()) return false;
  return is_inflight_drop(events, i + 1);
}

util::SimDuration merged_interval_length(
    std::vector<std::pair<util::SimTime, util::SimTime>>& intervals) {
  if (intervals.empty()) return 0;
  std::sort(intervals.begin(), intervals.end());
  util::SimDuration total = 0;
  util::SimTime lo = intervals.front().first, hi = intervals.front().second;
  for (const auto& [a, b] : intervals) {
    if (a > hi) {
      total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  return total + (hi - lo);
}

}  // namespace

std::int32_t RunMetrics::max_step_receiver_messages() const noexcept {
  std::int32_t best = 0;
  for (const StepMetrics& s : steps) {
    best = std::max(best, s.max_receiver_messages);
  }
  return best;
}

util::SimDuration RunMetrics::total_compute() const noexcept {
  util::SimDuration t = 0;
  for (const NodeTimeBreakdown& n : nodes) t += n.compute;
  return t;
}

util::SimDuration RunMetrics::total_send_wait() const noexcept {
  util::SimDuration t = 0;
  for (const NodeTimeBreakdown& n : nodes) t += n.send_wait;
  return t;
}

util::SimDuration RunMetrics::total_recv_wait() const noexcept {
  util::SimDuration t = 0;
  for (const NodeTimeBreakdown& n : nodes) t += n.recv_wait;
  return t;
}

util::SimDuration RunMetrics::total_barrier_wait() const noexcept {
  util::SimDuration t = 0;
  for (const NodeTimeBreakdown& n : nodes) t += n.barrier_wait;
  return t;
}

RunMetrics analyze_batch(const std::vector<TraceEvent>& events,
                         std::int32_t nprocs, const RunResult* result) {
  RunMetrics m;
  m.nprocs = nprocs;
  m.num_events = static_cast<std::int64_t>(events.size());
  m.nodes.resize(static_cast<std::size_t>(std::max(nprocs, 0)));
  for (std::int32_t i = 0; i < nprocs; ++i) {
    m.nodes[static_cast<std::size_t>(i)].node = i;
  }
  m.max_pending_per_receiver.assign(
      static_cast<std::size_t>(std::max(nprocs, 0)), 0);

  // Pass 1: finish times and makespan (authoritative from the RunResult
  // when supplied; NodeDone events otherwise).
  if (result != nullptr) {
    m.makespan = result->makespan;
    for (std::size_t n = 0; n < m.nodes.size() &&
                            n < result->finish_time.size();
         ++n) {
      m.nodes[n].finish = result->finish_time[n];
    }
  } else {
    for (const TraceEvent& e : events) {
      if (e.kind == Kind::NodeDone && in_range(e.node, nprocs)) {
        m.nodes[static_cast<std::size_t>(e.node)].finish = e.time;
        m.makespan = std::max(m.makespan, e.time);
      }
    }
  }

  // Pass 2: the main walk. Per node: gap-based wait attribution. Per
  // message key: rendezvous matching for port-busy intervals and drop
  // accounting. Per tag: step metrics.
  std::vector<Kind> open_wait(static_cast<std::size_t>(std::max(nprocs, 0)),
                              Kind::NodeDone);
  std::vector<util::SimTime> prev_end(
      static_cast<std::size_t>(std::max(nprocs, 0)), 0);
  // Hash maps during the walk (O(1) amortized per event); anything that
  // feeds ordered output is sorted once at the end so results stay
  // byte-identical to the old std::map-based pass.
  std::unordered_map<MsgKey, MsgCounts, MsgKeyHash> messages;
  // Start times of in-flight transfers per key, FIFO: the kernel matches
  // and completes equal-key transfers in posting order.
  std::unordered_map<MsgKey, std::deque<util::SimTime>, MsgKeyHash>
      open_starts;
  std::unordered_map<std::int32_t, StepMetrics> steps;
  std::unordered_map<std::pair<std::int32_t, net::NodeId>, std::int32_t,
                     Int32PairHash>
      step_receiver;
  std::unordered_map<std::pair<net::NodeId, net::NodeId>, LinkTraffic,
                     Int32PairHash>
      links;
  std::vector<std::vector<std::pair<util::SimTime, util::SimTime>>>
      port_intervals(static_cast<std::size_t>(std::max(nprocs, 0)));

  auto attribute_gap = [&](net::NodeId node, util::SimDuration gap) {
    if (gap <= 0 || !in_range(node, nprocs)) return;
    NodeTimeBreakdown& b = m.nodes[static_cast<std::size_t>(node)];
    switch (open_wait[static_cast<std::size_t>(node)]) {
      case Kind::SendPosted:
      case Kind::SwapPosted:
        b.send_wait += gap;
        break;
      case Kind::RecvPosted:
        b.recv_wait += gap;
        break;
      case Kind::GlobalOpEnter:
        b.barrier_wait += gap;
        break;
      default:
        b.other_wait += gap;
        break;
    }
  };

  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];

    // --- per-node time accounting (node actions only) ---
    if (is_node_action(e.kind) && in_range(e.node, nprocs)) {
      const auto n = static_cast<std::size_t>(e.node);
      if (e.kind == Kind::Compute) {
        attribute_gap(e.node, (e.time - e.bytes) - prev_end[n]);
        m.nodes[n].compute += e.bytes;
      } else {
        attribute_gap(e.node, e.time - prev_end[n]);
      }
      prev_end[n] = std::max(prev_end[n], e.time);
      // What is the node blocked in until its next action?
      switch (e.kind) {
        case Kind::SendPosted:
        case Kind::RecvPosted:
        case Kind::SwapPosted:
        case Kind::GlobalOpEnter:
          open_wait[n] = e.kind;
          break;
        default:
          open_wait[n] = Kind::NodeDone;  // not blocked (or done)
          break;
      }
    }

    // --- message/step/link accounting ---
    switch (e.kind) {
      case Kind::SendPosted:
      case Kind::SwapPosted: {
        ++m.messages_posted;
        m.bytes_posted += e.bytes;
        MsgCounts& c = messages[{e.node, e.peer, e.tag}];
        ++c.posted;
        c.bytes_posted += e.bytes;
        if (in_range(e.node, nprocs)) {
          NodeTimeBreakdown& b = m.nodes[static_cast<std::size_t>(e.node)];
          ++b.messages_out;
          b.bytes_out += e.bytes;
        }
        StepMetrics& s = steps[e.tag];
        if (s.messages == 0) {
          s.tag = e.tag;
          s.first_post = e.time;
          s.last_post = e.time;
        } else {
          s.first_post = std::min(s.first_post, e.time);
          s.last_post = std::max(s.last_post, e.time);
        }
        ++s.messages;
        s.bytes += e.bytes;
        ++step_receiver[{e.tag, e.peer}];
        break;
      }
      case Kind::TransferStart: {
        ++m.transfers_started;
        MsgCounts& c = messages[{e.node, e.peer, e.tag}];
        ++c.started;
        c.bytes_started += e.bytes;
        open_starts[{e.node, e.peer, e.tag}].push_back(e.time);
        break;
      }
      case Kind::TransferComplete: {
        ++m.transfers_completed;
        MsgCounts& c = messages[{e.node, e.peer, e.tag}];
        ++c.completed;
        c.bytes_completed += e.bytes;
        const auto open = open_starts.find({e.node, e.peer, e.tag});
        if (open != open_starts.end() && !open->second.empty()) {
          const util::SimTime start = open->second.front();
          open->second.pop_front();
          for (const net::NodeId endpoint : {e.node, e.peer}) {
            if (in_range(endpoint, nprocs)) {
              port_intervals[static_cast<std::size_t>(endpoint)]
                  .emplace_back(start, e.time);
            }
          }
        }
        auto it = steps.find(e.tag);
        if (it != steps.end()) {
          it->second.last_complete =
              std::max(it->second.last_complete, e.time);
        }
        if (!complete_is_dropped(events, i)) {
          if (in_range(e.peer, nprocs)) {
            NodeTimeBreakdown& b = m.nodes[static_cast<std::size_t>(e.peer)];
            ++b.messages_in;
            b.bytes_in += e.bytes;
          }
          LinkTraffic& link = links[{e.node, e.peer}];
          link.src = e.node;
          link.dst = e.peer;
          ++link.messages;
          link.bytes += e.bytes;
          m.bytes_delivered += e.bytes;
        }
        break;
      }
      case Kind::FaultDrop:
        ++m.transfers_dropped;
        m.bytes_dropped += e.bytes;
        break;
      case Kind::GlobalOpEnter:
        ++m.global_ops;
        break;
      default:
        break;
    }
  }

  // Idle tail and port busy time.
  for (NodeTimeBreakdown& b : m.nodes) {
    b.idle_tail = std::max<util::SimDuration>(0, m.makespan - b.finish);
    b.port_busy =
        merged_interval_length(port_intervals[static_cast<std::size_t>(
            b.node >= 0 ? b.node : 0)]);
  }

  // Step table with hot receivers. The merge must visit (tag, peer)
  // keys in ascending order so ties resolve to the lowest peer, exactly
  // as the old ordered map did.
  {
    std::vector<std::pair<std::int32_t, net::NodeId>> receiver_keys;
    receiver_keys.reserve(step_receiver.size());
    for (const auto& [key, count] : step_receiver) receiver_keys.push_back(key);
    std::sort(receiver_keys.begin(), receiver_keys.end());
    for (const auto& key : receiver_keys) {
      const std::int32_t count = step_receiver[key];
      StepMetrics& s = steps[key.first];
      if (count > s.max_receiver_messages ||
          (count == s.max_receiver_messages && s.hot_receiver < 0)) {
        s.max_receiver_messages = count;
        s.hot_receiver = key.second;
      }
    }
  }
  m.steps.reserve(steps.size());
  for (const auto& [tag, s] : steps) m.steps.push_back(s);
  std::sort(m.steps.begin(), m.steps.end(),
            [](const StepMetrics& a, const StepMetrics& b) {
              return a.tag < b.tag;
            });

  // Link table sorted by (src, dst).
  m.links.reserve(links.size());
  for (const auto& [key, link] : links) m.links.push_back(link);
  std::sort(m.links.begin(), m.links.end(),
            [](const LinkTraffic& a, const LinkTraffic& b) {
              return std::make_pair(a.src, a.dst) < std::make_pair(b.src, b.dst);
            });

  // Hot-receiver contention: sweep posts (+1 on the destination) and
  // completions (-1) in virtual-time order. Under rendezvous semantics
  // every pending send is a blocked sender, so the running count at a
  // receiver is exactly how many senders are serialized behind it.
  {
    std::vector<const TraceEvent*> timeline;
    timeline.reserve(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Kind k = events[i].kind;
      if (k == Kind::SendPosted || k == Kind::SwapPosted ||
          k == Kind::TransferComplete) {
        timeline.push_back(&events[i]);
      }
    }
    std::stable_sort(timeline.begin(), timeline.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       return a->time < b->time;
                     });
    std::vector<std::int32_t> pending(
        static_cast<std::size_t>(std::max(nprocs, 0)), 0);
    for (const TraceEvent* e : timeline) {
      if (!in_range(e->peer, nprocs)) continue;
      const auto d = static_cast<std::size_t>(e->peer);
      if (e->kind == Kind::TransferComplete) {
        pending[d] = std::max(0, pending[d] - 1);
      } else {
        ++pending[d];
        auto& peak = m.max_pending_per_receiver[d];
        peak = std::max(peak, pending[d]);
        if (peak > m.max_pending ||
            (peak == m.max_pending && m.hot_node < 0)) {
          m.max_pending = peak;
          m.hot_node = e->peer;
        }
      }
    }
  }

  return m;
}

RunMetrics analyze(const std::vector<TraceEvent>& events, std::int32_t nprocs,
                   const RunResult* result) {
  MetricsBuilder builder(nprocs);
  for (const TraceEvent& e : events) builder.on_event(e);
  return builder.finalize(result);
}

RunMetrics analyze(const TraceRecorder& recorder, std::int32_t nprocs,
                   const RunResult* result) {
  return analyze(recorder.events(), nprocs, result);
}

LatencySummary LatencySummary::from_samples(
    std::vector<util::SimDuration> samples) {
  LatencySummary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest-rank percentile: the smallest sample with at least q*n
  // samples at or below it — ceil(q * n), 1-based.
  auto rank = [n](double q) {
    std::size_t r = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (r < 1) r = 1;
    if (r > n) r = n;
    return r - 1;  // 0-based index
  };
  s.count = static_cast<std::int64_t>(n);
  s.min = samples.front();
  s.p50 = samples[rank(0.50)];
  s.p95 = samples[rank(0.95)];
  s.p99 = samples[rank(0.99)];
  s.max = samples.back();
  // Integer mean, rounded down; sums fit: samples are nanosecond counts
  // bounded by run makespans, far below 2^63 / count for any real run.
  std::int64_t sum = 0;
  for (const util::SimDuration d : samples) sum += d;
  s.mean = sum / static_cast<std::int64_t>(n);
  return s;
}

util::json::Value LatencySummary::to_json() const {
  using util::json::Value;
  Value root = Value::object();
  root["count"] = count;
  root["min_ns"] = min;
  root["p50_ns"] = p50;
  root["p95_ns"] = p95;
  root["p99_ns"] = p99;
  root["max_ns"] = max;
  root["mean_ns"] = mean;
  return root;
}

util::json::Value RunMetrics::to_json(bool full) const {
  using util::json::Value;
  Value root = Value::object();
  root["nprocs"] = nprocs;
  root["makespan_ns"] = makespan;
  root["events"] = num_events;

  Value totals = Value::object();
  totals["messages_posted"] = messages_posted;
  totals["transfers_started"] = transfers_started;
  totals["transfers_completed"] = transfers_completed;
  totals["transfers_dropped"] = transfers_dropped;
  totals["bytes_posted"] = bytes_posted;
  totals["bytes_delivered"] = bytes_delivered;
  totals["bytes_dropped"] = bytes_dropped;
  totals["global_ops"] = global_ops;
  root["totals"] = std::move(totals);

  util::SimDuration other = 0, idle = 0;
  for (const NodeTimeBreakdown& n : nodes) {
    other += n.other_wait;
    idle += n.idle_tail;
  }
  Value time = Value::object();
  time["compute"] = total_compute();
  time["send_wait"] = total_send_wait();
  time["recv_wait"] = total_recv_wait();
  time["barrier_wait"] = total_barrier_wait();
  time["other_wait"] = other;
  time["idle_tail"] = idle;
  root["time_ns"] = std::move(time);

  Value contention = Value::object();
  contention["max_pending"] = max_pending;
  contention["hot_node"] = hot_node;
  contention["max_step_receiver_messages"] = max_step_receiver_messages();
  root["contention"] = std::move(contention);

  root["steps_observed"] = observed_steps();

  if (full) {
    Value node_array = Value::array();
    for (const NodeTimeBreakdown& n : nodes) {
      Value row = Value::object();
      row["node"] = n.node;
      row["compute_ns"] = n.compute;
      row["send_wait_ns"] = n.send_wait;
      row["recv_wait_ns"] = n.recv_wait;
      row["barrier_wait_ns"] = n.barrier_wait;
      row["other_wait_ns"] = n.other_wait;
      row["idle_tail_ns"] = n.idle_tail;
      row["finish_ns"] = n.finish;
      row["messages_out"] = n.messages_out;
      row["messages_in"] = n.messages_in;
      row["bytes_out"] = n.bytes_out;
      row["bytes_in"] = n.bytes_in;
      row["port_busy_ns"] = n.port_busy;
      row["max_pending_in"] =
          in_range(n.node, nprocs)
              ? max_pending_per_receiver[static_cast<std::size_t>(n.node)]
              : 0;
      node_array.push_back(std::move(row));
    }
    root["nodes"] = std::move(node_array);

    Value step_array = Value::array();
    for (const StepMetrics& s : steps) {
      Value row = Value::object();
      row["tag"] = s.tag;
      row["first_post_ns"] = s.first_post;
      row["last_post_ns"] = s.last_post;
      row["last_complete_ns"] = s.last_complete;
      row["span_ns"] = s.span();
      row["post_skew_ns"] = s.post_skew();
      row["messages"] = s.messages;
      row["bytes"] = s.bytes;
      row["max_receiver_messages"] = s.max_receiver_messages;
      row["hot_receiver"] = s.hot_receiver;
      step_array.push_back(std::move(row));
    }
    root["steps"] = std::move(step_array);

    Value link_array = Value::array();
    for (const LinkTraffic& l : links) {
      Value row = Value::object();
      row["src"] = l.src;
      row["dst"] = l.dst;
      row["messages"] = l.messages;
      row["bytes"] = l.bytes;
      link_array.push_back(std::move(row));
    }
    root["links"] = std::move(link_array);
  }
  return root;
}

std::vector<std::string> validate_trace_batch(
    const std::vector<TraceEvent>& events, std::int32_t nprocs,
    const RunResult* result) {
  std::vector<std::string> violations;
  constexpr std::size_t kMaxReported = 50;
  std::size_t suppressed = 0;
  auto report = [&](std::string what) {
    if (violations.size() < kMaxReported) {
      violations.push_back(std::move(what));
    } else {
      ++suppressed;
    }
  };

  bool any_fault = false;
  bool any_timeout = false;
  std::vector<util::SimTime> last_action_time(
      static_cast<std::size_t>(std::max(nprocs, 0)), 0);
  std::vector<std::int32_t> node_done_count(
      static_cast<std::size_t>(std::max(nprocs, 0)), 0);
  std::vector<util::SimTime> node_done_time(
      static_cast<std::size_t>(std::max(nprocs, 0)), 0);
  std::vector<std::int64_t> posted_bytes_by_node(
      static_cast<std::size_t>(std::max(nprocs, 0)), 0);
  std::vector<std::int64_t> posted_msgs_by_node(
      static_cast<std::size_t>(std::max(nprocs, 0)), 0);
  std::vector<std::int64_t> global_ops_by_node(
      static_cast<std::size_t>(std::max(nprocs, 0)), 0);
  std::unordered_map<MsgKey, MsgCounts, MsgKeyHash> messages;
  util::SimTime max_done = 0;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.kind == Kind::WaitTimeout) any_timeout = true;
    if (is_fault(e.kind)) any_fault = true;

    // Sanity.
    if (e.time < 0) {
      report("event " + std::to_string(i) + ": negative time " +
             std::to_string(e.time));
    }
    if (!in_range(e.node, nprocs)) {
      report("event " + std::to_string(i) + ": node " +
             std::to_string(e.node) + " out of range [0, " +
             std::to_string(nprocs) + ")");
      continue;
    }
    if (e.peer != kAnyNode && e.peer != -1 && !in_range(e.peer, nprocs)) {
      report("event " + std::to_string(i) + ": peer " +
             std::to_string(e.peer) + " out of range");
    }
    if (e.bytes < 0) {
      report("event " + std::to_string(i) + ": negative bytes/duration " +
             std::to_string(e.bytes));
    }
    if (e.kind == Kind::Compute && e.time - e.bytes < 0) {
      report("event " + std::to_string(i) +
             ": compute interval starts before t=0");
    }

    // Per-node monotonicity over node actions.
    if (is_node_action(e.kind)) {
      const auto n = static_cast<std::size_t>(e.node);
      if (e.time < last_action_time[n]) {
        report("node " + std::to_string(e.node) +
               ": time went backwards at event " + std::to_string(i) + " (" +
               std::to_string(e.time) + " < " +
               std::to_string(last_action_time[n]) + ")");
      }
      last_action_time[n] = std::max(last_action_time[n], e.time);
    }

    switch (e.kind) {
      case Kind::SendPosted:
      case Kind::SwapPosted: {
        MsgCounts& c = messages[{e.node, e.peer, e.tag}];
        ++c.posted;
        c.bytes_posted += e.bytes;
        posted_bytes_by_node[static_cast<std::size_t>(e.node)] += e.bytes;
        ++posted_msgs_by_node[static_cast<std::size_t>(e.node)];
        break;
      }
      case Kind::TransferStart: {
        MsgCounts& c = messages[{e.node, e.peer, e.tag}];
        ++c.started;
        c.bytes_started += e.bytes;
        if (c.started > c.posted) {
          report("transfer " + std::to_string(e.node) + "->" +
                 std::to_string(e.peer) + " tag " + std::to_string(e.tag) +
                 ": more starts than posts at event " + std::to_string(i));
        }
        break;
      }
      case Kind::TransferComplete: {
        MsgCounts& c = messages[{e.node, e.peer, e.tag}];
        ++c.completed;
        c.bytes_completed += e.bytes;
        if (c.completed > c.started) {
          report("transfer " + std::to_string(e.node) + "->" +
                 std::to_string(e.peer) + " tag " + std::to_string(e.tag) +
                 ": more completions than starts at event " +
                 std::to_string(i));
        }
        break;
      }
      case Kind::GlobalOpEnter:
        ++global_ops_by_node[static_cast<std::size_t>(e.node)];
        break;
      case Kind::NodeDone: {
        const auto n = static_cast<std::size_t>(e.node);
        ++node_done_count[n];
        node_done_time[n] = e.time;
        max_done = std::max(max_done, e.time);
        break;
      }
      default:
        break;
    }
  }

  for (std::int32_t n = 0; n < nprocs; ++n) {
    if (node_done_count[static_cast<std::size_t>(n)] != 1) {
      report("node " + std::to_string(n) + ": " +
             std::to_string(node_done_count[static_cast<std::size_t>(n)]) +
             " NodeDone events (expected 1)");
    }
  }

  // Matching and conservation per message key, reported in ascending
  // key order so the output matches the old std::map-based walk.
  std::vector<MsgKey> message_keys;
  message_keys.reserve(messages.size());
  for (const auto& [key, c] : messages) message_keys.push_back(key);
  std::sort(message_keys.begin(), message_keys.end());
  for (const MsgKey& key : message_keys) {
    const MsgCounts& c = messages[key];
    const auto& [src, dst, tag] = key;
    const std::string who = std::to_string(src) + "->" + std::to_string(dst) +
                            " tag " + std::to_string(tag);
    if (c.completed > c.started || c.started > c.posted) {
      report("message " + who + ": counts out of order (posted " +
             std::to_string(c.posted) + ", started " +
             std::to_string(c.started) + ", completed " +
             std::to_string(c.completed) + ")");
      continue;
    }
    if (c.bytes_completed > c.bytes_started ||
        c.bytes_started > c.bytes_posted) {
      report("message " + who + ": byte counts not conserved (posted " +
             std::to_string(c.bytes_posted) + " B, started " +
             std::to_string(c.bytes_started) + " B, completed " +
             std::to_string(c.bytes_completed) + " B)");
    }
    if (!any_fault && !any_timeout) {
      // Fault-free, timeout-free runs must fully drain the rendezvous:
      // every post starts, every start completes, byte-for-byte.
      if (c.completed != c.posted) {
        report("message " + who + ": " + std::to_string(c.posted) +
               " posted but " + std::to_string(c.completed) +
               " completed in a fault-free run");
      }
      if (c.bytes_completed != c.bytes_posted) {
        report("message " + who + ": bytes sent (" +
               std::to_string(c.bytes_posted) + ") != bytes received (" +
               std::to_string(c.bytes_completed) + ") in a fault-free run");
      }
    } else if (c.completed < c.started && !any_fault) {
      report("message " + who + ": transfer started but never completed");
    }
  }

  // Cross-check against the kernel's own accounting.
  if (result != nullptr) {
    if (result->makespan != max_done && !events.empty()) {
      report("makespan mismatch: RunResult says " +
             std::to_string(result->makespan) + " ns, max NodeDone time is " +
             std::to_string(max_done) + " ns");
    }
    util::SimTime max_finish = 0;
    for (const util::SimTime t : result->finish_time) {
      max_finish = std::max(max_finish, t);
    }
    if (result->makespan != max_finish) {
      report("makespan mismatch: RunResult says " +
             std::to_string(result->makespan) +
             " ns, max finish_time is " + std::to_string(max_finish) + " ns");
    }
    const std::size_t limit =
        std::min(result->node_counters.size(),
                 static_cast<std::size_t>(std::max(nprocs, 0)));
    for (std::size_t n = 0; n < limit; ++n) {
      const NodeCounters& k = result->node_counters[n];
      if (!events.empty() &&
          result->finish_time.size() > n &&
          node_done_count[n] == 1 &&
          node_done_time[n] != result->finish_time[n]) {
        report("node " + std::to_string(n) + ": NodeDone at " +
               std::to_string(node_done_time[n]) +
               " ns but RunResult finish_time is " +
               std::to_string(result->finish_time[n]) + " ns");
      }
      if (k.bytes_sent != posted_bytes_by_node[n]) {
        report("node " + std::to_string(n) + ": kernel counted " +
               std::to_string(k.bytes_sent) + " B sent, trace shows " +
               std::to_string(posted_bytes_by_node[n]) + " B posted");
      }
      if (k.sends != posted_msgs_by_node[n]) {
        report("node " + std::to_string(n) + ": kernel counted " +
               std::to_string(k.sends) + " sends, trace shows " +
               std::to_string(posted_msgs_by_node[n]) + " posts");
      }
      if (k.global_ops != global_ops_by_node[n]) {
        report("node " + std::to_string(n) + ": kernel counted " +
               std::to_string(k.global_ops) + " global ops, trace shows " +
               std::to_string(global_ops_by_node[n]));
      }
    }
  }

  if (suppressed > 0) {
    violations.push_back("... and " + std::to_string(suppressed) +
                         " more violations");
  }
  return violations;
}

std::vector<std::string> validate_trace(const std::vector<TraceEvent>& events,
                                        std::int32_t nprocs,
                                        const RunResult* result) {
  TraceValidator validator(nprocs);
  for (const TraceEvent& e : events) validator.on_event(e);
  return validator.finalize(result);
}

std::vector<std::string> validate_trace(const TraceRecorder& recorder,
                                        std::int32_t nprocs,
                                        const RunResult* result) {
  return validate_trace(recorder.events(), nprocs, result);
}

std::string validation_report(const std::vector<TraceEvent>& events,
                              std::int32_t nprocs, const RunResult* result) {
  std::string out;
  for (const std::string& v : validate_trace(events, nprocs, result)) {
    out += v;
    out += '\n';
  }
  return out;
}

}  // namespace cm5::sim
