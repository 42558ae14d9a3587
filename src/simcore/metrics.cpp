#include "cm5/sim/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace cm5::sim {

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
          n.node >= 0 && n.node < nprocs
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

}  // namespace cm5::sim
