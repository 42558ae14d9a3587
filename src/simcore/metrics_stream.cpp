#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "cm5/sim/metrics.hpp"

/// \file metrics_stream.cpp
/// analyze() and validate_trace() as incremental TraceConsumers. Every
/// result must be byte-identical to the batch reference in
/// tests/support/batch_analysis.cpp (the differential fuzz and
/// tests/simcore/trace_stream_test.cpp enforce it); the point is the
/// memory model: working state is O(nprocs + in-flight transfers +
/// distinct tags/keys), never O(events), so a giant-N run can analyze
/// its trace without ever materializing the event vector. MetricsBuilder
/// keeps it in flat tables (FlatMap, sorted vectors) that stop allocating
/// once warm; TraceValidator builds text only for what it reports.
///
/// Two reference behaviors need care to reproduce exactly:
///
///   * the reference's drop check looks one event *ahead* (a dropped
///     in-flight transfer emits TransferComplete immediately followed
///     by a matching FaultDrop). MetricsBuilder therefore runs one
///     event behind the stream: each event is processed when its
///     successor arrives, and the last one at finalize().
///
///   * the contention sweep stable-sorts posts and completions by time
///     across the whole trace. The kernel's conservative frontier makes
///     TransferComplete commit times globally non-decreasing, and no
///     event is committed after one with a later time — so the sweep
///     can run online by buffering each receiver's posts in a
///     (time, stream-seq) min-heap and draining it up to each
///     completion's timestamp. Per-receiver state is exact, and the
///     global (max_pending, hot_node) pair resolves at finalize from
///     per-receiver peaks and first-attainment stamps.

namespace cm5::sim {

namespace {

using Kind = TraceEvent::Kind;

/// Kinds emitted by the node's own program at its current clock. Only
/// these are guaranteed time-monotonic per node; network-side kinds
/// (transfers, faults, GlobalOpComplete) are processed in global virtual
/// time and may interleave behind a node that ran ahead.
bool is_node_action(Kind kind) {
  switch (kind) {
    case Kind::Compute:
    case Kind::SendPosted:
    case Kind::RecvPosted:
    case Kind::SwapPosted:
    case Kind::GlobalOpEnter:
    case Kind::WaitTimeout:
    case Kind::NodeDone:
      return true;
    default:
      return false;
  }
}

bool is_fault(Kind kind) {
  switch (kind) {
    case Kind::FaultDrop:
    case Kind::FaultCorrupt:
    case Kind::FaultDelay:
    case Kind::FaultDegrade:
    case Kind::FaultKill:
    case Kind::FaultSlow:
      return true;
    default:
      return false;
  }
}

bool in_range(net::NodeId node, std::int32_t nprocs) {
  return node >= 0 && node < nprocs;
}

/// Message identity for rendezvous matching: (src, dst, tag).
using MsgKey = std::tuple<net::NodeId, net::NodeId, std::int32_t>;

struct MsgCounts {
  std::int64_t posted = 0;
  std::int64_t started = 0;
  std::int64_t completed = 0;
  std::int64_t bytes_posted = 0;
  std::int64_t bytes_started = 0;
  std::int64_t bytes_completed = 0;
  bool drained() const noexcept {  // all started and completed, bytewise
    return posted == completed && started == completed &&
           bytes_posted == bytes_completed && bytes_started == bytes_completed;
  }
};
// Flat-table entries: plain counters, copied on every doubling.
static_assert(std::is_trivially_copyable_v<MsgCounts>);

/// 64-bit mix (splitmix64 finalizer) for composing hash keys.
std::size_t hash_mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

struct MsgKeyHash {
  std::size_t operator()(const MsgKey& k) const noexcept {
    const auto [src, dst, tag] = k;
    return hash_mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         src))
                     << 32) |
                    static_cast<std::uint32_t>(dst)) ^
           hash_mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(
               tag)));
  }
};

struct Int32Hash {
  std::size_t operator()(std::int32_t v) const noexcept {
    return hash_mix(static_cast<std::uint32_t>(v));
  }
};

struct Int32PairHash {
  std::size_t operator()(
      const std::pair<std::int32_t, std::int32_t>& p) const noexcept {
    return hash_mix(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.first))
         << 32) |
        static_cast<std::uint32_t>(p.second));
  }
};

/// Open-addressing hash map (linear probing, power-of-two capacity) for
/// the streaming consumers' per-key tables. The slots are one vector, so
/// only a doubling allocates and a warm table allocates nothing. erase()
/// shifts later probes back instead of leaving tombstones.
template <class K, class V, class Hash>
class FlatMap {
 public:
  using Slot = std::pair<K, V>;

  std::size_t size() const noexcept { return size_; }

  Slot* find(const K& key) noexcept {
    if (size_ == 0) return nullptr;
    const std::size_t i = probe(key);
    return used_[i] ? &slots_[i] : nullptr;
  }

  /// The slot for `key`, its value value-initialized on first use.
  Slot& slot(const K& key) {
    if (4 * (size_ + 1) > 3 * slots_.size()) grow();
    const std::size_t i = probe(key);
    if (!used_[i]) {
      used_[i] = 1;
      slots_[i].first = key;
      ++size_;
    }
    return slots_[i];
  }

  V& operator[](const K& key) { return slot(key).second; }

  /// Removes a slot returned by find().
  void erase(Slot* slot) {
    auto hole = static_cast<std::size_t>(slot - slots_.data());
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; used_[j]; j = (j + 1) & mask) {
      // Slot j moves back into the hole unless its home is in (hole, j].
      if (((j - Hash{}(slots_[j].first)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    used_[hole] = 0;
    slots_[hole] = Slot{};  // a free slot holds a value-initialized entry
    --size_;
  }

  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) f(slots_[i]);
    }
  }

 private:
  /// The slot holding `key`, or the free slot that ends its probe run.
  std::size_t probe(const K& key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Hash{}(key) & mask;
    while (used_[i] && !(slots_[i].first == key)) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    const std::size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
    FlatMap old = std::move(*this);
    slots_ = std::vector<Slot>(capacity);
    used_.assign(capacity, 0);
    size_ = 0;
    old.for_each(
        [this](const Slot& slot) { (*this)[slot.first] = slot.second; });
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> used_;
  std::size_t size_ = 0;
};

/// Whether `peer` takes the hot receiver from `hot` at an equal count:
/// the reference walks peers upward and treats a negative `hot` as unset.
bool wins_tie(net::NodeId peer, net::NodeId hot) {
  if ((peer >= 0) != (hot >= 0)) return peer >= 0;
  return peer >= 0 ? peer < hot : peer > hot;
}

/// Puts `links` in (src, dst) order by stable counting passes over the
/// bytes of the sign-flipped key that not all links share, lowest first:
/// under 256 nodes, one pass by dst, then one into per-src buckets.
void order_links(std::vector<LinkTraffic>& links) {
  const auto key = [](const LinkTraffic& l) {
    return (std::uint64_t{static_cast<std::uint32_t>(l.src) ^ 0x80000000u}
            << 32) | (static_cast<std::uint32_t>(l.dst) ^ 0x80000000u);
  };
  std::uint64_t varying = 0;  // key bits on which some links differ
  for (const LinkTraffic& l : links) varying |= key(l) ^ key(links.front());
  std::vector<LinkTraffic> out(links.size());
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    std::array<std::size_t, 257> at{};
    for (const LinkTraffic& l : links) ++at[((key(l) >> shift) & 0xff) + 1];
    for (std::size_t i = 1; i < at.size(); ++i) at[i] += at[i - 1];
    for (const LinkTraffic& l : links) out[at[(key(l) >> shift) & 0xff]++] = l;
    links.swap(out);
  }
}

/// Incremental union of half-open time intervals: the stored intervals
/// are disjoint and non-touching, `total` is their summed length.
/// Merging is closed (touching intervals coalesce), matching the batch
/// reference, which extends whenever the next sorted start is <= the
/// running end.
struct IntervalUnion {
  using Span = std::pair<util::SimTime, util::SimTime>;
  std::vector<Span> spans;  // (start, end), sorted by start
  util::SimDuration total = 0;

  void add(util::SimTime lo, util::SimTime hi) {
    if (lo >= hi) return;  // zero-length: contributes nothing to a union
    // [first, last) are the spans [lo, hi] touches.
    auto first = std::partition_point(
        spans.begin(), spans.end(),
        [lo](const Span& span) { return span.first <= lo; });
    if (first != spans.begin() && std::prev(first)->second >= lo) --first;
    auto last = first;
    for (; last != spans.end() && last->first <= hi; ++last) {
      lo = std::min(lo, last->first);
      hi = std::max(hi, last->second);
      total -= last->second - last->first;
    }
    spans.insert(spans.erase(first, last), Span{lo, hi});
    total += hi - lo;
  }

  /// Forgets spans that end at or before `bound` (their length is
  /// already in `total`). Safe whenever every future add() has
  /// lo >= bound: a touching future interval ([bound, x] after a sealed
  /// [a, bound]) changes the union's shape but not its length, and
  /// length is all the reference reports. This is what keeps span
  /// storage O(concurrently busy) instead of O(all intervals ever) —
  /// without it a long run accumulates one span per barrier-separated
  /// step per port, which is O(events) again.
  void seal(util::SimTime bound) {
    auto it = spans.begin();
    while (it != spans.end() && it->second <= bound) ++it;
    spans.erase(spans.begin(), it);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// MetricsBuilder
// ---------------------------------------------------------------------------

struct MetricsBuilder::Impl {
  /// One post buffered for the contention sweep: (post time, stream seq).
  using Post = std::pair<util::SimTime, std::int64_t>;

  /// Per-receiver contention state. `posts` holds sends targeting this
  /// receiver that no completion has swept past yet.
  struct Receiver {
    std::priority_queue<Post, std::vector<Post>, std::greater<Post>> posts;
    std::int32_t pending = 0;
    std::int32_t peak = 0;
    /// Stamp of the post at which `pending` first reached `peak`.
    util::SimTime attain_time = 0;
    std::int64_t attain_seq = 0;
  };

  explicit Impl(std::int32_t nprocs_in) : nprocs(nprocs_in) {
    const auto n = static_cast<std::size_t>(std::max(nprocs, 0));
    metrics.nprocs = nprocs;
    metrics.nodes.resize(n);
    for (std::int32_t i = 0; i < nprocs; ++i) {
      metrics.nodes[static_cast<std::size_t>(i)].node = i;
    }
    metrics.max_pending_per_receiver.assign(n, 0);
    open_wait.assign(n, Kind::NodeDone);
    prev_end.assign(n, 0);
    done_finish.assign(n, 0);
    port_busy.resize(n);
    port_open.resize(n);
    receivers.resize(n);
  }

  std::int32_t nprocs;
  RunMetrics metrics;

  /// One-event delay so each event can see its successor (drop lookahead).
  TraceEvent held{};
  bool has_held = false;

  // Per-node wait attribution (mirrors the batch pass-2 vectors).
  std::vector<Kind> open_wait;
  std::vector<util::SimTime> prev_end;

  // NodeDone-derived finish times, used when no RunResult is supplied.
  std::vector<util::SimTime> done_finish;
  util::SimTime done_makespan = 0;

  /// Start times of one key's in-flight transfers, oldest first. The
  /// oldest is inline; only a second concurrent start on the key spills.
  struct OpenStarts {
    util::SimTime first = 0;
    std::vector<util::SimTime> later;
  };

  // Rendezvous matching: open transfer start times per (src, dst, tag).
  // Entries are erased as soon as they drain, keeping the table at
  // O(in-flight) rather than O(distinct keys ever seen).
  FlatMap<MsgKey, OpenStarts, MsgKeyHash> open_starts;

  std::vector<IntervalUnion> port_busy;
  /// Sorted start times of each node's in-flight transfers (as either
  /// endpoint). On a monotone stream the front bounds the lo of every
  /// future interval added to that node's port_busy — the sealing
  /// bound. Unmatched starts pin the bound low, which only costs
  /// memory, never correctness.
  std::vector<std::vector<util::SimTime>> port_open;

  /// Steps in tag order, as finalize hands them out. Each post updates
  /// its step's hot receiver from its (tag, receiver) count: counts only
  /// grow, so the running max and its tie-break stay exact.
  std::vector<StepMetrics> steps;
  FlatMap<std::pair<std::int32_t, net::NodeId>, std::int32_t, Int32PairHash>
      step_receiver;
  FlatMap<std::pair<net::NodeId, net::NodeId>, LinkTraffic, Int32PairHash>
      links;

  std::vector<Receiver> receivers;
  std::int64_t next_seq = 0;

  /// The step with `tag`; a new one is inserted in tag order if `add`.
  StepMetrics* step(std::int32_t tag, bool add) {
    auto it = std::partition_point(
        steps.begin(), steps.end(),
        [tag](const StepMetrics& step) { return step.tag < tag; });
    if (it != steps.end() && it->tag == tag) return &*it;
    return add ? &*steps.insert(it, StepMetrics{}) : nullptr;
  }

  void attribute_gap(net::NodeId node, util::SimDuration gap) {
    if (gap <= 0 || !in_range(node, nprocs)) return;
    NodeTimeBreakdown& b = metrics.nodes[static_cast<std::size_t>(node)];
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
  }

  /// Replays buffered posts for `r` whose time is <= `limit`, in
  /// (time, seq) order — exactly the stable time-sort the batch sweep
  /// applies, because buffered posts all precede the draining completion
  /// in the stream.
  void drain_posts(Receiver& r, net::NodeId receiver, util::SimTime limit) {
    auto& peak_out =
        metrics.max_pending_per_receiver[static_cast<std::size_t>(receiver)];
    while (!r.posts.empty() && r.posts.top().first <= limit) {
      const Post p = r.posts.top();
      r.posts.pop();
      ++r.pending;
      if (r.pending > r.peak) {
        r.peak = r.pending;
        r.attain_time = p.first;
        r.attain_seq = p.second;
        peak_out = r.peak;
      }
    }
  }

  /// Processes one event with its successor in hand (nullptr at end of
  /// stream). Logic is a line-for-line port of the batch walk.
  void process(const TraceEvent& e, const TraceEvent* next) {
    if (is_node_action(e.kind) && in_range(e.node, nprocs)) {
      const auto n = static_cast<std::size_t>(e.node);
      if (e.kind == Kind::Compute) {
        attribute_gap(e.node, (e.time - e.bytes) - prev_end[n]);
        metrics.nodes[n].compute += e.bytes;
      } else {
        attribute_gap(e.node, e.time - prev_end[n]);
      }
      prev_end[n] = std::max(prev_end[n], e.time);
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

    switch (e.kind) {
      case Kind::SendPosted:
      case Kind::SwapPosted: {
        ++metrics.messages_posted;
        metrics.bytes_posted += e.bytes;
        if (in_range(e.node, nprocs)) {
          NodeTimeBreakdown& b =
              metrics.nodes[static_cast<std::size_t>(e.node)];
          ++b.messages_out;
          b.bytes_out += e.bytes;
        }
        StepMetrics& s = *step(e.tag, true);
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
        const std::int32_t count = ++step_receiver[{e.tag, e.peer}];
        if (count > s.max_receiver_messages ||
            (count == s.max_receiver_messages &&
             wins_tie(e.peer, s.hot_receiver))) {
          s.max_receiver_messages = count;
          s.hot_receiver = e.peer;
        }
        if (in_range(e.peer, nprocs)) {
          receivers[static_cast<std::size_t>(e.peer)].posts.emplace(
              e.time, next_seq);
        }
        ++next_seq;
        break;
      }
      case Kind::TransferStart: {
        ++metrics.transfers_started;
        const MsgKey key{e.node, e.peer, e.tag};
        if (const auto open = open_starts.find(key)) {
          open->second.later.push_back(e.time);
        } else {
          open_starts[key].first = e.time;
        }
        for (const net::NodeId endpoint : {e.node, e.peer}) {
          if (in_range(endpoint, nprocs)) {
            auto& starts = port_open[static_cast<std::size_t>(endpoint)];
            starts.insert(
                std::upper_bound(starts.begin(), starts.end(), e.time),
                e.time);
          }
        }
        break;
      }
      case Kind::TransferComplete: {
        ++metrics.transfers_completed;
        if (const auto open = open_starts.find({e.node, e.peer, e.tag})) {
          OpenStarts& starts = open->second;
          const util::SimTime start = starts.first;
          if (starts.later.empty()) {
            open_starts.erase(open);
          } else {
            starts.first = starts.later.front();
            starts.later.erase(starts.later.begin());
          }
          for (const net::NodeId endpoint : {e.node, e.peer}) {
            if (in_range(endpoint, nprocs)) {
              const auto p = static_cast<std::size_t>(endpoint);
              port_busy[p].add(start, e.time);
              auto& open_here = port_open[p];
              const auto hit = std::lower_bound(open_here.begin(),
                                                open_here.end(), start);
              if (hit != open_here.end() && *hit == start) {
                open_here.erase(hit);
              }
              port_busy[p].seal(open_here.empty()
                                    ? e.time
                                    : std::min(open_here.front(), e.time));
            }
          }
        }
        if (StepMetrics* const s = step(e.tag, false)) {
          s->last_complete = std::max(s->last_complete, e.time);
        }
        const bool dropped = next != nullptr && next->kind == Kind::FaultDrop &&
                             next->node == e.node && next->peer == e.peer &&
                             next->tag == e.tag && next->time == e.time;
        if (!dropped) {
          if (in_range(e.peer, nprocs)) {
            NodeTimeBreakdown& b =
                metrics.nodes[static_cast<std::size_t>(e.peer)];
            ++b.messages_in;
            b.bytes_in += e.bytes;
          }
          LinkTraffic& link = links[{e.node, e.peer}];
          link.src = e.node;
          link.dst = e.peer;
          ++link.messages;
          link.bytes += e.bytes;
          metrics.bytes_delivered += e.bytes;
        }
        if (in_range(e.peer, nprocs)) {
          Receiver& r = receivers[static_cast<std::size_t>(e.peer)];
          drain_posts(r, e.peer, e.time);
          r.pending = std::max(0, r.pending - 1);
        }
        break;
      }
      case Kind::FaultDrop:
        ++metrics.transfers_dropped;
        metrics.bytes_dropped += e.bytes;
        break;
      case Kind::GlobalOpEnter:
        ++metrics.global_ops;
        break;
      case Kind::NodeDone:
        if (in_range(e.node, nprocs)) {
          done_finish[static_cast<std::size_t>(e.node)] = e.time;
          done_makespan = std::max(done_makespan, e.time);
        }
        break;
      default:
        break;
    }
  }
};

MetricsBuilder::MetricsBuilder(std::int32_t nprocs)
    : impl_(std::make_unique<Impl>(nprocs)) {}

MetricsBuilder::~MetricsBuilder() = default;

void MetricsBuilder::on_event(const TraceEvent& event) {
  ++impl_->metrics.num_events;
  if (impl_->has_held) impl_->process(impl_->held, &event);
  impl_->held = event;
  impl_->has_held = true;
}

RunMetrics MetricsBuilder::finalize(const RunResult* result) {
  Impl& s = *impl_;
  if (s.has_held) {
    s.process(s.held, nullptr);
    s.has_held = false;
  }
  RunMetrics& m = s.metrics;

  // Finish times and makespan: RunResult is authoritative when given,
  // NodeDone events otherwise.
  if (result != nullptr) {
    m.makespan = result->makespan;
    for (std::size_t n = 0;
         n < m.nodes.size() && n < result->finish_time.size(); ++n) {
      m.nodes[n].finish = result->finish_time[n];
    }
  } else {
    m.makespan = s.done_makespan;
    for (std::size_t n = 0; n < m.nodes.size(); ++n) {
      m.nodes[n].finish = s.done_finish[n];
    }
  }

  for (NodeTimeBreakdown& b : m.nodes) {
    b.idle_tail = std::max<util::SimDuration>(0, m.makespan - b.finish);
    b.port_busy =
        s.port_busy[static_cast<std::size_t>(b.node >= 0 ? b.node : 0)].total;
  }

  m.steps = std::move(s.steps);
  m.links.reserve(s.links.size());
  s.links.for_each([&](const auto& slot) { m.links.push_back(slot.second); });
  order_links(m.links);

  // Contention: drain posts no completion swept past, then resolve the
  // global pair. The batch sweep's hot_node is the receiver at which the
  // running global max last strictly increased — i.e. the receiver whose
  // pending count first (in sweep order) reached the final maximum M.
  for (std::int32_t d = 0; d < s.nprocs; ++d) {
    Impl::Receiver& r = s.receivers[static_cast<std::size_t>(d)];
    s.drain_posts(r, d, std::numeric_limits<util::SimTime>::max());
  }
  util::SimTime best_time = 0;
  std::int64_t best_seq = 0;
  for (std::int32_t d = 0; d < s.nprocs; ++d) {
    const Impl::Receiver& r = s.receivers[static_cast<std::size_t>(d)];
    if (r.peak == 0) continue;
    if (r.peak > m.max_pending ||
        (r.peak == m.max_pending &&
         std::make_pair(r.attain_time, r.attain_seq) <
             std::make_pair(best_time, best_seq))) {
      m.max_pending = r.peak;
      m.hot_node = d;
      best_time = r.attain_time;
      best_seq = r.attain_seq;
    }
  }

  return std::move(m);
}

// ---------------------------------------------------------------------------
// TraceValidator
// ---------------------------------------------------------------------------

struct TraceValidator::Impl {
  explicit Impl(std::int32_t nprocs_in) : nprocs(nprocs_in) {
    const auto n = static_cast<std::size_t>(std::max(nprocs, 0));
    last_action_time.assign(n, 0);
    node_done_count.assign(n, 0);
    node_done_time.assign(n, 0);
    posted_bytes_by_node.assign(n, 0);
    posted_msgs_by_node.assign(n, 0);
    global_ops_by_node.assign(n, 0);
  }

  std::int32_t nprocs;
  std::vector<std::string> violations;
  std::size_t suppressed = 0;
  std::size_t index = 0;  ///< running event index, for violation text

  bool any_fault = false;
  bool any_timeout = false;
  std::vector<util::SimTime> last_action_time;
  std::vector<std::int32_t> node_done_count;
  std::vector<util::SimTime> node_done_time;
  std::vector<std::int64_t> posted_bytes_by_node;
  std::vector<std::int64_t> posted_msgs_by_node;
  std::vector<std::int64_t> global_ops_by_node;
  /// Counts of the keys not drained: a key is erased when it drains, so
  /// the table stays O(in flight), and its (count, bytes) totals move to
  /// `drained`. Each check compares counts of one key, which draining
  /// shifts alike, so checking the open part alone decides the same.
  FlatMap<MsgKey, MsgCounts, MsgKeyHash> messages;
  FlatMap<MsgKey, std::pair<std::int64_t, std::int64_t>, MsgKeyHash> drained;
  util::SimTime max_done = 0;

  static constexpr std::size_t kMaxReported = 50;

  void report(std::string what) {
    if (violations.size() < kMaxReported) {
      violations.push_back(std::move(what));
    } else {
      ++suppressed;
    }
  }
};

TraceValidator::TraceValidator(std::int32_t nprocs)
    : impl_(std::make_unique<Impl>(nprocs)) {}

TraceValidator::~TraceValidator() = default;

void TraceValidator::on_event(const TraceEvent& e) {
  Impl& s = *impl_;
  const std::size_t i = s.index++;
  const std::int32_t nprocs = s.nprocs;
  if (e.kind == Kind::WaitTimeout) s.any_timeout = true;
  if (is_fault(e.kind)) s.any_fault = true;

  // Sanity.
  if (e.time < 0) {
    s.report("event " + std::to_string(i) + ": negative time " +
             std::to_string(e.time));
  }
  if (!in_range(e.node, nprocs)) {
    s.report("event " + std::to_string(i) + ": node " +
             std::to_string(e.node) + " out of range [0, " +
             std::to_string(nprocs) + ")");
    return;
  }
  if (e.peer != kAnyNode && e.peer != -1 && !in_range(e.peer, nprocs)) {
    s.report("event " + std::to_string(i) + ": peer " +
             std::to_string(e.peer) + " out of range");
  }
  if (e.bytes < 0) {
    s.report("event " + std::to_string(i) + ": negative bytes/duration " +
             std::to_string(e.bytes));
  }
  if (e.kind == Kind::Compute && e.time - e.bytes < 0) {
    s.report("event " + std::to_string(i) +
             ": compute interval starts before t=0");
  }

  // Per-node monotonicity over node actions.
  if (is_node_action(e.kind)) {
    const auto n = static_cast<std::size_t>(e.node);
    if (e.time < s.last_action_time[n]) {
      s.report("node " + std::to_string(e.node) +
               ": time went backwards at event " + std::to_string(i) + " (" +
               std::to_string(e.time) + " < " +
               std::to_string(s.last_action_time[n]) + ")");
    }
    s.last_action_time[n] = std::max(s.last_action_time[n], e.time);
  }

  switch (e.kind) {
    case Kind::SendPosted:
    case Kind::SwapPosted: {
      MsgCounts& c = s.messages[{e.node, e.peer, e.tag}];
      ++c.posted;
      c.bytes_posted += e.bytes;
      s.posted_bytes_by_node[static_cast<std::size_t>(e.node)] += e.bytes;
      ++s.posted_msgs_by_node[static_cast<std::size_t>(e.node)];
      break;
    }
    case Kind::TransferStart: {
      MsgCounts& c = s.messages[{e.node, e.peer, e.tag}];
      ++c.started;
      c.bytes_started += e.bytes;
      if (c.started > c.posted) {
        s.report("transfer " + std::to_string(e.node) + "->" +
                 std::to_string(e.peer) + " tag " + std::to_string(e.tag) +
                 ": more starts than posts at event " + std::to_string(i));
      }
      break;
    }
    case Kind::TransferComplete: {
      auto& slot = s.messages.slot({e.node, e.peer, e.tag});
      MsgCounts& c = slot.second;
      ++c.completed;
      c.bytes_completed += e.bytes;
      if (c.completed > c.started) {
        s.report("transfer " + std::to_string(e.node) + "->" +
                 std::to_string(e.peer) + " tag " + std::to_string(e.tag) +
                 ": more completions than starts at event " +
                 std::to_string(i));
      }
      if (c.drained()) {
        auto& [count, bytes] = s.drained[slot.first];
        count += c.completed;
        bytes += c.bytes_completed;
        s.messages.erase(&slot);
      }
      break;
    }
    case Kind::GlobalOpEnter:
      ++s.global_ops_by_node[static_cast<std::size_t>(e.node)];
      break;
    case Kind::NodeDone: {
      const auto n = static_cast<std::size_t>(e.node);
      ++s.node_done_count[n];
      s.node_done_time[n] = e.time;
      s.max_done = std::max(s.max_done, e.time);
      break;
    }
    default:
      break;
  }
}

std::vector<std::string> TraceValidator::finalize(const RunResult* result) {
  Impl& s = *impl_;
  const std::int32_t nprocs = s.nprocs;

  for (std::int32_t n = 0; n < nprocs; ++n) {
    if (s.node_done_count[static_cast<std::size_t>(n)] != 1) {
      s.report("node " + std::to_string(n) + ": " +
               std::to_string(s.node_done_count[static_cast<std::size_t>(n)]) +
               " NodeDone events (expected 1)");
    }
  }

  // Matching and conservation per open message key. Text is built only
  // for a key that fails, from its absolute counts (drained totals added
  // back); failures are reported in ascending key order.
  std::vector<std::pair<MsgKey, std::string>> failed;
  s.messages.for_each([&](const auto& entry) {
    MsgCounts c = entry.second;
    if (const auto d = s.drained.find(entry.first)) {
      const auto [count, bytes] = d->second;
      c = {c.posted + count, c.started + count, c.completed + count,
           c.bytes_posted + bytes, c.bytes_started + bytes,
           c.bytes_completed + bytes};
    }
    const auto fail = [&](const std::string& what) {
      const auto& [src, dst, tag] = entry.first;
      failed.emplace_back(entry.first, "message " + std::to_string(src) +
                                           "->" + std::to_string(dst) +
                                           " tag " + std::to_string(tag) +
                                           what);
    };
    if (c.completed > c.started || c.started > c.posted) {
      fail(": counts out of order (posted " + std::to_string(c.posted) +
           ", started " + std::to_string(c.started) + ", completed " +
           std::to_string(c.completed) + ")");
      return;
    }
    if (c.bytes_completed > c.bytes_started ||
        c.bytes_started > c.bytes_posted) {
      fail(": byte counts not conserved (posted " +
           std::to_string(c.bytes_posted) + " B, started " +
           std::to_string(c.bytes_started) + " B, completed " +
           std::to_string(c.bytes_completed) + " B)");
    }
    if (!s.any_fault && !s.any_timeout) {
      // Fault-free, timeout-free runs must fully drain the rendezvous:
      // every post starts, every start completes, byte-for-byte.
      if (c.completed != c.posted) {
        fail(": " + std::to_string(c.posted) + " posted but " +
             std::to_string(c.completed) + " completed in a fault-free run");
      }
      if (c.bytes_completed != c.bytes_posted) {
        fail(": bytes sent (" + std::to_string(c.bytes_posted) +
             ") != bytes received (" + std::to_string(c.bytes_completed) +
             ") in a fault-free run");
      }
    } else if (c.completed < c.started && !s.any_fault) {
      fail(": transfer started but never completed");
    }
  });
  std::stable_sort(
      failed.begin(), failed.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [key, what] : failed) s.report(std::move(what));

  // Cross-check against the kernel's own accounting.
  if (result != nullptr) {
    const bool any_events = s.index > 0;
    if (result->makespan != s.max_done && any_events) {
      s.report("makespan mismatch: RunResult says " +
               std::to_string(result->makespan) +
               " ns, max NodeDone time is " + std::to_string(s.max_done) +
               " ns");
    }
    util::SimTime max_finish = 0;
    for (const util::SimTime t : result->finish_time) {
      max_finish = std::max(max_finish, t);
    }
    if (result->makespan != max_finish) {
      s.report("makespan mismatch: RunResult says " +
               std::to_string(result->makespan) + " ns, max finish_time is " +
               std::to_string(max_finish) + " ns");
    }
    const std::size_t limit =
        std::min(result->node_counters.size(),
                 static_cast<std::size_t>(std::max(nprocs, 0)));
    for (std::size_t n = 0; n < limit; ++n) {
      const NodeCounters& k = result->node_counters[n];
      if (any_events && result->finish_time.size() > n &&
          s.node_done_count[n] == 1 &&
          s.node_done_time[n] != result->finish_time[n]) {
        s.report("node " + std::to_string(n) + ": NodeDone at " +
                 std::to_string(s.node_done_time[n]) +
                 " ns but RunResult finish_time is " +
                 std::to_string(result->finish_time[n]) + " ns");
      }
      if (k.bytes_sent != s.posted_bytes_by_node[n]) {
        s.report("node " + std::to_string(n) + ": kernel counted " +
                 std::to_string(k.bytes_sent) + " B sent, trace shows " +
                 std::to_string(s.posted_bytes_by_node[n]) + " B posted");
      }
      if (k.sends != s.posted_msgs_by_node[n]) {
        s.report("node " + std::to_string(n) + ": kernel counted " +
                 std::to_string(k.sends) + " sends, trace shows " +
                 std::to_string(s.posted_msgs_by_node[n]) + " posts");
      }
      if (k.global_ops != s.global_ops_by_node[n]) {
        s.report("node " + std::to_string(n) + ": kernel counted " +
                 std::to_string(k.global_ops) + " global ops, trace shows " +
                 std::to_string(s.global_ops_by_node[n]));
      }
    }
  }

  if (s.suppressed > 0) {
    s.violations.push_back("... and " + std::to_string(s.suppressed) +
                           " more violations");
  }
  return std::move(s.violations);
}

}  // namespace cm5::sim
