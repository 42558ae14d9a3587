#include "spans.hpp"

#include <stdexcept>

namespace cm5bench {

std::int32_t SpanLog::open(const char* name, std::int32_t cell) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.cell = cell;
  const auto index = static_cast<std::int32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return index;
}

void SpanLog::close(std::int32_t index) {
  const std::int64_t end = now_ns();
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span closed out of order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

void SpanLog::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                  std::int32_t parent, std::int32_t cell) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, cell});
}

std::map<std::string, std::int64_t> SpanLog::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

std::map<std::string, std::int64_t> SpanLog::total_ns() const {
  std::map<std::string, std::int64_t> out;
  for (const Span& span : spans_) {
    out[span.name] += span.end_ns - span.start_ns;
  }
  return out;
}

std::vector<std::int64_t> SpanLog::durations(const std::string& name) const {
  std::vector<std::int64_t> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.end_ns - span.start_ns);
  }
  return out;
}

cm5::util::json::Value SpanLog::chrome_trace(std::int64_t origin_ns,
                                             std::int32_t tid) const {
  using cm5::util::json::Value;
  Value events = Value::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Value event = Value::object();
    event["name"] = span.name;
    event["cat"] = "layer";
    event["ph"] = "X";
    event["ts"] = static_cast<double>(span.start_ns - origin_ns) / 1e3;
    event["dur"] = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    event["pid"] = 1;
    event["tid"] = tid;
    Value args = Value::object();
    args["span"] = static_cast<std::int64_t>(i);
    args["parent"] = span.parent;
    args["cell"] = span.cell;
    event["args"] = std::move(args);
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace cm5bench
