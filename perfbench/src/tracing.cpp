#include "tracing.hpp"

#include <fstream>

namespace perfbench::tracing {

std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return ns_between(origin, Clock::now());
}

Tracer*& current() {
  thread_local Tracer* tracer = nullptr;
  return tracer;
}

std::int32_t Tracer::begin(const char* name, std::uint64_t contact) {
  Span span;
  span.name = name;
  span.contact = contact;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  spans_[id].end_ns = now_ns();
  // Spans nest strictly (RAII), so the closing span is the innermost.
  open_.pop_back();
}

namespace {

/// Self time of every span of one tracer, by index.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_ns - spans[i].start_ns - spans[i].excluded_ns;
  for (const Span& span : spans) {
    if (span.parent >= 0) self[span.parent] -= span.end_ns - span.start_ns;
  }
  return self;
}

}  // namespace

std::map<std::string, LayerTotals> summarize(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, LayerTotals> totals;
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    const auto self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      LayerTotals& layer = totals[spans[i].name];
      const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
      layer.self_ns += self[i];
      layer.durations_us.push_back(static_cast<double>(duration) / 1e3);
    }
  }
  return totals;
}

bool write_csv(const std::string& path,
               const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread,contact,id,parent,name,start_ns,end_ns,self_ns\n";
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    const auto self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      out << tracer->label() << ',' << span.contact << ',' << i << ','
          << span.parent << ',' << span.name << ',' << span.start_ns << ','
          << span.end_ns << ',' << self[i] << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench::tracing
