#pragma once

/// \file tracing.hpp
/// In-memory spans recorded by the benchmark around its own calls into
/// each layer of the library. A span has a name, a start, an end, the
/// span that encloses it, and the id of the contact (encounter or
/// session) it belongs to. Spans stay in memory until the run ends;
/// then they are summarised into per-layer metrics and written out.
///
/// A layer's self time is its span's duration minus the part its child
/// spans cover, minus "excluded" time: work charged to the innermost
/// open span by a wrapper around a callee too fine-grained for a span
/// of its own (a routing-policy hook runs once per stored item).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench::tracing {

struct Span {
  const char* name = "";
  std::uint64_t contact = 0;
  std::int32_t parent = -1;  ///< index into the same tracer, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t excluded_ns = 0;
};

/// One thread's span buffer. Not thread-safe: each thread owns one.
class Tracer {
 public:
  explicit Tracer(std::string label) : label_(std::move(label)) {}

  std::int32_t begin(const char* name, std::uint64_t contact);
  void end(std::int32_t id);
  /// Charge `ns` of foreign work to the innermost open span.
  void exclude(std::int64_t ns) {
    if (!open_.empty()) spans_[open_.back()].excluded_ns += ns;
  }

  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string label_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Nanoseconds since the process-wide trace origin.
std::int64_t now_ns();

/// The calling thread's tracer; null when nothing is traced.
Tracer*& current();

/// RAII span on the calling thread's tracer (a no-op when untraced).
class Scope {
 public:
  Scope(const char* name, std::uint64_t contact)
      : tracer_(current()),
        id_(tracer_ != nullptr ? tracer_->begin(name, contact) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

struct LayerTotals {
  std::int64_t self_ns = 0;
  std::vector<double> durations_us;
};

/// Per span name: total self time and every duration.
std::map<std::string, LayerTotals> summarize(
    const std::vector<const Tracer*>& tracers);

/// Write every span as one CSV row (thread, contact, id, parent, name,
/// start_ns, end_ns, self_ns). Returns false if the file cannot be
/// written.
bool write_csv(const std::string& path,
               const std::vector<const Tracer*>& tracers);

}  // namespace perfbench::tracing
