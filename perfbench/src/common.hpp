#pragma once

/// \file common.hpp
/// Shared plumbing of the end-to-end benchmark: clocks, order
/// statistics, and the per-run result that main() prints as one JSON
/// line.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline std::int64_t ns_between(Clock::time_point from,
                                             Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// CPU seconds used by the whole process / the calling thread.
double process_cpu_seconds();
double thread_cpu_seconds();
/// Binds the calling thread, and every thread it starts from then on,
/// to one CPU it may run on: the one that has taken the most virtio
/// block-request interrupts (/proc/interrupts lines "virtioN-req.M"),
/// so that an fsync completes on the CPU that waits for it, or else the
/// highest-numbered. Returns that CPU, or -1 when the affinity cannot
/// be read or set.
int pin_to_one_cpu();
/// Peak resident set size of the process, in MiB.
double peak_rss_mib();

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The median, over consecutive chunks of `chunk` samples, of each
/// chunk's q-quantile: a stall of the host that covers a minority of the
/// chunks leaves it where it was. Falls back to the plain quantile when
/// there is less than one whole chunk.
double chunked_quantile(const std::vector<double>& samples, std::size_t chunk,
                        double q);

/// What one invocation was asked to do.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 4;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans and the hub its state
  /// directories (inside the checkout).
  std::string work_dir;
};

/// One run's outcome. `metrics` holds values by name; main() fills in
/// every metric the benchmark defines, in its own order and units.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, double> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void add_failures(const std::vector<std::string>& failures) {
    check_failures.insert(check_failures.end(), failures.begin(),
                          failures.end());
  }
};

RunResult run_emulation_workload(const RunArgs& args);
RunResult run_hub_workload(const RunArgs& args);
/// The self-test: feeds every output check a correct result, which it
/// must pass, and deliberately wrong ones, which it must fail.
class SelfTest {
 public:
  void expect_clean(const std::vector<std::string>& failures,
                    const std::string& what);
  void expect_caught(const std::vector<std::string>& failures,
                     const std::string& what);
  [[nodiscard]] int missed() const { return missed_; }

 private:
  int missed_ = 0;
};

void self_test_emulation(SelfTest& test);
void self_test_hub(SelfTest& test, const std::string& work_dir);

}  // namespace perfbench
