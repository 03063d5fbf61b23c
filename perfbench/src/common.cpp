#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

/// Block-request interrupts taken per CPU, by column of /proc/interrupts.
std::vector<std::uint64_t> block_interrupts_per_cpu() {
  std::ifstream in("/proc/interrupts");
  std::string line;
  if (!std::getline(in, line)) return {};
  std::size_t cpus = 0;
  for (std::size_t at = line.find("CPU"); at != std::string::npos;
       at = line.find("CPU", at + 3))
    ++cpus;
  std::vector<std::uint64_t> counts(cpus, 0);
  while (std::getline(in, line)) {
    if (line.find("virtio") == std::string::npos ||
        line.find("-req") == std::string::npos)
      continue;
    std::istringstream fields(line.substr(line.find(':') + 1));
    for (std::size_t cpu = 0; cpu < cpus; ++cpu) {
      std::uint64_t count = 0;
      if (!(fields >> count)) break;
      counts[cpu] += count;
    }
  }
  return counts;
}

}  // namespace

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  const std::vector<std::uint64_t> interrupts = block_interrupts_per_cpu();
  int chosen = -1;
  std::uint64_t most = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (chosen < 0) chosen = cpu;
    const auto at = static_cast<std::size_t>(cpu);
    if (at < interrupts.size() && interrupts[at] > most) {
      most = interrupts[at];
      chosen = cpu;
    }
  }
  if (chosen < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(chosen, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? chosen : -1;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double chunked_quantile(const std::vector<double>& samples, std::size_t chunk,
                        double q) {
  if (samples.size() < chunk) return quantile(samples, q);
  std::vector<double> per_chunk;
  for (std::size_t at = 0; at + chunk <= samples.size(); at += chunk) {
    per_chunk.push_back(quantile(
        std::vector<double>(samples.begin() + static_cast<long>(at),
                            samples.begin() + static_cast<long>(at + chunk)),
        q));
  }
  return median(std::move(per_chunk));
}

void SelfTest::expect_clean(const std::vector<std::string>& failures,
                            const std::string& what) {
  std::printf("self-test: %-58s %s\n", what.c_str(),
              failures.empty() ? "passes" : "REJECTED");
  for (const std::string& failure : failures)
    std::printf("    %s\n", failure.c_str());
  if (!failures.empty()) ++missed_;
}

void SelfTest::expect_caught(const std::vector<std::string>& failures,
                             const std::string& what) {
  std::printf("self-test: %-58s %s\n", what.c_str(),
              failures.empty() ? "MISSED" : "caught");
  for (const std::string& failure : failures)
    std::printf("    %s\n", failure.c_str());
  if (failures.empty()) ++missed_;
}

}  // namespace perfbench
