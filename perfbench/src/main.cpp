/// perfbench: the end-to-end benchmark of the pfrdtn library.
///
///   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
///             [--work-dir DIR]
///   perfbench --self-test [--work-dir DIR]
///
/// Prints every metric of the run as the last line of stdout, one JSON
/// object: correct, attempted, failed, metrics. With --trace 0 those
/// are the end-to-end metrics; with --trace 1 the per-layer ones. Exits
/// 1 when an output check fails, 2 on a usage error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json; run.py refuses a mismatch.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"contacts_per_s", "1/s"},
    {"wire_kb_per_contact", "KiB"},
    {"peak_rss_mb", "MiB"},
    {"cpu_ms_per_contact", "ms"},
    {"push_p50_ms", "ms"},
    {"push_p99_ms", "ms"},
    {"pull_p50_ms", "ms"},
    {"pull_p99_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"trace.generate_ms", "ms"},
    {"sim.construct_ms", "ms"},
    {"dtn.encounter_p50_us", "us"},
    {"dtn.encounter_p99_us", "us"},
    {"dtn.policy_us_per_sync", "us"},
    {"dtn.to_send_calls_per_sync", "count"},
    {"repl.make_request_us_per_sync", "us"},
    {"repl.request_codec_us_per_sync", "us"},
    {"repl.build_batch_us_per_sync", "us"},
    {"repl.apply_batch_us_per_sync", "us"},
    {"repl.batch_codec_us_per_sync", "us"},
    {"repl.request_bytes_per_sync", "B"},
    {"repl.batch_bytes_per_sync", "B"},
    {"repl.items_per_sync", "count"},
    {"repl.knowledge_bytes_mean", "B"},
    {"repl.stored_copies_end", "count"},
    {"repl.hub_store_items_end", "count"},
    {"persist.recover_ms", "ms"},
    {"persist.attach_ms", "ms"},
    {"net.server_start_ms", "ms"},
    {"net.connect_us", "us"},
    {"net.server_cpu_ms_per_contact", "ms"},
    {"net.client_cpu_ms_per_contact", "ms"},
    {"net.push_bytes_per_session", "B"},
    {"net.pull_bytes_per_session", "B"},
    {"net.pull_items_per_session", "count"},
    {"persist.sink_us_per_push", "us"},
    {"persist.fsyncs_per_push", "count"},
    {"persist.wal_bytes_per_push", "B"},
    {"persist.checkpoints", "count"},
    {"persist.checkpoint_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

[[noreturn]] void usage(const std::string& what) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "emu_epidemic|emu_filter|serve_durable [--seed N] "
               "[--seconds S] [--trace 0|1] [--work-dir DIR]\n"
               "       perfbench --self-test [--work-dir DIR]\n",
               what.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const auto value = std::stoull(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  usage("bad value for " + flag + ": " + text);
}

void print_result(const RunResult& result, bool trace) {
  for (const std::string& failure : result.check_failures)
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  std::string json = "{\"correct\": ";
  json += result.check_failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& spec : trace ? std::span<const MetricSpec>(kPerLayer)
                                : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = result.metrics.find(spec.name);
    // A layer the workload does not run reads 0.
    double value = it == result.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    json += first ? "\"" : ", \"";
    json += spec.name;
    json += "\": {\"value\": ";
    json += number;
    json += ", \"unit\": \"";
    json += spec.unit;
    json += "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  args.work_dir = "perfbench/work";
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  std::filesystem::create_directories(args.work_dir);
  if (self_test) {
    SelfTest test;
    try {
      self_test_emulation(test);
      self_test_hub(test, args.work_dir + "/self-test");
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: self-test: %s\n", error.what());
      return 1;
    }
    std::printf("self-test: %s\n", test.missed() == 0
                                        ? "every check passed and caught"
                                        : "a check misjudged a result");
    return test.missed() == 0 ? 0 : 1;
  }

  RunResult result;
  try {
    if (args.workload == "emu_epidemic" || args.workload == "emu_filter") {
      result = run_emulation_workload(args);
    } else if (args.workload == "serve_durable") {
      result = run_hub_workload(args);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  print_result(result, args.trace);
  return result.check_failures.empty() ? 0 : 1;
}
