/// The emulator workloads, emu_epidemic and emu_filter: the paper-scale
/// emulation (17 days, 30-bus fleet, 490 messages) driven through
/// sim::Emulation, then replayed on the same generated trace through
/// dtn::run_encounter with the benchmark's own sync runner. The
/// untimed-by-Emulation replay yields the per-sync latencies; in a
/// traced run it yields the per-layer spans instead, against a plain
/// replay of the same trace that measures the tracing overhead.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>

#include "checks.hpp"
#include "common.hpp"
#include "dtn/registry.hpp"
#include "sim/emulator.hpp"
#include "sim/event_queue.hpp"
#include "sim/experiment.hpp"
#include "tracing.hpp"
#include "trace/email.hpp"
#include "trace/mobility.hpp"
#include "util/byte_buffer.hpp"

namespace perfbench {
namespace {

using namespace pfrdtn;
using Ledger = std::map<ItemId, std::optional<SimTime>>;

/// Setups timed before the first round, on top of one per round.
constexpr int kExtraSetups = 6;
/// Rounds every run makes whatever --seconds says: one paper-scale
/// emulation takes about ten seconds, and the host's speed wanders by
/// 10-30 % between ten-second windows, so one window per metric is too
/// few.
constexpr int kMinRounds = 2;
/// Syncs per chunk of the latency percentiles (about 25 chunks of each
/// kind in a two-round run).
constexpr std::size_t kLatencyChunk = 500;
/// The percentile the push_p99_ms and pull_p99_ms metrics report: the
/// 95th, with 25 samples beyond it in each chunk. The 98th and 99th
/// did not hold steady between runs (see README.md).
constexpr double kTailQuantile = 0.95;

sim::EmulationConfig workload_config(const std::string& workload,
                                     std::uint64_t seed) {
  sim::EmulationConfig config = sim::paper_config(seed);
  if (workload == "emu_epidemic") {
    config.policy = "epidemic";
  } else {
    // The "+4 selected" point of Figures 5 and 6.
    config.policy = "cimbiosys";
    config.strategy = dtn::FilterStrategy::Selected;
    config.filter_k = 4;
  }
  // Check every replica's invariants once, when the run ends.
  config.invariant_check_every = std::numeric_limits<std::size_t>::max();
  return config;
}

struct Inputs {
  trace::MobilityTrace mobility;
  trace::EmailWorkload email;
};

/// What the replay needs from the emulation it mirrors.
struct Reference {
  std::vector<std::vector<trace::BusIndex>> assignment;
  dtn::EncounterCounts encounter_counts;
};

std::size_t user_index(const trace::EmailWorkload& email, HostId user) {
  const auto it = std::find(email.users.begin(), email.users.end(), user);
  if (it == email.users.end())
    throw std::runtime_error("message from unknown user " + user.str());
  return static_cast<std::size_t>(it - email.users.begin());
}

std::vector<checks::MessageRoute> routes_of(const sim::Metrics& metrics,
                                            const Inputs& inputs,
                                            const Reference& reference) {
  std::vector<checks::MessageRoute> routes;
  for (const auto& [id, record] : metrics.records()) {
    const auto& day = reference.assignment.at(
        static_cast<std::size_t>(record.injected.day_index()));
    routes.push_back({id, record.injected,
                      day[user_index(inputs.email, record.sender)],
                      day[user_index(inputs.email, record.recipient)]});
  }
  return routes;
}

Ledger ledger_of(const sim::Metrics& metrics) {
  Ledger ledger;
  for (const auto& [id, record] : metrics.records())
    ledger[id] = record.delivered;
  return ledger;
}

/// Time spent in routing-policy hooks, across every node of a replay.
struct PolicyCounters {
  std::int64_t ns = 0;
  std::size_t to_send_calls = 0;
};

/// Forwards every hook to a registry policy and times it. The time is
/// charged to the policy layer and excluded from the enclosing span.
class TimedPolicy final : public dtn::DtnPolicy {
 public:
  TimedPolicy(dtn::PolicyPtr inner, PolicyCounters& counters)
      : inner_(std::move(inner)), counters_(&counters) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string summary() const override {
    return inner_->summary();
  }
  std::vector<std::uint8_t> generate_request(
      const repl::SyncContext& ctx) override {
    const Timer timer(*counters_);
    return inner_->generate_request(ctx);
  }
  void process_request(const repl::SyncContext& ctx,
                       const std::vector<std::uint8_t>& state) override {
    const Timer timer(*counters_);
    inner_->process_request(ctx, state);
  }
  repl::Priority to_send(const repl::SyncContext& ctx,
                         repl::TransientView stored) override {
    const Timer timer(*counters_);
    ++counters_->to_send_calls;
    return inner_->to_send(ctx, stored);
  }
  void on_forward(const repl::SyncContext& ctx, repl::TransientView stored,
                  repl::TransientView outgoing) override {
    const Timer timer(*counters_);
    inner_->on_forward(ctx, stored, outgoing);
  }
  void set_hosted(const std::set<HostId>& hosted, SimTime now) override {
    DtnPolicy::set_hosted(hosted, now);
    inner_->set_hosted(hosted, now);
  }
  void encounter_complete(ReplicaId peer, SimTime now) override {
    const Timer timer(*counters_);
    inner_->encounter_complete(peer, now);
  }
  void note_delivered(ItemId id, SimTime now) override {
    const Timer timer(*counters_);
    inner_->note_delivered(id, now);
  }

 private:
  class Timer {
   public:
    explicit Timer(PolicyCounters& counters)
        : counters_(&counters), start_(Clock::now()) {}
    ~Timer() {
      const std::int64_t ns = ns_between(start_, Clock::now());
      counters_->ns += ns;
      if (tracing::Tracer* tracer = tracing::current()) tracer->exclude(ns);
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    PolicyCounters* counters_;
    Clock::time_point start_;
  };

  dtn::PolicyPtr inner_;
  PolicyCounters* counters_;
};

/// One serialize/deserialize hop, as run_sync makes it.
template <typename Message>
Message roundtrip(const Message& message, std::size_t* framed_bytes) {
  ByteWriter writer;
  message.serialize(writer);
  if (framed_bytes != nullptr) *framed_bytes = framed_size(writer.size());
  ByteReader reader(writer.bytes());
  Message received = Message::deserialize(reader);
  if (!reader.done()) throw std::runtime_error("codec left trailing bytes");
  return received;
}

/// run_sync's steps as public calls, each inside its own span.
repl::SyncResult traced_sync(repl::Replica& source, repl::Replica& target,
                             repl::ForwardingPolicy* source_policy,
                             repl::ForwardingPolicy* target_policy,
                             SimTime now, const repl::SyncOptions& options,
                             std::uint64_t contact) {
  const tracing::Scope sync("repl.sync", contact);
  repl::SyncRequest request;
  {
    const tracing::Scope span("repl.make_request", contact);
    request = repl::make_request(target, target_policy, source.id(), now);
  }
  std::size_t request_bytes = 0;
  repl::SyncRequest received;
  {
    const tracing::Scope span("repl.request_codec", contact);
    received = roundtrip(request, &request_bytes);
  }
  repl::SyncBatch batch;
  {
    const tracing::Scope span("repl.build_batch", contact);
    batch = repl::build_batch(source, source_policy, received, now, options);
  }
  repl::SyncBatch arrived;
  {
    const tracing::Scope span("repl.batch_codec", contact);
    arrived = roundtrip(batch, nullptr);
  }
  repl::SyncResult result;
  {
    const tracing::Scope span("repl.apply_batch", contact);
    result = repl::apply_batch(target, arrived, options);
  }
  result.stats.request_bytes = request_bytes;
  // Bytes as sent, not as re-encoded after the round trip (run_sync's
  // rule: decoding folds knowledge extras into the version vector).
  result.stats.batch_bytes = repl::wire_size(batch);
  return result;
}

/// What a replay measures besides its delivery ledger.
enum class ReplayMode {
  Latency,  ///< time each one-way sync (repl::run_sync)
  Plain,    ///< time nothing but the whole replay (repl::run_sync)
  Traced,   ///< run_sync's steps as spans, policy hooks timed
};

struct ReplayOutcome {
  Ledger ledger;
  double wall_s = 0;
  std::size_t encounters = 0;
  std::size_t syncs = 0;
  repl::SyncStats traffic;
  std::vector<double> pull_ms;  ///< first sync of an encounter: a pulls
  std::vector<double> push_ms;  ///< second sync: a pushes
  PolicyCounters policy;
  tracing::Tracer spans{"emu"};  ///< empty unless the replay is traced
  std::vector<std::string> failures;
};

/// Re-runs an emulation's trace with the benchmark's own nodes and
/// sync runner, reproducing sim::Emulation's node set-up, injection and
/// event order so that its delivery ledger must come out identical.
class Replay {
 public:
  Replay(const sim::EmulationConfig& config, const Inputs& inputs,
         const Reference& reference, ReplayMode mode)
      : config_(config),
        inputs_(inputs),
        reference_(reference),
        traced_(mode == ReplayMode::Traced),
        timed_(mode == ReplayMode::Latency) {
    repl::ItemStore::Config store_config;
    store_config.relay_capacity = config.relay_capacity;
    const std::size_t fleet = inputs.mobility.fleet_size;
    std::vector<HostId> bus_addresses;
    for (std::size_t bus = 0; bus < fleet; ++bus) {
      auto node =
          std::make_unique<dtn::DtnNode>(ReplicaId(bus + 1), store_config);
      dtn::PolicyPtr policy =
          dtn::make_policy(config.policy, config.policy_params);
      if (traced_ && policy) {
        // The node binds the wrapper; the wrapped policy needs the
        // replica before its first hook runs.
        policy->bind(&node->replica());
        node->set_policy(
            std::make_shared<TimedPolicy>(std::move(policy), out_.policy));
      } else {
        node->set_policy(std::move(policy));
      }
      nodes_.push_back(std::move(node));
      bus_addresses.push_back(
          sim::Emulation::bus_address(static_cast<trace::BusIndex>(bus)));
    }
    Rng filter_rng(config.assignment_seed ^ 0xF11753ULL);
    const auto plan = dtn::FilterPlan::build(
        config.strategy, config.filter_k, bus_addresses,
        reference.encounter_counts, filter_rng);
    for (std::size_t bus = 0; bus < fleet; ++bus) {
      std::set<HostId> extras = plan.extras_for(bus_addresses[bus]);
      extras.erase(bus_addresses[bus]);
      nodes_[bus]->set_addresses({bus_addresses[bus]}, std::move(extras),
                                 SimTime(0));
    }
  }

  ReplayOutcome run() {
    if (traced_) tracing::current() = &out_.spans;
    sim::EventQueue queue;
    for (const trace::MessageEvent& event : inputs_.email.messages)
      queue.schedule(event.time, [this, &event](SimTime) { inject(event); });
    std::uint64_t contact = 0;
    for (const trace::Encounter& encounter : inputs_.mobility.encounters) {
      queue.schedule(encounter.time, [this, &encounter, &contact](SimTime) {
        encounter_at(encounter, ++contact);
      });
    }
    const auto start = Clock::now();
    queue.run();
    out_.wall_s = seconds_between(start, Clock::now());
    tracing::current() = nullptr;

    std::vector<const repl::Replica*> replicas;
    for (const auto& node : nodes_) replicas.push_back(&node->replica());
    out_.failures = checks::check_invariants(replicas);
    return std::move(out_);
  }

 private:
  void inject(const trace::MessageEvent& event) {
    const auto& day = reference_.assignment.at(
        static_cast<std::size_t>(event.time.day_index()));
    const auto sender_bus = day[user_index(inputs_.email, event.sender)];
    const auto recipient_bus =
        day[user_index(inputs_.email, event.recipient)];
    dtn::DtnNode& node = *nodes_[sender_bus];
    const dtn::MessageId id = node.send(
        event.sender,
        {sim::Emulation::bus_address(static_cast<trace::BusIndex>(
            recipient_bus))},
        "m" + std::to_string(out_.ledger.size()), event.time);
    out_.ledger[id] = std::nullopt;
    if (node.has_delivered(id)) out_.ledger[id] = event.time;
  }

  void deliver(const std::vector<dtn::Message>& delivered, SimTime now) {
    for (const dtn::Message& message : delivered) {
      auto& at = out_.ledger[message.id];
      if (!at) at = now;
    }
  }

  void encounter_at(const trace::Encounter& encounter,
                    std::uint64_t contact) {
    dtn::DtnNode& a = *nodes_[encounter.bus_a];
    dtn::DtnNode& b = *nodes_[encounter.bus_b];
    dtn::EncounterOptions options;
    options.encounter_budget = config_.encounter_budget;
    options.learn_knowledge = config_.learn_knowledge;
    std::size_t sync_in_encounter = 0;
    if (traced_) {
      options.sync_runner = [contact](repl::Replica& source,
                                      repl::Replica& target,
                                      repl::ForwardingPolicy* sp,
                                      repl::ForwardingPolicy* tp,
                                      SimTime now,
                                      const repl::SyncOptions& o) {
        return traced_sync(source, target, sp, tp, now, o, contact);
      };
    } else if (timed_ && encounter.time.day_index() >=
                             static_cast<std::int64_t>(
                                 config_.email.inject_days)) {
      // Latency is sampled once every message is in the network: before
      // that, how many syncs see a small store depends on the seed's
      // trace, and the median would sit between two populations.
      options.sync_runner = [this, &sync_in_encounter](
                                repl::Replica& source, repl::Replica& target,
                                repl::ForwardingPolicy* sp,
                                repl::ForwardingPolicy* tp, SimTime now,
                                const repl::SyncOptions& o) {
        const auto start = Clock::now();
        repl::SyncResult result =
            repl::run_sync(source, target, sp, tp, now, o);
        const double ms = seconds_between(start, Clock::now()) * 1e3;
        (sync_in_encounter++ == 0 ? out_.pull_ms : out_.push_ms)
            .push_back(ms);
        return result;
      };
    }
    dtn::EncounterOutcome outcome;
    {
      const tracing::Scope span("dtn.encounter", contact);
      outcome = dtn::run_encounter(a, b, encounter.time, options);
    }
    ++out_.encounters;
    out_.syncs += 2;
    out_.traffic.accumulate(outcome.stats);
    deliver(outcome.delivered_a, encounter.time);
    deliver(outcome.delivered_b, encounter.time);
  }

  const sim::EmulationConfig& config_;
  const Inputs& inputs_;
  const Reference& reference_;
  bool traced_;
  bool timed_;
  std::vector<std::unique_ptr<dtn::DtnNode>> nodes_;
  ReplayOutcome out_;
};

double per(double total, double count) {
  return count > 0 ? total / count : 0.0;
}

}  // namespace

RunResult run_emulation_workload(const RunArgs& args) {
  const sim::EmulationConfig config = workload_config(args.workload, args.seed);
  const bool exact = config.policy == "epidemic";
  RunResult out;

  std::vector<double> generate_s;
  std::vector<double> construct_s;
  std::vector<double> setup_s;
  const auto set_up = [&](Inputs& inputs) {
    const auto start = Clock::now();
    inputs.mobility = trace::generate_mobility(config.mobility);
    inputs.email = trace::generate_email(config.email);
    const auto generated = Clock::now();
    auto emulation = std::make_unique<sim::Emulation>(
        config, inputs.mobility, inputs.email);
    const auto constructed = Clock::now();
    generate_s.push_back(seconds_between(start, generated));
    construct_s.push_back(seconds_between(generated, constructed));
    setup_s.push_back(seconds_between(start, constructed));
    return emulation;
  };
  for (int i = 0; i < kExtraSetups; ++i) {
    Inputs scratch;
    set_up(scratch);
  }

  double run_s = 0;
  double run_cpu_s = 0;
  double traced_s = 0;
  double traced_encounters = 0;
  double plain_s = 0;
  double plain_encounters = 0;
  std::size_t encounters = 0;
  double wire_bytes = 0;
  double knowledge_bytes = 0;
  double stored_copies = 0;
  std::vector<double> pull_ms;
  std::vector<double> push_ms;
  repl::SyncStats traced_traffic;
  std::size_t traced_syncs = 0;
  PolicyCounters policy;
  std::vector<tracing::Tracer> tracers;

  // Whole rounds only, at least kMinRounds of them so that every
  // metric spans two separate windows of the host's time; after that,
  // another round starts while it can end in time.
  const auto started = Clock::now();
  double round_s = 0;
  int rounds = 0;
  do {
    ++rounds;
    const auto round_start = Clock::now();
    Inputs inputs;
    auto emulation = set_up(inputs);
    sim::EmulationResult result;
    const double cpu_before = process_cpu_seconds();
    const auto start = Clock::now();
    try {
      result = emulation->run();
    } catch (const std::exception& error) {
      out.check_failures.push_back(std::string("emulation: ") + error.what());
      break;
    }
    const auto run_end = Clock::now();
    run_s += seconds_between(start, run_end);
    run_cpu_s += process_cpu_seconds() - cpu_before;
    const Reference reference{emulation->assignment(),
                              emulation->encounter_counts()};
    emulation.reset();  // the replay's nodes replace the emulation's

    const sim::Metrics& metrics = result.metrics;
    encounters += metrics.encounter_count();
    out.attempted += metrics.encounter_count();
    wire_bytes += static_cast<double>(metrics.traffic().request_bytes +
                                      metrics.traffic().batch_bytes);
    knowledge_bytes = metrics.knowledge_bytes().mean();
    stored_copies = 0;
    for (const auto& [id, record] : metrics.records())
      stored_copies += static_cast<double>(record.copies_at_end);

    const Ledger ledger = ledger_of(metrics);
    const auto routes = routes_of(metrics, inputs, reference);
    out.add_failures(checks::check_deliveries(
        routes, checks::flooding_bounds(routes, inputs.mobility), ledger,
        exact));

    if (args.trace) {
      // The tracing overhead compares like with like: the same replay
      // with run_sync's plain runner against the traced one.
      ReplayOutcome plain =
          Replay(config, inputs, reference, ReplayMode::Plain).run();
      out.attempted += plain.encounters;
      out.add_failures(plain.failures);
      out.add_failures(
          checks::check_same_ledger(ledger, plain.ledger, "plain replay"));
      plain_s += plain.wall_s;
      std::fprintf(stderr, "%s round: plain replay %.3f s\n",
                   args.workload.c_str(), plain.wall_s);
      plain_encounters += static_cast<double>(plain.encounters);
    }
    ReplayOutcome replayed =
        Replay(config, inputs, reference,
               args.trace ? ReplayMode::Traced : ReplayMode::Latency)
            .run();
    out.attempted += replayed.encounters;
    out.add_failures(replayed.failures);
    out.add_failures(checks::check_same_ledger(
        ledger, replayed.ledger,
        args.trace ? "traced replay" : "latency replay"));
    pull_ms.insert(pull_ms.end(), replayed.pull_ms.begin(),
                   replayed.pull_ms.end());
    push_ms.insert(push_ms.end(), replayed.push_ms.begin(),
                   replayed.push_ms.end());
    if (args.trace) {
      traced_s += replayed.wall_s;
      traced_encounters += static_cast<double>(replayed.encounters);
      traced_traffic.accumulate(replayed.traffic);
      traced_syncs += replayed.syncs;
      policy.ns += replayed.policy.ns;
      policy.to_send_calls += replayed.policy.to_send_calls;
      tracers.push_back(std::move(replayed.spans));
    }
    round_s = seconds_between(round_start, Clock::now());
    std::fprintf(stderr,
                 "%s round: %zu encounters; Emulation::run %.3f s, %s "
                 "replay %.3f s\n",
                 args.workload.c_str(), metrics.encounter_count(),
                 seconds_between(start, run_end),
                 args.trace ? "traced" : "latency", replayed.wall_s);
    if (!args.trace) {
      std::fprintf(stderr, "%s sync p99: push %.3f ms, pull %.3f ms\n",
                   args.workload.c_str(), quantile(replayed.push_ms, 0.99),
                   quantile(replayed.pull_ms, 0.99));
    }
  } while (out.check_failures.empty() &&
           (rounds < kMinRounds ||
            seconds_between(started, Clock::now()) + round_s <= args.seconds));

  auto& m = out.metrics;
  const double n = static_cast<double>(encounters);
  if (!args.trace) {
    m["setup_s"] = median(setup_s);
    m["contacts_per_s"] = per(n, run_s);
    m["wire_kb_per_contact"] = per(wire_bytes, n) / 1024.0;
    m["peak_rss_mb"] = peak_rss_mib();
    m["cpu_ms_per_contact"] = per(run_cpu_s * 1e3, n);
    m["push_p50_ms"] = chunked_quantile(push_ms, kLatencyChunk, 0.50);
    m["push_p99_ms"] = chunked_quantile(push_ms, kLatencyChunk, kTailQuantile);
    m["pull_p50_ms"] = chunked_quantile(pull_ms, kLatencyChunk, 0.50);
    m["pull_p99_ms"] = chunked_quantile(pull_ms, kLatencyChunk, kTailQuantile);
    return out;
  }

  std::vector<const tracing::Tracer*> views;
  for (const auto& tracer : tracers) views.push_back(&tracer);
  const auto layers = tracing::summarize(views);
  const double ts = static_cast<double>(traced_syncs);
  const auto self_us_per_sync = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end()
               ? 0.0
               : per(static_cast<double>(it->second.self_ns) / 1e3, ts);
  };
  std::vector<double> encounter_us;
  if (const auto it = layers.find("dtn.encounter"); it != layers.end())
    encounter_us = it->second.durations_us;

  m["trace.generate_ms"] = median(generate_s) * 1e3;
  m["sim.construct_ms"] = median(construct_s) * 1e3;
  m["dtn.encounter_p50_us"] = quantile(encounter_us, 0.50);
  m["dtn.encounter_p99_us"] = quantile(encounter_us, 0.99);
  m["dtn.policy_us_per_sync"] = per(static_cast<double>(policy.ns) / 1e3, ts);
  m["dtn.to_send_calls_per_sync"] =
      per(static_cast<double>(policy.to_send_calls), ts);
  m["repl.make_request_us_per_sync"] = self_us_per_sync("repl.make_request");
  m["repl.request_codec_us_per_sync"] =
      self_us_per_sync("repl.request_codec");
  m["repl.build_batch_us_per_sync"] = self_us_per_sync("repl.build_batch");
  m["repl.apply_batch_us_per_sync"] = self_us_per_sync("repl.apply_batch");
  m["repl.batch_codec_us_per_sync"] = self_us_per_sync("repl.batch_codec");
  m["repl.request_bytes_per_sync"] =
      per(static_cast<double>(traced_traffic.request_bytes), ts);
  m["repl.batch_bytes_per_sync"] =
      per(static_cast<double>(traced_traffic.batch_bytes), ts);
  m["repl.items_per_sync"] =
      per(static_cast<double>(traced_traffic.items_sent), ts);
  m["repl.knowledge_bytes_mean"] = knowledge_bytes;
  m["repl.stored_copies_end"] = stored_copies;
  m["trace.overhead_ratio"] =
      per(per(traced_encounters, traced_s), per(plain_encounters, plain_s));
  const std::string path = args.work_dir + "/spans-" + args.workload + ".csv";
  out.check(tracing::write_csv(path, views), "cannot write " + path);
  return out;
}

}  // namespace perfbench

namespace perfbench {

void self_test_emulation(SelfTest& test) {
  using namespace pfrdtn;
  // A small epidemic emulation: its deliveries sit exactly on the
  // flooding bounds, which gives the wrong results something to miss.
  sim::EmulationConfig config = sim::small_config(0.3, 4);
  config.policy = "epidemic";
  Inputs inputs{trace::generate_mobility(config.mobility),
                trace::generate_email(config.email)};
  sim::Emulation emulation(config, inputs.mobility, inputs.email);
  const sim::EmulationResult result = emulation.run();
  const Reference reference{emulation.assignment(),
                            emulation.encounter_counts()};
  const auto routes = routes_of(result.metrics, inputs, reference);
  const auto bounds = checks::flooding_bounds(routes, inputs.mobility);
  const Ledger ledger = ledger_of(result.metrics);
  test.expect_clean(checks::check_deliveries(routes, bounds, ledger, true),
                    "epidemic deliveries on their flooding bounds");

  // A message whose bound lies after its injection, so an earlier
  // delivery is still a plausible-looking one.
  const auto late = std::find_if(routes.begin(), routes.end(),
                                 [&](const checks::MessageRoute& route) {
                                   return bounds.at(route.id) > route.injected;
                                 });
  if (late == routes.end()) {
    test.expect_caught({}, "small emulation has a message to tamper with");
    return;
  }
  Ledger early = ledger;
  early[late->id] = SimTime(bounds.at(late->id).seconds() - 1);
  test.expect_caught(checks::check_deliveries(routes, bounds, early, false),
                     "a delivery earlier than the flooding bound");
  Ledger later = ledger;
  later[late->id] = SimTime(bounds.at(late->id).seconds() + 60);
  test.expect_caught(checks::check_deliveries(routes, bounds, later, true),
                     "an epidemic delivery later than the bound");
  Ledger lost = ledger;
  lost[late->id] = std::nullopt;
  test.expect_caught(checks::check_deliveries(routes, bounds, lost, false),
                     "a message never delivered");
  test.expect_caught(checks::check_same_ledger(ledger, later, "replay"),
                     "a replay ledger that differs from the emulator's");
}

}  // namespace perfbench
