/// The serve_durable workload: a live hub on loopback TCP, as
/// `pfrdtn serve --state-dir` runs it — an in-process net::SyncServer
/// with two workers and no routing policy over a replica made durable
/// by persist::Durability (one fsync per WAL record), restarted from a
/// state directory the benchmark prepares from the seed.
///
/// Two closed-loop client threads each alternate a push session (one
/// new message addressed to the other client: a WAL append and fsync on
/// the hub) with a pull session (collecting their own mail: build_batch
/// from the hub's mailbox index). Work comes in epochs: every epoch
/// restarts the hub from a fresh copy of the prepared directory and
/// runs a fixed number of sessions, so every epoch does the same work
/// on the same state whatever the host's speed.
///
/// Every thread of the workload runs on one CPU, the one that takes the
/// disk's interrupts. On a shared virtual machine a wake-up that crosses
/// to another vCPU waits until the hypervisor runs that vCPU again, and
/// a session makes several (client, acceptor, worker, fsync completion):
/// spread over the vCPUs, throughput swung threefold with the host's
/// load, against about a fifth on one. So the workload measures what a
/// session costs, not how the hub scales across cores.

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "dtn/message.hpp"
#include "dtn/messaging.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "net/tcp.hpp"
#include "persist/checkpoint.hpp"
#include "persist/durability.hpp"
#include "persist/env.hpp"
#include "tracing.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace pfrdtn;
namespace fs = std::filesystem;

// ---- the hub's inputs ------------------------------------------------

constexpr std::uint64_t kHubReplica = 1;
constexpr std::uint64_t kFirstClientReplica = 2;
constexpr std::uint64_t kFirstAuthorReplica = 1000;
const HostId kHubAddress(900000);
constexpr std::uint64_t kFirstClientAddress = 900001;
constexpr std::uint64_t kFirstMailboxAddress = 900100;

constexpr std::size_t kMailboxAddresses = 48;
constexpr std::size_t kAuthors = 12;
constexpr std::size_t kMessagesPerAuthor = 300;  ///< 3600 in the mailbox
constexpr std::size_t kClients = 2;
constexpr int kWorkers = 2;
/// Push/pull pairs each client runs per epoch.
constexpr std::size_t kPairsPerEpoch = 500;
/// The percentile the push_p99_ms and pull_p99_ms metrics report: the
/// 75th, with 250 of an epoch's 1,000 sessions of a kind beyond it. It
/// already spread up to 0.26 between ten runs, and the 99th spread 0.4
/// in six (see README.md).
constexpr double kTailQuantile = 0.75;
/// Hub restarts timed before the first epoch, on top of one per epoch.
constexpr int kExtraSetups = 4;

HostId client_address(std::size_t client) {
  return HostId(kFirstClientAddress + client);
}

/// The hub relays for every client and mailbox address.
std::set<HostId> hub_extras() {
  std::set<HostId> extras;
  for (std::size_t c = 0; c < kClients; ++c) extras.insert(client_address(c));
  for (std::size_t a = 0; a < kMailboxAddresses; ++a)
    extras.insert(HostId(kFirstMailboxAddress + a));
  return extras;
}

std::string random_body(Rng& rng, std::size_t min_len, std::size_t max_len) {
  std::string body(min_len + rng.below(max_len - min_len + 1), ' ');
  for (char& c : body) c = static_cast<char>('a' + rng.below(26));
  return body;
}

/// Writes the hub's state directory: a mailbox of messages from
/// authors the clients never are, one sixth behind a checkpoint and the
/// rest in the WAL, so a restart both decodes and replays. The WAL is
/// left at about 0.9 MiB, so an epoch's pushes take it past the 1 MiB
/// roll threshold and every epoch rolls a checkpoint once.
void prepare_state(const std::string& dir, std::uint64_t seed) {
  fs::remove_all(dir);
  persist::FsEnv env(dir);
  dtn::DtnNode hub_node{ReplicaId(kHubReplica)};
  persist::DurabilityOptions options;
  options.sync_every_records = 1024;  // a bulk load: flushed at the end
  persist::Durability durability(env, options);
  durability.attach(hub_node.replica());
  hub_node.set_addresses({kHubAddress}, hub_extras(), SimTime(0));

  Rng rng(seed ^ 0x4D41494C424F58ULL);
  std::vector<dtn::DtnNode> authors;
  for (std::size_t a = 0; a < kAuthors; ++a)
    authors.emplace_back(ReplicaId(kFirstAuthorReplica + a));
  const std::size_t checkpoint_after = kMessagesPerAuthor / 6;
  for (std::size_t round = 0; round < kMessagesPerAuthor; round += 50) {
    if (round >= checkpoint_after && round - 50 < checkpoint_after)
      durability.checkpoint_now();
    for (auto& author : authors) {
      for (std::size_t i = round; i < std::min(round + 50, kMessagesPerAuthor);
           ++i) {
        const HostId to(kFirstMailboxAddress + rng.below(kMailboxAddresses));
        author.send(HostId(800000 + author.id().value()), {to},
                    random_body(rng, 48, 400), SimTime(0));
      }
      repl::run_sync(author.replica(), hub_node.replica(), nullptr, nullptr,
                     SimTime(0));
    }
  }
  durability.flush();
  durability.detach();
}

// ---- server-side timing (traced epochs) ------------------------------

/// Forwards every replica mutation to the durability layer and times
/// it; installed over Durability with Replica::set_mutation_sink. Calls
/// arrive from the server's workers under its state mutex, so the span
/// buffer is shared; the sink's own mutex makes that explicit.
class TimedSink final : public repl::ReplicaMutationSink {
 public:
  explicit TimedSink(persist::Durability& durability)
      : durability_(&durability), tracer_("hub-sink") {}

  void on_local_put(const repl::Item& stored) override {
    timed([&] { durability_->on_local_put(stored); });
  }
  void on_apply_remote(const repl::Item& incoming) override {
    timed([&] { durability_->on_apply_remote(incoming); });
  }
  void on_set_filter(const repl::Filter& filter) override {
    timed([&] { durability_->on_set_filter(filter); });
  }
  void on_discard_relay(ItemId id) override {
    timed([&] { durability_->on_discard_relay(id); });
  }
  void on_learn(const repl::Knowledge& source_knowledge) override {
    timed([&] { durability_->on_learn(source_knowledge); });
  }
  void on_policy_state(
      ItemId id, const std::map<std::string, std::string>& all) override {
    timed([&] { durability_->on_policy_state(id, all); });
  }

  [[nodiscard]] std::int64_t total_ns() const { return total_ns_; }
  [[nodiscard]] const std::vector<double>& checkpoint_ms() const {
    return checkpoint_ms_;
  }
  [[nodiscard]] tracing::Tracer& tracer() { return tracer_; }

 private:
  template <typename Call>
  void timed(Call call) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t checkpoints = durability_->checkpoints_written();
    const auto start = Clock::now();
    const std::int32_t span = tracer_.begin("persist.sink", 0);
    try {
      call();
    } catch (...) {
      tracer_.end(span);
      throw;
    }
    tracer_.end(span);
    const std::int64_t ns = ns_between(start, Clock::now());
    total_ns_ += ns;
    // A roll runs inside the mutation that first follows the threshold.
    if (durability_->checkpoints_written() != checkpoints)
      checkpoint_ms_.push_back(static_cast<double>(ns) / 1e6);
  }

  persist::Durability* durability_;
  std::mutex mutex_;
  tracing::Tracer tracer_;
  std::int64_t total_ns_ = 0;
  std::vector<double> checkpoint_ms_;
};

// ---- the live hub ----------------------------------------------------

struct SetupTimes {
  double recover_s = 0;
  double attach_s = 0;
  double listen_s = 0;
  [[nodiscard]] double total() const { return recover_s + attach_s + listen_s; }
};

/// A hub restarted from a state directory, listening on loopback.
class Hub {
 public:
  Hub(const std::string& dir, std::atomic<std::size_t>& server_failures) {
    const auto start = Clock::now();
    env_ = std::make_unique<persist::FsEnv>(dir);
    auto recovered = persist::recover(*env_);
    if (!recovered) throw std::runtime_error("no state to recover in " + dir);
    const auto recovered_at = Clock::now();

    node_.emplace(std::move(recovered->replica));
    durability_ = std::make_unique<persist::Durability>(*env_);
    durability_->attach(node_->replica());
    node_->seed_delivered(durability_->delivered());
    node_->set_delivery_sink([this](ItemId id) {
      durability_->note_delivered(id);
    });
    node_->set_addresses({kHubAddress}, hub_extras(), SimTime(0));
    const auto attached_at = Clock::now();

    net::SyncServerOptions options;
    options.port = 0;
    options.workers = kWorkers;
    options.tcp.session_deadline_ms = 30000;  // as `pfrdtn serve`
    net::SyncServerCallbacks callbacks;
    // As `pfrdtn serve`: hand what a push delivered to the node.
    callbacks.on_session = [this, &server_failures](
                               std::size_t, const std::string&,
                               const net::ServerSessionOutcome& outcome) {
      if (outcome.transport_failed) ++server_failures;
      node_->on_sync_delivered(outcome.applied.result.delivered, SimTime(0));
    };
    callbacks.on_violation = [&server_failures](
                                 std::size_t, const std::string&, bool,
                                 const std::string& what, std::size_t,
                                 std::uint64_t) {
      std::fprintf(stderr, "hub: peer violation: %s\n", what.c_str());
      ++server_failures;
    };
    callbacks.on_shed = [&server_failures](const std::string&, std::size_t) {
      ++server_failures;
    };
    server_ = std::make_unique<net::SyncServer>(node_->replica(), nullptr,
                                                options, callbacks);
    const auto listening_at = Clock::now();
    times_.recover_s = seconds_between(start, recovered_at);
    times_.attach_s = seconds_between(recovered_at, attached_at);
    times_.listen_s = seconds_between(attached_at, listening_at);
  }

  ~Hub() {
    try {
      stop();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "hub: flush at shutdown failed: %s\n",
                   error.what());
    }
  }
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  void start() {
    runner_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& error) {
        std::fprintf(stderr, "hub: server stopped: %s\n", error.what());
      }
    });
  }

  /// Drain the server and flush the log; the hub stays inspectable.
  void stop() {
    if (server_ == nullptr) return;
    if (runner_.joinable()) {
      server_->shutdown();
      runner_.join();
    }
    server_.reset();
    durability_->flush();
  }

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] const SetupTimes& times() const { return times_; }
  [[nodiscard]] repl::Replica& replica() { return node_->replica(); }
  [[nodiscard]] persist::Durability& durability() { return *durability_; }

 private:
  std::unique_ptr<persist::FsEnv> env_;
  std::optional<dtn::DtnNode> node_;
  std::unique_ptr<persist::Durability> durability_;
  std::unique_ptr<net::SyncServer> server_;
  std::thread runner_;
  SetupTimes times_;
};

// ---- the clients -----------------------------------------------------

struct Client {
  Client(std::size_t index, std::uint64_t seed)
      : node(ReplicaId(kFirstClientReplica + index)),
        address(client_address(index)),
        peer(client_address((index + 1) % kClients)),
        rng(seed * 31 + index),
        tracer("client-" + std::to_string(index)) {
    node.set_addresses({address}, {}, SimTime(0));
  }

  dtn::DtnNode node;
  HostId address;
  HostId peer;
  Rng rng;
  tracing::Tracer tracer;

  std::vector<ItemId> sent;
  std::size_t acked = 0;  ///< sent[0, acked) were acknowledged
  std::vector<ItemId> received;
  std::size_t sessions = 0;
  std::size_t failed = 0;
  std::size_t stale = 0;
  std::vector<double> push_ms;
  std::vector<double> pull_ms;
  double push_bytes = 0;
  double pull_bytes = 0;
  double pull_items = 0;
  double cpu_s = 0;
};

bool session_ok(const net::ClientSessionOutcome& outcome) {
  return !outcome.transport_failed && !outcome.refused &&
         !outcome.pull.transport_failed && !outcome.pull.refused &&
         !outcome.push.transport_failed && !outcome.push.refused;
}

/// One session: connect, run it, close. Returns its latency in ms.
double run_session(Client& client, std::uint16_t port, net::SyncMode mode,
                   std::uint64_t contact) {
  const bool push = mode == net::SyncMode::Push;
  if (push) {
    client.sent.push_back(client.node.send(
        client.address, {client.peer}, random_body(client.rng, 48, 400),
        SimTime(0)));
  }
  ++client.sessions;
  const auto start = Clock::now();
  const tracing::Scope root(push ? "hub.push" : "hub.pull", contact);
  try {
    net::ConnectionPtr connection;
    {
      const tracing::Scope span("net.connect", contact);
      connection = net::tcp_connect("127.0.0.1", port);
    }
    net::ClientSessionOutcome outcome;
    {
      const tracing::Scope span("net.client_session", contact);
      outcome = net::run_client_session(*connection, client.node.replica(),
                                        nullptr, mode, SimTime(0));
    }
    connection.reset();
    if (!session_ok(outcome)) {
      ++client.failed;
      std::fprintf(stderr, "client %s: session failed: %s\n",
                   client.address.str().c_str(), outcome.error.c_str());
    } else if (push) {
      client.acked = client.sent.size();
      client.push_bytes += static_cast<double>(
          outcome.push.stats.request_bytes + outcome.push.stats.batch_bytes +
          outcome.overhead_bytes);
    } else {
      const auto& pulled = outcome.pull.result;
      for (const repl::Item& item : pulled.delivered) {
        if (dtn::Message::from_item(item)) client.received.push_back(item.id());
      }
      client.stale += pulled.stats.items_stale;
      client.node.on_sync_delivered(pulled.delivered, SimTime(0));
      client.pull_bytes += static_cast<double>(pulled.stats.request_bytes +
                                               pulled.stats.batch_bytes +
                                               outcome.overhead_bytes);
      client.pull_items += static_cast<double>(pulled.stats.items_sent);
    }
  } catch (const std::exception& error) {
    ++client.failed;
    std::fprintf(stderr, "client %s: %s\n", client.address.str().c_str(),
                 error.what());
  }
  return seconds_between(start, Clock::now()) * 1e3;
}

void client_loop(Client& client, std::uint16_t port, bool traced,
                 std::uint64_t first_contact) {
  if (traced) tracing::current() = &client.tracer;
  const double cpu_before = thread_cpu_seconds();
  std::uint64_t contact = first_contact;
  for (std::size_t pair = 0; pair < kPairsPerEpoch; ++pair) {
    client.push_ms.push_back(
        run_session(client, port, net::SyncMode::Push, contact++));
    client.pull_ms.push_back(
        run_session(client, port, net::SyncMode::Pull, contact++));
  }
  client.cpu_s = thread_cpu_seconds() - cpu_before;
  tracing::current() = nullptr;
}

// ---- one epoch -------------------------------------------------------

/// Per-epoch figures; a run reports the median over its epochs, so one
/// epoch caught by a disk stall does not decide it.
struct Totals {
  std::vector<double> setup_s;
  std::vector<double> recover_ms;
  std::vector<double> attach_ms;
  std::vector<double> listen_ms;
  std::size_t sessions = 0;
  std::size_t pushes = 0;
  double bytes = 0;
  double cpu_s = 0;
  double client_cpu_s = 0;
  std::vector<double> rate;
  std::vector<double> cpu_ms;
  /// Each epoch's session latencies in ms, by kind.
  std::vector<std::vector<double>> push_ms;
  std::vector<std::vector<double>> pull_ms;

  /// The median over epochs of each epoch's q-quantile.
  [[nodiscard]] static double latency(
      const std::vector<std::vector<double>>& epochs, double q) {
    std::vector<double> per_epoch;
    for (const auto& samples : epochs)
      per_epoch.push_back(quantile(samples, q));
    return median(per_epoch);
  }
};

struct TracedTotals {
  std::size_t pushes = 0;
  std::size_t pulls = 0;
  double push_bytes = 0;
  double pull_bytes = 0;
  double pull_items = 0;
  std::int64_t sink_ns = 0;
  std::size_t fsyncs = 0;
  std::size_t wal_bytes = 0;
  std::vector<double> checkpoint_ms;
  std::size_t epochs = 0;
  std::size_t store_items_end = 0;
  std::vector<tracing::Tracer> tracers;
};

/// Fsyncs a file or directory; the copy's data must not be left for the
/// hub's first WAL fsync to flush with it.
void fsync_path(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open " + path.string());
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) throw std::runtime_error("cannot fsync " + path.string());
}

void copy_state(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
  for (const auto& entry : fs::directory_iterator(to)) fsync_path(entry.path());
  fsync_path(to);
}

void record_setup(Totals& totals, const SetupTimes& times) {
  totals.setup_s.push_back(times.total());
  totals.recover_ms.push_back(times.recover_s * 1e3);
  totals.attach_ms.push_back(times.attach_s * 1e3);
  totals.listen_ms.push_back(times.listen_s * 1e3);
}

void run_epoch(const std::string& prepared, const std::string& live,
               std::uint64_t seed, std::size_t epoch, bool traced,
               RunResult& out, Totals& totals, TracedTotals* layers) {
  copy_state(prepared, live);
  std::atomic<std::size_t> server_failures{0};
  std::vector<ItemId> acked;
  std::uint64_t live_digest = 0;
  std::vector<Client> clients;
  clients.reserve(kClients);  // client threads hold references
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back(c, seed + epoch * kClients);
  {
    Hub hub(live, server_failures);
    record_setup(totals, hub.times());
    std::optional<TimedSink> sink;
    if (traced) {
      sink.emplace(hub.durability());
      hub.replica().set_mutation_sink(&*sink);
    }
    const persist::DurabilityCounters before = hub.durability().counters();
    hub.start();

    const double cpu_before = process_cpu_seconds();
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(client_loop, std::ref(clients[c]), hub.port(),
                           traced, (c + 1) * 1'000'000'000ULL);
    }
    for (auto& thread : threads) thread.join();
    const double wall_s = seconds_between(start, Clock::now());
    const double cpu_s = process_cpu_seconds() - cpu_before;

    std::size_t sessions = 0;
    std::vector<double> push_ms;
    std::vector<double> pull_ms;
    for (Client& client : clients) {
      sessions += client.sessions;
      totals.client_cpu_s += client.cpu_s;
      totals.bytes += client.push_bytes + client.pull_bytes;
      push_ms.insert(push_ms.end(), client.push_ms.begin(),
                     client.push_ms.end());
      pull_ms.insert(pull_ms.end(), client.pull_ms.begin(),
                     client.pull_ms.end());
    }
    totals.sessions += sessions;
    totals.pushes += push_ms.size();
    totals.cpu_s += cpu_s;
    totals.rate.push_back(static_cast<double>(sessions) / wall_s);
    totals.cpu_ms.push_back(cpu_s * 1e3 / static_cast<double>(sessions));
    std::fprintf(stderr,
                 "hub epoch %zu%s: %zu sessions in %.3f s; push p50/75/90/99 "
                 "%.3f %.3f %.3f %.3f ms; pull %.3f %.3f %.3f %.3f ms\n",
                 epoch, traced ? " (traced)" : "", sessions, wall_s,
                 quantile(push_ms, 0.50), quantile(push_ms, 0.75),
                 quantile(push_ms, 0.90), quantile(push_ms, 0.99),
                 quantile(pull_ms, 0.50), quantile(pull_ms, 0.75),
                 quantile(pull_ms, 0.90), quantile(pull_ms, 0.99));
    totals.push_ms.push_back(std::move(push_ms));
    totals.pull_ms.push_back(std::move(pull_ms));
    if (layers != nullptr) {
      for (const Client& client : clients) {
        layers->pushes += client.push_ms.size();
        layers->pulls += client.pull_ms.size();
        layers->push_bytes += client.push_bytes;
        layers->pull_bytes += client.pull_bytes;
        layers->pull_items += client.pull_items;
      }
    }

    // Collect the mail still in flight once every push is in.
    for (std::size_t c = 0; c < kClients; ++c) {
      run_session(clients[c], hub.port(), net::SyncMode::Pull,
                  (c + 1) * 1'000'000'000ULL + 2 * kPairsPerEpoch);
    }
    hub.stop();
    if (sink) hub.replica().set_mutation_sink(&hub.durability());

    const persist::DurabilityCounters after = hub.durability().counters();
    if (layers != nullptr) {
      layers->fsyncs += after.wal_fsyncs - before.wal_fsyncs;
      layers->wal_bytes += after.wal_bytes_appended - before.wal_bytes_appended;
      ++layers->epochs;
      layers->store_items_end = hub.replica().store().size();
      if (sink) {
        layers->sink_ns += sink->total_ns();
        layers->checkpoint_ms.insert(layers->checkpoint_ms.end(),
                                     sink->checkpoint_ms().begin(),
                                     sink->checkpoint_ms().end());
        layers->tracers.push_back(std::move(sink->tracer()));
        for (Client& client : clients)
          layers->tracers.push_back(std::move(client.tracer));
      }
    }
    live_digest = persist::state_digest(hub.replica());
  }

  for (const Client& client : clients) {
    out.attempted += client.sessions;
    out.failed += client.failed;
    acked.insert(acked.end(), client.sent.begin(),
                 client.sent.begin() + static_cast<long>(client.acked));
    if (client.stale != 0) {
      out.check_failures.push_back(
          client.address.str() + ": " + std::to_string(client.stale) +
          " mailbox items arrived again after delivery");
    }
  }
  out.failed += server_failures.load();
  for (std::size_t c = 0; c < kClients; ++c) {
    const Client& sender = clients[(c + 1) % kClients];
    out.add_failures(checks::check_mailbox(sender.sent, clients[c].received,
                                           clients[c].address.str()));
  }
  // Restart from what the hub left on disk: it must hold every
  // acknowledged push and digest equal to the live hub.
  persist::FsEnv env(live);
  auto recovered = persist::recover(env);
  if (!recovered) {
    out.check_failures.push_back("hub state directory does not recover");
  } else {
    out.add_failures(
        checks::check_recovered(recovered->replica, live_digest, acked));
  }
}

double per(double total, double count) {
  return count > 0 ? total / count : 0.0;
}

}  // namespace

RunResult run_hub_workload(const RunArgs& args) {
  RunResult out;
  // Before any thread starts, so that the server's and the clients'
  // threads inherit it: see the file comment.
  const int cpu = pin_to_one_cpu();
  std::fprintf(stderr, "hub: %s %d\n",
               cpu >= 0 ? "every thread on CPU" : "could not pin, CPU", cpu);
  const std::string prepared = args.work_dir + "/hub-prepared";
  const std::string live = args.work_dir + "/hub-live";
  prepare_state(prepared, args.seed);

  Totals untraced;
  Totals traced_timing;
  TracedTotals layers;
  for (int i = 0; i < kExtraSetups; ++i) {
    copy_state(prepared, live);
    std::atomic<std::size_t> ignored{0};
    const Hub hub(live, ignored);
    record_setup(untraced, hub.times());
  }

  // Whole rounds only: another starts while it can end in time.
  const auto started = Clock::now();
  double round_s = 0;
  // An untimed first epoch warms the page cache, the allocator and the
  // loopback stack; its outputs are checked like any other.
  std::size_t epoch = 0;
  Totals warm_up;
  run_epoch(prepared, live, args.seed, epoch++, false, out, warm_up, nullptr);
  double peak_rss = 0;
  do {
    const auto round_start = Clock::now();
    // A traced run alternates untraced and traced epochs: whole pairs.
    run_epoch(prepared, live, args.seed, epoch++, false, out, untraced,
              args.trace ? &layers : nullptr);
    if (args.trace) {
      run_epoch(prepared, live, args.seed, epoch++, true, out, traced_timing,
                &layers);
    }
    // Each epoch frees what the last one held; read the peak at one
    // fixed point so that it does not drift with the epoch count.
    if (peak_rss == 0) peak_rss = peak_rss_mib();
    round_s = seconds_between(round_start, Clock::now());
  } while (out.check_failures.empty() &&
           seconds_between(started, Clock::now()) + round_s <= args.seconds);
  fs::remove_all(live);
  fs::remove_all(prepared);

  auto& m = out.metrics;
  const auto sessions = static_cast<double>(untraced.sessions);
  if (!args.trace) {
    m["setup_s"] = median(untraced.setup_s);
    m["contacts_per_s"] = median(untraced.rate);
    m["wire_kb_per_contact"] = per(untraced.bytes, sessions) / 1024.0;
    m["peak_rss_mb"] = peak_rss;
    m["cpu_ms_per_contact"] = median(untraced.cpu_ms);
    m["push_p50_ms"] = Totals::latency(untraced.push_ms, 0.50);
    m["push_p99_ms"] = Totals::latency(untraced.push_ms, kTailQuantile);
    m["pull_p50_ms"] = Totals::latency(untraced.pull_ms, 0.50);
    m["pull_p99_ms"] = Totals::latency(untraced.pull_ms, kTailQuantile);
    return out;
  }

  std::vector<const tracing::Tracer*> views;
  for (const auto& tracer : layers.tracers) views.push_back(&tracer);
  const auto spans = tracing::summarize(views);
  std::vector<double> connect_us;
  if (const auto it = spans.find("net.connect"); it != spans.end())
    connect_us = it->second.durations_us;
  const auto traced_pushes = static_cast<double>(traced_timing.pushes);
  const auto all_pushes = static_cast<double>(layers.pushes);

  m["persist.recover_ms"] = median(untraced.recover_ms);
  m["persist.attach_ms"] = median(untraced.attach_ms);
  m["net.server_start_ms"] = median(untraced.listen_ms);
  m["net.connect_us"] = median(connect_us);
  m["net.server_cpu_ms_per_contact"] =
      per((untraced.cpu_s - untraced.client_cpu_s) * 1e3, sessions);
  m["net.client_cpu_ms_per_contact"] =
      per(untraced.client_cpu_s * 1e3, sessions);
  m["net.push_bytes_per_session"] =
      per(layers.push_bytes, static_cast<double>(layers.pushes));
  m["net.pull_bytes_per_session"] =
      per(layers.pull_bytes, static_cast<double>(layers.pulls));
  m["net.pull_items_per_session"] =
      per(layers.pull_items, static_cast<double>(layers.pulls));
  m["persist.sink_us_per_push"] =
      per(static_cast<double>(layers.sink_ns) / 1e3, traced_pushes);
  m["persist.fsyncs_per_push"] =
      per(static_cast<double>(layers.fsyncs), all_pushes);
  m["persist.wal_bytes_per_push"] =
      per(static_cast<double>(layers.wal_bytes), all_pushes);
  m["persist.checkpoints"] =
      per(static_cast<double>(layers.checkpoint_ms.size()),
          static_cast<double>(layers.epochs) / 2.0);
  m["persist.checkpoint_ms"] = median(layers.checkpoint_ms);
  m["repl.hub_store_items_end"] =
      static_cast<double>(layers.store_items_end);
  m["trace.overhead_ratio"] =
      per(median(traced_timing.rate), median(untraced.rate));
  const std::string path = args.work_dir + "/spans-serve_durable.csv";
  out.check(tracing::write_csv(path, views), "cannot write " + path);
  return out;
}

}  // namespace perfbench

namespace perfbench {

void self_test_hub(SelfTest& test, const std::string& work_dir) {
  using namespace pfrdtn;
  const ItemId a(1);
  const ItemId b(2);
  const ItemId c(3);
  test.expect_clean(checks::check_mailbox({a, b, c}, {c, a, b}, "mailbox"),
                    "every push delivered once");
  test.expect_caught(checks::check_mailbox({a, b, c}, {a, b, b, c}, "mailbox"),
                     "a duplicated mailbox delivery");
  test.expect_caught(checks::check_mailbox({a, b, c}, {a, c}, "mailbox"),
                     "a missing mailbox delivery");

  // A durable hub takes three pushes; a copy of its state directory
  // taken before the third stands in for a recovery that lost it.
  const std::string live = work_dir + "/hub";
  const std::string stale = work_dir + "/hub-before-last-push";
  fs::remove_all(work_dir);
  std::vector<ItemId> acked;
  std::uint64_t live_digest = 0;
  {
    persist::FsEnv env(live);
    dtn::DtnNode hub{ReplicaId(kHubReplica)};
    persist::Durability durability(env);
    durability.attach(hub.replica());
    hub.set_addresses({kHubAddress}, hub_extras(), SimTime(0));
    dtn::DtnNode client{ReplicaId(kFirstClientReplica)};
    client.set_addresses({client_address(0)}, {}, SimTime(0));
    for (int push = 0; push < 3; ++push) {
      if (push == 2) fs::copy(live, stale, fs::copy_options::recursive);
      acked.push_back(client.send(client_address(0), {client_address(1)},
                                  "push " + std::to_string(push), SimTime(0)));
      repl::run_sync(client.replica(), hub.replica(), nullptr, nullptr,
                     SimTime(0));
    }
    live_digest = persist::state_digest(hub.replica());
  }
  const auto recovered_from = [&](const std::string& dir) {
    persist::FsEnv env(dir);
    auto recovered = persist::recover(env);
    if (!recovered) throw std::runtime_error("self-test: no state in " + dir);
    return checks::check_recovered(recovered->replica, live_digest, acked);
  };
  test.expect_clean(recovered_from(live),
                    "recovered hub holds every acknowledged push");
  test.expect_caught(recovered_from(stale),
                     "a recovered store missing an acknowledged push");
  fs::remove_all(work_dir);
}

}  // namespace perfbench
