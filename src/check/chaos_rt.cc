#include "check/chaos_rt.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/topology.h"
#include "harness/rt_cluster.h"
#include "runtime/nemesis_rt.h"

namespace carousel::check {
namespace {

constexpr SimTime kMs = 1'000;

/// Shared across the client driver threads and the main thread.
struct Scoreboard {
  std::atomic<int> invoked{0};
  std::atomic<int> committed{0};
  std::atomic<int> aborted{0};
  std::atomic<int> done_clients{0};
  std::atomic<bool> window_over{false};
};

/// One closed-loop driver pinned to a client's event loop. Keeps issuing
/// transactions until the invocation target is met AND the fault window
/// has closed — load must overlap every scheduled fault, not finish
/// before the first one fires.
struct RtDriver : std::enable_shared_from_this<RtDriver> {
  RtDriver(harness::RtCluster* cluster, int index,
           std::shared_ptr<Scoreboard> board,
           const std::vector<std::vector<Key>>* pool, int partitions,
           int target, uint64_t seed, uint64_t value_tag)
      : cluster(cluster),
        index(index),
        board(std::move(board)),
        pool(pool),
        partitions(partitions),
        target(target),
        rng(seed),
        value_tag(value_tag) {}

  harness::RtCluster* cluster;
  int index;
  std::shared_ptr<Scoreboard> board;
  const std::vector<std::vector<Key>>* pool;
  int partitions;
  int target;
  Rng rng;
  uint64_t value_tag;
  uint64_t seq = 0;

  void Next() {
    if (board->invoked.load() >= target) {
      if (board->window_over.load()) {
        board->done_clients.fetch_add(1);
        return;
      }
      // Target met but faults are still firing: drop to a paced trickle
      // so every fault lands under load without ballooning the history
      // (and the checker's input) with tens of thousands of transactions.
      auto self = shared_from_this();
      cluster->rt()
          .loop(cluster->client(index)->id())
          ->Schedule(10 * kMs, [self]() { self->Issue(); });
      return;
    }
    Issue();
  }

  void Issue() {
    board->invoked.fetch_add(1);
    core::CarouselClient* client = cluster->client(index);
    auto self = shared_from_this();

    // Pick two distinct partitions when there are two to pick.
    const int p1 = static_cast<int>(rng.UniformInt(0, partitions - 1));
    const int p2 = partitions == 1
                       ? p1
                       : (p1 + 1 +
                          static_cast<int>(rng.UniformInt(0, partitions - 2))) %
                             partitions;
    const Key read1 = Pick(p1), read2 = Pick(p2);
    const double shape = rng.NextDouble();
    const TxnId tid = client->Begin();

    if (shape < 0.2) {
      // Read-only.
      client->ReadAndPrepare(
          tid, {read1, read2}, {},
          [self](Status status, const core::CarouselClient::ReadResults&) {
            if (status.ok()) {
              self->board->committed.fetch_add(1);
            } else {
              self->board->aborted.fetch_add(1);
            }
            self->Next();
          });
      return;
    }

    const Key write1 = Pick(p1), write2 = Pick(p2);
    const Value value = "s" + std::to_string(value_tag) + "c" +
                        std::to_string(index) + "t" + std::to_string(seq++);
    const bool voluntary_abort = rng.Bernoulli(0.03);
    client->ReadAndPrepare(
        tid, {read1, read2}, {write1, write2},
        [self, client, tid, write1, write2, value, voluntary_abort](
            Status status, const core::CarouselClient::ReadResults&) {
          if (!status.ok()) {
            self->board->aborted.fetch_add(1);
            self->Next();
            return;
          }
          if (voluntary_abort) {
            client->Abort(tid);
            self->board->aborted.fetch_add(1);
            self->Next();
            return;
          }
          client->Write(tid, write1, value);
          client->Write(tid, write2, value);
          client->Commit(tid, [self](Status commit_status) {
            if (commit_status.ok()) {
              self->board->committed.fetch_add(1);
            } else {
              self->board->aborted.fetch_add(1);
            }
            self->Next();
          });
        });
  }

 private:
  Key Pick(int partition) {
    const auto& keys = (*pool)[partition];
    return keys[rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1)];
  }
};

std::vector<std::vector<Key>> BuildKeyPools(const core::Directory& directory,
                                            int partitions,
                                            int keys_per_partition) {
  std::vector<std::vector<Key>> pool(partitions);
  int filled = 0;
  for (int i = 0; filled < partitions && i < 100000; ++i) {
    const Key key = "rck" + std::to_string(i);
    auto& bucket = pool[directory.PartitionFor(key)];
    if (static_cast<int>(bucket.size()) < keys_per_partition) {
      bucket.push_back(key);
      if (static_cast<int>(bucket.size()) == keys_per_partition) ++filled;
    }
  }
  return pool;
}

bool IsPrefix(const std::vector<TxnId>& prefix,
              const std::vector<TxnId>& full) {
  if (prefix.size() > full.size()) return false;
  return std::equal(prefix.begin(), prefix.end(), full.begin());
}

}  // namespace

RtChaosResult RunRtChaosSeed(const RtChaosConfig& config) {
  RtChaosResult result;
  result.seed = config.seed;
  Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 0x5eed);

  // ---- Sample the deployment ----
  const int num_dcs = 3;
  const int replication = 3;
  const int partitions = static_cast<int>(rng.UniformInt(2, 3));
  const int clients_per_dc = static_cast<int>(rng.UniformInt(1, 2));
  const int keys_per_partition = static_cast<int>(rng.UniformInt(4, 8));
  Topology topo = Topology::Uniform(num_dcs, /*inter_dc_rtt_ms=*/1);
  topo.PlacePartitions(partitions, replication);
  for (DcId dc = 0; dc < num_dcs; ++dc) {
    for (int i = 0; i < clients_per_dc; ++i) topo.AddClient(dc);
  }

  // RT-scaled timers: these run against the wall clock, so they sit well
  // below the multi-second run window but far above scheduler jitter.
  core::CarouselOptions options;
  options.fast_path = rng.Bernoulli(0.75);
  options.local_reads = options.fast_path && rng.Bernoulli(0.5);
  // Half the seeds run with egress batching so BatchEnvelopeMsg rides
  // real sockets (TCP seeds) and real loop timers under faults, not just
  // the simulator. The 50 us flush window exercises the scheduled-flush
  // path; carousel_rt covers the flush-on-idle (interval 0) shape.
  options.batching.enabled = rng.Bernoulli(0.5);
  options.raft.election_timeout_min = 150 * kMs;
  options.raft.election_timeout_max = 300 * kMs;
  options.raft.heartbeat_interval = 40 * kMs;
  options.heartbeat_interval = 100 * kMs;
  options.client_retry_timeout = 600 * kMs;
  options.coordinator_retry_interval = 500 * kMs;
  options.pending_gc_interval = 2'000 * kMs;

  const int schedule_class = static_cast<int>(config.seed % 4);
  {
    std::ostringstream setup;
    setup << "dcs=" << num_dcs << " partitions=" << partitions
          << " replication=" << replication
          << " clients=" << clients_per_dc * num_dcs
          << " keys/partition=" << keys_per_partition
          << " fast_path=" << options.fast_path
          << " local_reads=" << options.local_reads
          << " batching=" << options.batching.enabled
          << " class=" << schedule_class
          << (config.use_tcp ? " transport=tcp" : " transport=inproc");
    result.setup = setup.str();
  }

  // ---- Durable storage root for this seed ----
  result.storage_dir =
      config.storage_root + "/seed-" + std::to_string(config.seed);
  std::error_code ec;
  std::filesystem::remove_all(result.storage_dir, ec);  // Stale previous run.

  harness::RtClusterOptions rt_options;
  rt_options.use_tcp = config.use_tcp;
  rt_options.seed = config.seed;
  rt_options.storage_dir = result.storage_dir;
  harness::RtCluster cluster(std::move(topo), options, rt_options);

  HistoryRecorder* history = &result.history;
  cluster.AttachHistory(history);
  if (!cluster.Start(/*timeout_ms=*/20000)) {
    result.start_failed = true;
    std::filesystem::remove_all(result.storage_dir, ec);
    return result;
  }

  const std::vector<std::vector<Key>> pool =
      BuildKeyPools(cluster.directory(), partitions, keys_per_partition);

  // ---- Sample the fault timeline ----
  // The window is when faults may fire; the workload keeps running until
  // it closes AND the invocation target is met, so every fault lands
  // under load.
  const SimTime window = 3'500 * kMs;
  runtime::RtNemesis::Hooks hooks;
  hooks.kill = [&cluster](NodeId id) { return cluster.KillServer(id); };
  hooks.restart = [&cluster](NodeId id) { return cluster.RestartServer(id); };
  runtime::RtNemesis nemesis(&cluster.rt(), hooks);

  auto sample_server = [&](PartitionId p) {
    const auto& replicas = cluster.topology().Replicas(p);
    return replicas[rng.UniformInt(0,
                                   static_cast<int>(replicas.size()) - 1)];
  };
  auto add_kill_episode = [&](SimTime earliest) {
    const PartitionId p =
        static_cast<PartitionId>(rng.UniformInt(0, partitions - 1));
    const NodeId node = sample_server(p);
    const SimTime start = earliest + rng.UniformInt(0, 800 * kMs);
    const SimTime dur = rng.UniformInt(600 * kMs, 1'500 * kMs);
    nemesis.KillAt(start, node);
    nemesis.RestartAt(start + dur, node);
  };
  auto add_dc_partition = [&](SimTime earliest) {
    const DcId a = static_cast<DcId>(rng.UniformInt(0, num_dcs - 1));
    DcId b = static_cast<DcId>(rng.UniformInt(0, num_dcs - 2));
    if (b >= a) b++;
    std::vector<NodeId> side_a, side_b;
    for (const NodeInfo& info : cluster.topology().nodes()) {
      if (info.dc == a) side_a.push_back(info.id);
      if (info.dc == b) side_b.push_back(info.id);
    }
    const SimTime start = earliest + rng.UniformInt(0, 700 * kMs);
    const SimTime dur = rng.UniformInt(500 * kMs, 1'200 * kMs);
    nemesis.PartitionAt(start, side_a, side_b);
    nemesis.HealPartitionAt(start + dur, side_a, side_b);
  };

  switch (schedule_class) {
    case 0: {
      // Kill-heavy: sequential kill/restart episodes, including one that
      // lands mid-prepare with near-certainty because load is continuous.
      add_kill_episode(300 * kMs);
      add_kill_episode(1'600 * kMs);
      break;
    }
    case 1: {
      // Partition-heavy: DC cuts, the second landing while CPC traffic
      // from the first heal is still settling.
      add_dc_partition(300 * kMs);
      if (rng.Bernoulli(0.6)) add_dc_partition(1'700 * kMs);
      break;
    }
    case 2: {
      // Combo: a DC cut overlapping a server kill. The killed node hosts
      // coordinators for every client that picked it, so in-flight CPC
      // rounds lose their coordinator before the decision.
      add_dc_partition(400 * kMs);
      add_kill_episode(900 * kMs);
      break;
    }
    default: {
      // Link faults: asymmetric delay/drop on a handful of server links.
      const int nlinks = static_cast<int>(rng.UniformInt(2, 4));
      for (int i = 0; i < nlinks; ++i) {
        const PartitionId p =
            static_cast<PartitionId>(rng.UniformInt(0, partitions - 1));
        const NodeId a = sample_server(p);
        NodeId b = sample_server(p);
        if (a == b) continue;
        runtime::ThreadedRuntime::LinkFault fault;
        fault.delay = rng.UniformInt(10 * kMs, 60 * kMs);
        fault.drop_prob = 0.05 + 0.20 * rng.NextDouble();
        nemesis.LinkFaultAt(300 * kMs + rng.UniformInt(0, 500 * kMs), a, b,
                            fault);
        nemesis.HealLinkAt(2'000 * kMs + rng.UniformInt(0, 800 * kMs), a, b);
      }
      break;
    }
  }
  nemesis.HealAllAt(window);
  result.nemesis_schedule = nemesis.Describe();

  // ---- Run: workload + faults ----
  auto board = std::make_shared<Scoreboard>();
  const int num_clients = static_cast<int>(cluster.num_clients());
  const int target = std::max(config.txns, 1);
  std::vector<std::shared_ptr<RtDriver>> drivers;
  for (int i = 0; i < num_clients; ++i) {
    drivers.push_back(std::make_shared<RtDriver>(
        &cluster, i, board, &pool, partitions, target,
        /*seed=*/config.seed * 131 + 1000 + 31 * i, config.seed));
  }
  for (int i = 0; i < num_clients; ++i) {
    auto driver = drivers[i];
    cluster.RunOnClient(i, [driver]() { driver->Next(); });
  }
  nemesis.Start();
  nemesis.Join();
  board->window_over.store(true);

  // Drivers drain once the target is met; the deadline is generous
  // because sanitizer builds slow everything by an order of magnitude.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(240);
  while (board->done_clients.load() < num_clients &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Quiesce: let in-flight writebacks land, make sure every partition is
  // serving again (leaders re-elected after the last heal), then join
  // every thread so server state is plain memory.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  cluster.WaitUntilServing(/*timeout_ms=*/15000);
  result.txns_invoked = static_cast<size_t>(board->invoked.load());
  result.kills_fired = nemesis.kills_fired();
  result.restarts_fired = cluster.restarts();
  result.partitions_fired = nemesis.partitions_fired();
  result.link_faults_fired = nemesis.link_faults_fired();
  result.fault_dropped_messages = cluster.rt().fault_dropped_messages();
  result.recovered_log_entries = cluster.recovered_log_entries();
  result.recovered_pending = cluster.recovered_pending();
  const bool drivers_done = board->done_clients.load() == num_clients;
  cluster.Stop();

  if (!drivers_done) {
    result.check.violations.push_back(
        Violation{"liveness",
                  "drivers stalled: " + std::to_string(board->invoked.load()) +
                      " invoked, " + std::to_string(board->committed.load()) +
                      " committed after deadline",
                  {}});
  }

  // ---- Extract ground truth and cross-check replicas ----
  for (PartitionId p = 0; p < partitions; ++p) {
    std::map<Key, std::vector<const std::vector<TxnId>*>> per_key;
    for (NodeId id : cluster.topology().Replicas(p)) {
      core::CarouselServer* server = cluster.server(id);
      if (server == nullptr) continue;  // Dead at teardown (stalled run).
      for (const auto& [key, chain] : server->store().writer_log()) {
        per_key[key].push_back(&chain);
      }
    }
    for (auto& [key, candidates] : per_key) {
      const std::vector<TxnId>* longest = candidates.front();
      for (const auto* c : candidates) {
        if (c->size() > longest->size()) longest = c;
      }
      for (const auto* c : candidates) {
        if (!IsPrefix(*c, *longest)) {
          result.check.violations.push_back(Violation{
              "replica-divergence",
              "replicas of partition " + std::to_string(p) +
                  " disagree on the write order of '" + key + "'",
              {}});
          break;
        }
      }
      result.chains[key] = *longest;
    }
  }

  // ---- Certify ----
  CheckResult check = CheckSerializability(result.history, result.chains);
  for (Violation& v : check.violations) {
    result.check.violations.push_back(std::move(v));
  }
  result.check.committed = check.committed;
  result.check.aborted = check.aborted;
  result.check.indeterminate = check.indeterminate;
  result.check.edges = check.edges;

  if (result.ok() && !config.keep_storage) {
    std::filesystem::remove_all(result.storage_dir, ec);
  }
  return result;
}

std::string RtChaosResult::Summary() const {
  std::ostringstream out;
  out << "seed " << seed << ": "
      << (start_failed ? "SKIP (transport unavailable)"
                       : (ok() ? "OK" : "FAIL"))
      << " (" << check.committed << " committed, " << check.aborted
      << " aborted, " << check.indeterminate << " indeterminate, "
      << kills_fired << " kills, " << restarts_fired << " restarts, "
      << partitions_fired << " partitions, " << link_faults_fired
      << " link-faults, " << fault_dropped_messages << " fault-dropped, "
      << recovered_log_entries << " recovered-entries, " << recovered_pending
      << " recovered-pins, " << check.edges << " edges";
  if (!start_failed && !ok()) {
    out << ", " << check.violations.size() << " VIOLATIONS";
  }
  out << ")";
  return out.str();
}

std::string RtChaosResult::Report() const {
  std::ostringstream out;
  out << "==== rt chaos seed " << seed << " ====\n"
      << "setup: " << setup << "\n"
      << "fault timeline:\n"
      << nemesis_schedule << Summary() << "\n"
      << "storage: " << storage_dir << "\n"
      << check.Report(history);
  return out.str();
}

}  // namespace carousel::check
