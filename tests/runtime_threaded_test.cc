// Loopback smoke tests for the threaded runtime (backend #2 of the
// runtime seam): a full Carousel deployment on real threads — and, in the
// TCP variant, real sockets with every message round-tripped through the
// wire codec — driven closed-loop until well over a thousand
// multi-partition transactions commit, then certified with the same
// serializability checker the simulator's chaos harness uses — plus the
// worker-pool contract on minimal endpoints: worker count, per-node
// exclusivity and pinning, per-sender FIFO, and kill/restart epochs.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "carousel/client.h"
#include "carousel/server.h"
#include "check/history.h"
#include "check/serializability.h"
#include "common/rng.h"
#include "common/topology.h"
#include "harness/rt_cluster.h"
#include "runtime/threaded.h"
#include "sim/message.h"
#include "test_util.h"

namespace carousel::test {
namespace {

constexpr int kPartitions = 3;
constexpr int kKeysPerPartition = 8;
constexpr int kTargetCommits = 1100;

bool IsPrefix(const std::vector<TxnId>& prefix, const std::vector<TxnId>& of) {
  if (prefix.size() > of.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (!(prefix[i] == of[i])) return false;
  }
  return true;
}

// Shared across client drivers; everything here is touched from several
// loop threads.
struct Scoreboard {
  std::atomic<int> committed{0};
  std::atomic<int> aborted{0};
  std::atomic<int> done_clients{0};
};

// One closed-loop transaction driver pinned to a client's loop thread.
// Every transaction reads one key and writes one key in each of two
// distinct partitions, so the whole workload is multi-partition. All
// methods (after the kickoff Post) run on the client's own loop thread;
// only the Scoreboard crosses threads.
struct Driver : std::enable_shared_from_this<Driver> {
  Driver(harness::RtCluster* cluster, int index,
         std::shared_ptr<Scoreboard> board,
         const std::vector<std::vector<Key>>* pool, uint64_t seed,
         int target = kTargetCommits)
      : cluster(cluster),
        index(index),
        board(std::move(board)),
        pool(pool),
        rng(seed),
        target(target) {}

  harness::RtCluster* cluster;
  int index;
  std::shared_ptr<Scoreboard> board;
  const std::vector<std::vector<Key>>* pool;
  Rng rng;
  int target;
  uint64_t seq = 0;

  void Next() {
    if (board->committed.load() >= target) {
      board->done_clients.fetch_add(1);
      return;
    }
    core::CarouselClient* client = cluster->client(index);
    const int p1 = static_cast<int>(rng.UniformInt(0, kPartitions - 1));
    const int p2 =
        (p1 + 1 + static_cast<int>(rng.UniformInt(0, kPartitions - 2))) %
        kPartitions;
    const Key read1 = Pick(p1), read2 = Pick(p2);
    const Key write1 = Pick(p1), write2 = Pick(p2);
    const Value value = "c" + std::to_string(index) + "-" +
                        std::to_string(seq++);

    const TxnId tid = client->Begin();
    auto self = shared_from_this();
    client->ReadAndPrepare(
        tid, {read1, read2}, {write1, write2},
        [self, client, tid, write1, write2, value](
            Status status, const core::CarouselClient::ReadResults&) {
          if (!status.ok()) {
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

// Buckets probe keys by partition until every partition has a small pool;
// consistent hashing is pure, so this is safe off the loop threads.
std::vector<std::vector<Key>> BuildKeyPools(const core::Directory& directory) {
  std::vector<std::vector<Key>> pool(kPartitions);
  int filled = 0;
  for (int i = 0; filled < kPartitions && i < 100000; ++i) {
    const Key key = "rtk" + std::to_string(i);
    auto& bucket = pool[directory.PartitionFor(key)];
    if (bucket.size() < kKeysPerPartition) {
      bucket.push_back(key);
      if (bucket.size() == kKeysPerPartition) ++filled;
    }
  }
  return pool;
}

void RunSmoke(bool use_tcp) {
  Topology topo = Topology::Uniform(/*num_dcs=*/3, /*inter_dc_rtt_ms=*/1);
  topo.PlacePartitions(kPartitions, /*replication_factor=*/3);
  for (DcId dc = 0; dc < 3; ++dc) topo.AddClient(dc);

  harness::RtClusterOptions rt_options;
  rt_options.use_tcp = use_tcp;
  rt_options.seed = use_tcp ? 7 : 3;
  // FastRaftOptions timer values are microseconds; on the threaded
  // backend's monotonic clock they are *real* microseconds, which is why
  // the shrunk test timers (60ms heartbeats, 300–600ms elections) suit a
  // wall-clock run.
  harness::RtCluster cluster(std::move(topo), FastRaftOptions(), rt_options);

  check::HistoryRecorder history;
  cluster.AttachHistory(&history);

  if (!cluster.Start(/*timeout_ms=*/20000)) {
    if (use_tcp) GTEST_SKIP() << "TCP transport unavailable in this sandbox";
    FAIL() << "in-process threaded cluster failed to start";
  }

  const std::vector<std::vector<Key>> pool =
      BuildKeyPools(cluster.directory());
  for (const auto& bucket : pool) ASSERT_EQ(bucket.size(), kKeysPerPartition);

  auto board = std::make_shared<Scoreboard>();
  const int num_clients = static_cast<int>(cluster.num_clients());
  std::vector<std::shared_ptr<Driver>> drivers;
  for (int i = 0; i < num_clients; ++i) {
    drivers.push_back(std::make_shared<Driver>(
        &cluster, i, board, &pool, /*seed=*/1000 + 31 * i + (use_tcp ? 7 : 0)));
  }
  for (int i = 0; i < num_clients; ++i) {
    auto driver = drivers[i];
    cluster.RunOnClient(i, [driver]() { driver->Next(); });
  }

  // Closed loop: each driver stops once the shared commit target is met.
  // The timeout is generous because TSan slows the run by an order of
  // magnitude.
  PollUntil(
      [&] { return board->done_clients.load() >= num_clients; },
      std::chrono::seconds(300));
  ASSERT_EQ(board->done_clients.load(), num_clients)
      << "drivers stalled: committed=" << board->committed.load()
      << " aborted=" << board->aborted.load()
      << " dropped=" << cluster.dropped_messages();

  // Let in-flight writebacks and coordinator decisions settle (message
  // traffic stops moving once they land), then join every thread — after
  // Stop() the server state is plain memory.
  PollUntilQuiescent([&] { return cluster.posted_messages(); },
                     std::chrono::milliseconds(200),
                     std::chrono::seconds(30));
  cluster.Stop();

  EXPECT_GE(board->committed.load(), 1000);

  // Ground truth: per key, the longest writer chain across a partition's
  // replicas; with no faults injected every replica must hold a prefix of
  // it (same extraction as the chaos harness).
  check::WriterChains chains;
  for (PartitionId p = 0; p < kPartitions; ++p) {
    std::map<Key, std::vector<const std::vector<TxnId>*>> per_key;
    for (NodeId id : cluster.topology().Replicas(p)) {
      core::CarouselServer* server = cluster.server(id);
      ASSERT_NE(server, nullptr);
      for (const auto& [key, chain] : server->store().writer_log()) {
        per_key[key].push_back(&chain);
      }
    }
    for (auto& [key, candidates] : per_key) {
      const std::vector<TxnId>* longest = candidates.front();
      for (const auto* chain : candidates) {
        if (chain->size() > longest->size()) longest = chain;
      }
      for (const auto* chain : candidates) {
        EXPECT_TRUE(IsPrefix(*chain, *longest))
            << "replicas of partition " << p
            << " disagree on the write order of '" << key << "'";
      }
      chains[key] = *longest;
    }
  }

  const check::CheckResult result = check::CheckSerializability(history, chains);
  EXPECT_TRUE(result.ok()) << result.violations.size() << " violations; first: "
                           << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().description);
  EXPECT_GE(result.committed, 1000);
}

TEST(ThreadedRuntimeSmoke, InProcessClusterCommitsAndSerializes) {
  RunSmoke(/*use_tcp=*/false);
}

TEST(ThreadedRuntimeSmoke, TcpClusterCommitsAndSerializes) {
  RunSmoke(/*use_tcp=*/true);
}

// Regression for the TCP listener port plan: every node binds port 0 and
// lets the OS pick, and peers learn the real ports through the runtime's
// address exchange — there is no fixed port range to collide on. Two full
// TCP clusters must therefore coexist in one process. (A fixed-base port
// scheme fails exactly this test: the second cluster's binds collide with
// the first's.)
TEST(ThreadedRuntimeSmoke, TwoTcpClustersCoexistOnOsAssignedPorts) {
  constexpr int kSmallTarget = 60;
  struct Deployment {
    std::unique_ptr<harness::RtCluster> cluster;
    std::shared_ptr<Scoreboard> board = std::make_shared<Scoreboard>();
    std::vector<std::vector<Key>> pool;
    std::vector<std::shared_ptr<Driver>> drivers;
  };
  Deployment deployments[2];

  for (int d = 0; d < 2; ++d) {
    Topology topo = Topology::Uniform(/*num_dcs=*/3, /*inter_dc_rtt_ms=*/1);
    topo.PlacePartitions(kPartitions, /*replication_factor=*/3);
    topo.AddClient(/*dc=*/0);
    harness::RtClusterOptions rt_options;
    rt_options.use_tcp = true;
    rt_options.seed = 40 + d;
    deployments[d].cluster = std::make_unique<harness::RtCluster>(
        std::move(topo), FastRaftOptions(), rt_options);
    // Both sets of listeners are bound and running before any workload:
    // with a fixed port plan the second Start() would fail right here.
    if (!deployments[d].cluster->Start(/*timeout_ms=*/20000)) {
      GTEST_SKIP() << "TCP transport unavailable in this sandbox";
    }
  }

  for (int d = 0; d < 2; ++d) {
    Deployment& dep = deployments[d];
    dep.pool = BuildKeyPools(dep.cluster->directory());
    const int num_clients = static_cast<int>(dep.cluster->num_clients());
    for (int i = 0; i < num_clients; ++i) {
      dep.drivers.push_back(std::make_shared<Driver>(
          dep.cluster.get(), i, dep.board, &dep.pool, /*seed=*/500 + 13 * d + i,
          kSmallTarget));
    }
    for (int i = 0; i < num_clients; ++i) {
      auto driver = dep.drivers[i];
      dep.cluster->RunOnClient(i, [driver]() { driver->Next(); });
    }
  }

  for (int d = 0; d < 2; ++d) {
    Deployment& dep = deployments[d];
    const int num_clients = static_cast<int>(dep.cluster->num_clients());
    PollUntil(
        [&] { return dep.board->done_clients.load() >= num_clients; },
        std::chrono::seconds(120));
    EXPECT_EQ(dep.board->done_clients.load(), num_clients)
        << "cluster " << d << " stalled: committed="
        << dep.board->committed.load();
    EXPECT_GE(dep.board->committed.load(), kSmallTarget);
  }
  for (int d = 0; d < 2; ++d) deployments[d].cluster->Stop();
}

// ---------------------------------------------------------------------------
// The M:N contract, on minimal endpoints: a runtime with more nodes than
// workers, so some nodes share a worker and (with two or more CPUs) others
// do not.
// ---------------------------------------------------------------------------

size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(CPU_COUNT(&set));
}

struct SeqMsg final : sim::Message {
  explicit SeqMsg(uint64_t seq) : seq(seq) {}
  uint64_t seq;
  int type() const override { return sim::kPing; }
  size_t SizeBytes() const override { return sizeof(seq); }
};

// Checks, from inside every handler, task and timer of one node, that no
// other code of that node is running and that it always runs on the same
// thread. Fields other than the atomics are touched only inside those
// sections, so an overlap would also be a data race under TSan.
struct Exclusivity {
  std::atomic<bool> busy{false};
  std::atomic<int> overlaps{0};
  std::thread::id thread;
  int migrations = 0;

  struct Section {
    explicit Section(Exclusivity* e) : e(e) {
      if (e->busy.exchange(true)) e->overlaps.fetch_add(1);
      const std::thread::id me = std::this_thread::get_id();
      if (e->thread == std::thread::id()) {
        e->thread = me;
      } else if (e->thread != me) {
        e->migrations++;
      }
    }
    ~Section() { e->busy.store(false); }
    Exclusivity* e;
  };
};

// Sends sequence number r to every other node in round r, alternating
// between a posted task and a zero-delay timer to reach the next round, and
// checks that each sender's numbers arrive in order.
struct FloodNode final : runtime::Endpoint {
  FloodNode(NodeId id, size_t nodes, uint64_t rounds)
      : Endpoint(id, /*dc=*/0), nodes(nodes), rounds(rounds), next(nodes, 0) {}

  void HandleMessage(NodeId from, const runtime::MessagePtr& msg) override {
    Exclusivity::Section section(&exclusive);
    const uint64_t seq = static_cast<const SeqMsg&>(*msg).seq;
    if (seq != next[from]) out_of_order++;
    next[from] = seq + 1;
    received.fetch_add(1);
  }

  void Round(uint64_t r) {
    Exclusivity::Section section(&exclusive);
    for (NodeId peer = 0; peer < static_cast<NodeId>(nodes); ++peer) {
      if (peer != id()) Send(peer, std::make_shared<SeqMsg>(r));
    }
    if (r + 1 == rounds) return;
    if (r % 2 == 0) {
      loop->Post([this, r]() { Round(r + 1); });
    } else {
      Schedule(0, [this, r]() { Round(r + 1); });
    }
  }

  const size_t nodes;
  const uint64_t rounds;
  runtime::EventLoop* loop = nullptr;
  Exclusivity exclusive;
  std::vector<uint64_t> next;
  int out_of_order = 0;
  std::atomic<uint64_t> received{0};
};

TEST(ThreadedRuntimeWorkers, CountIsMinOfNodesAndAffinityCpus) {
  const size_t cpus = AffinityCpus();
  for (size_t nodes : {size_t{1}, cpus, cpus + 1, 3 * cpus + 2}) {
    runtime::ThreadedRuntime rt(nodes, {});
    EXPECT_EQ(rt.num_workers(), std::min(nodes, cpus)) << nodes << " nodes";
  }
  // The count follows the affinity mask (as under taskset), not the number
  // of online CPUs.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  {
    runtime::ThreadedRuntime rt(3 * cpus + 2, {});
    EXPECT_EQ(rt.num_workers(), 1u);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
}

TEST(ThreadedRuntimeWorkers, FloodKeepsPerSenderFifoAndNodeExclusivity) {
  const size_t workers = AffinityCpus();
  const size_t nodes = workers + 3;  // Workers 0..2 serve two nodes each.
  constexpr uint64_t kRounds = 200;
  std::vector<std::unique_ptr<FloodNode>> eps;  // Outlive the runtime.
  runtime::ThreadedRuntime rt(nodes, {});
  ASSERT_EQ(rt.num_workers(), std::min(nodes, workers));
  for (size_t i = 0; i < nodes; ++i) {
    eps.push_back(
        std::make_unique<FloodNode>(static_cast<NodeId>(i), nodes, kRounds));
    eps.back()->loop = rt.loop(static_cast<NodeId>(i));
    rt.Register(eps.back().get());
  }
  ASSERT_TRUE(rt.Start());
  for (auto& ep : eps) {
    FloodNode* node = ep.get();
    rt.loop(node->id())->Post([node]() { node->Round(0); });
  }
  const uint64_t want = (nodes - 1) * kRounds;
  EXPECT_TRUE(PollUntil(
      [&] {
        for (auto& ep : eps) {
          if (ep->received.load() < want) return false;
        }
        return true;
      },
      std::chrono::seconds(120)));
  rt.Stop();

  EXPECT_EQ(rt.dropped_messages(), 0u);
  for (size_t i = 0; i < nodes; ++i) {
    const FloodNode& node = *eps[i];
    EXPECT_EQ(node.received.load(), want) << "node " << i;
    EXPECT_EQ(node.out_of_order, 0) << "node " << i;
    EXPECT_EQ(node.exclusive.overlaps.load(), 0) << "node " << i;
    EXPECT_EQ(node.exclusive.migrations, 0) << "node " << i;
    // Pinned: node i runs on worker i mod W, one thread per worker.
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(node.exclusive.thread == eps[j]->exclusive.thread,
                i % rt.num_workers() == j % rt.num_workers())
          << "nodes " << j << " and " << i;
    }
  }
}

// Counts everything a node runs. Tasks and timers hold the tally, not the
// endpoint, so a victim's work can be counted after its endpoint is gone.
struct Tally {
  std::atomic<uint64_t> handled{0};
  std::atomic<uint64_t> tasks{0};
  std::atomic<uint64_t> timers{0};

  uint64_t total() const { return handled + tasks + timers; }
};

// Keeps its worker busy: a self-reposting task chain, a 200 us timer
// chain, and on every timer a message to each node in `targets`.
struct BusyNode final : runtime::Endpoint {
  BusyNode(NodeId id, runtime::EventLoop* loop, std::vector<NodeId> targets)
      : Endpoint(id, /*dc=*/0), loop(loop), targets(std::move(targets)) {}

  void HandleMessage(NodeId, const runtime::MessagePtr&) override {
    tally->handled.fetch_add(1);
  }

  void Kick() {
    PostChain(loop, tally);
    TimerChain();
  }

  static void PostChain(runtime::EventLoop* loop, std::shared_ptr<Tally> t) {
    t->tasks.fetch_add(1);
    loop->Post([loop, t]() { PostChain(loop, t); });
  }

  void TimerChain() {
    tally->timers.fetch_add(1);
    for (NodeId to : targets) Send(to, std::make_shared<SeqMsg>(0));
    Schedule(200, [this]() { TimerChain(); });
  }

  runtime::EventLoop* loop;
  std::vector<NodeId> targets;
  std::shared_ptr<Tally> tally = std::make_shared<Tally>();
};

TEST(ThreadedRuntimeWorkers, StopNodeSilencesOnlyTheVictimAndRestartDropsDeadWork) {
  const size_t workers = AffinityCpus();
  const size_t nodes = workers + 2;
  std::vector<std::unique_ptr<BusyNode>> eps;  // Outlive the runtime.
  runtime::ThreadedRuntime rt(nodes, {});
  const NodeId victim = 0;
  const NodeId mate = static_cast<NodeId>(rt.num_workers());  // Same worker.
  ASSERT_LT(static_cast<size_t>(mate), nodes);

  // Every node floods the victim and its worker mate.
  for (size_t i = 0; i < nodes; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    std::vector<NodeId> targets;
    if (id != victim) targets.push_back(victim);
    if (id != mate) targets.push_back(mate);
    eps.push_back(std::make_unique<BusyNode>(id, rt.loop(id), targets));
    rt.Register(eps.back().get());
  }
  ASSERT_TRUE(rt.Start());
  for (auto& ep : eps) {
    BusyNode* node = ep.get();
    rt.loop(node->id())->Post([node]() { node->Kick(); });
  }
  const std::shared_ptr<Tally> old_life = eps[victim]->tally;
  ASSERT_TRUE(PollUntil(
      [&] {
        return old_life->handled > 50 && old_life->tasks > 50 &&
               old_life->timers > 20;
      },
      std::chrono::seconds(60)));

  // The kill, as RtCluster::KillServer does it: stop, then destroy the
  // endpoint at once. From here on no code of the victim may run.
  rt.StopNode(victim);
  const uint64_t ran_at_stop = old_life->total();
  eps[victim].reset();
  EXPECT_TRUE(rt.node_stopped(victim));

  // Messages to the dead node are counted drops, and its worker mate keeps
  // serving.
  const uint64_t dropped_at_stop = rt.loop(victim)->dropped_messages();
  const uint64_t mate_handled = eps[mate]->tally->handled;
  EXPECT_TRUE(PollUntil(
      [&] {
        return rt.loop(victim)->dropped_messages() > dropped_at_stop + 50 &&
               eps[mate]->tally->handled > mate_handled + 50;
      },
      std::chrono::seconds(60)));

  // Work posted to the dead node must never run, not even after the
  // restart: one task, one timer due at once and one due after the
  // restart (which the reborn node's 100 timer ticks outlast).
  auto dead_ran = std::make_shared<std::atomic<int>>(0);
  runtime::EventLoop* loop = rt.loop(victim);
  loop->Post([dead_ran]() { dead_ran->fetch_add(1); });
  loop->Schedule(0, [dead_ran]() { dead_ran->fetch_add(1); });
  loop->Schedule(20'000, [dead_ran]() { dead_ran->fetch_add(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(old_life->total(), ran_at_stop)
      << "the victim ran code after StopNode returned";

  std::vector<NodeId> targets = {mate};
  eps[victim] = std::make_unique<BusyNode>(victim, loop, targets);
  BusyNode* reborn = eps[victim].get();
  rt.RestartNode(reborn);
  EXPECT_FALSE(rt.node_stopped(victim));
  loop->Post([reborn]() { reborn->Kick(); });
  EXPECT_TRUE(PollUntil(
      [&] { return reborn->tally->handled > 50 && reborn->tally->timers > 100; },
      std::chrono::seconds(60)));
  rt.Stop();

  EXPECT_EQ(dead_ran->load(), 0) << "work posted while dead ran";
  EXPECT_EQ(old_life->total(), ran_at_stop);
}

}  // namespace
}  // namespace carousel::test
