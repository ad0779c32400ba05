// carousel_rt — real-time experiment driver on the threaded runtime.
//
// Boots a full Carousel deployment on the threaded backend of the runtime
// seam (every node's event loop on a pool of one worker thread per CPU in
// the affinity mask; optionally localhost TCP with the wire codec) and
// drives it closed-loop with a workload mix, printing committed/aborted
// counts, wall-clock latency percentiles, and the process's CPU time and
// context switches per committed transaction over the load phase
// (getrusage deltas). Unlike carousel_sim this measures the
// implementation on real threads and sockets, so numbers vary run to run
// with the machine. Examples:
//
//   carousel_rt --transport=inproc --txns=5000
//   carousel_rt --transport=tcp --workload=ycsbt --dcs=3 --partitions=5
//               --clients-per-dc=4 --json=BENCH_rt_smoke.json
//
// Flags:
//   --transport=inproc|tcp   (default inproc)
//   --system=carousel-basic|carousel-fast  (default carousel-fast)
//   --dcs=N            (default 3)    --partitions=N  (default 3)
//   --replication=N    (default 3)    --clients-per-dc=N (default 2)
//   --workload=retwis|ycsbt (default retwis)  --keys=N (default 100000)
//   --zipf=F           (default 0.75)
//   --txns=N           committed-transaction target (default 2000)
//   --pipeline=K       concurrent transaction chains per client
//                      (default 1 = closed loop; >1 keeps K txns in
//                      flight per client, the load shape that exercises
//                      transport egress coalescing)
//   --timeout=S        give up after S wall seconds (default 120)
//   --seed=N           (default 1)
//   --batching         coalesce server->server messages into
//                      BatchEnvelopeMsg frames (the sim's egress batcher,
//                      here riding real sockets)
//   --json=PATH        also write a machine-readable summary
//                      (bench-gate "configs" format; config name is
//                      "<transport>-batched" / "<transport>-unbatched")

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "carousel/client.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/topology.h"
#include "harness/rt_cluster.h"
#include "workload/workload.h"

namespace {

using namespace carousel;

// Process CPU time and context switches (voluntary + involuntary), for
// deltas over the load phase.
struct Usage {
  double cpu_us = 0;
  double ctx_switches = 0;

  Usage operator-(const Usage& o) const {
    return {cpu_us - o.cpu_us, ctx_switches - o.ctx_switches};
  }
};

Usage ReadUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return {us(ru.ru_utime) + us(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

struct Args {
  std::string transport = "inproc";
  std::string system = "carousel-fast";
  int dcs = 3;
  int partitions = 3;
  int replication = 3;
  int clients_per_dc = 2;
  std::string workload = "retwis";
  uint64_t keys = 100'000;
  double zipf = 0.75;
  int txns = 2000;
  int pipeline = 1;
  double timeout_s = 120;
  uint64_t seed = 1;
  bool batching = false;
  std::string json_path;
};

bool ParseArg(const std::string& arg, Args* out) {
  auto value_of = [&](const char* name) -> const char* {
    const std::string prefix = std::string(name) + "=";
    if (arg.rfind(prefix, 0) == 0) return arg.c_str() + prefix.size();
    return nullptr;
  };
  if (const char* v = value_of("--transport")) {
    out->transport = v;
  } else if (const char* v = value_of("--system")) {
    out->system = v;
  } else if (const char* v = value_of("--dcs")) {
    out->dcs = std::atoi(v);
  } else if (const char* v = value_of("--partitions")) {
    out->partitions = std::atoi(v);
  } else if (const char* v = value_of("--replication")) {
    out->replication = std::atoi(v);
  } else if (const char* v = value_of("--clients-per-dc")) {
    out->clients_per_dc = std::atoi(v);
  } else if (const char* v = value_of("--workload")) {
    out->workload = v;
  } else if (const char* v = value_of("--keys")) {
    out->keys = std::strtoull(v, nullptr, 10);
  } else if (const char* v = value_of("--zipf")) {
    out->zipf = std::atof(v);
  } else if (const char* v = value_of("--txns")) {
    out->txns = std::atoi(v);
  } else if (const char* v = value_of("--pipeline")) {
    out->pipeline = std::atoi(v);
  } else if (const char* v = value_of("--timeout")) {
    out->timeout_s = std::atof(v);
  } else if (const char* v = value_of("--seed")) {
    out->seed = std::strtoull(v, nullptr, 10);
  } else if (const char* v = value_of("--json")) {
    out->json_path = v;
  } else if (arg == "--batching") {
    out->batching = true;
  } else {
    return false;
  }
  return true;
}

// Counters shared across all client loops.
struct Scoreboard {
  std::atomic<int> committed{0};
  std::atomic<int> aborted{0};
  std::atomic<int> timed_out{0};
  std::atomic<int> done_clients{0};
};

// A closed-loop driver pinned to one client's event loop: each completion
// callback starts the next transaction, so everything after the kickoff
// Post runs on the client's own loop (the latency histogram needs no
// lock until the final merge, which happens after Stop()).
struct Driver : std::enable_shared_from_this<Driver> {
  Driver(harness::RtCluster* cluster, int index,
         std::shared_ptr<Scoreboard> board, workload::Generator* generator,
         int target, uint64_t seed)
      : cluster(cluster),
        index(index),
        board(std::move(board)),
        generator(generator),
        target(target),
        rng(seed) {}

  harness::RtCluster* cluster;
  int index;
  std::shared_ptr<Scoreboard> board;
  workload::Generator* generator;
  int target;
  Rng rng;
  Histogram latency;
  uint64_t seq = 0;

  void Next() {
    if (board->committed.load() >= target) {
      board->done_clients.fetch_add(1);
      return;
    }
    const workload::TxnSpec spec = generator->Next(&rng);
    core::CarouselClient* client = cluster->client(index);
    const TxnId tid = client->Begin();
    const auto started = std::chrono::steady_clock::now();
    auto self = shared_from_this();
    auto finish = [self, started](Status status) {
      const auto micros =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - started)
              .count();
      if (status.ok()) {
        self->latency.Record(micros);
        self->board->committed.fetch_add(1);
      } else if (status.code() == StatusCode::kTimedOut) {
        self->board->timed_out.fetch_add(1);
      } else {
        self->board->aborted.fetch_add(1);
      }
      self->Next();
    };
    client->ReadAndPrepare(
        tid, spec.reads, spec.writes,
        [self, client, tid, writes = spec.writes, finish](
            Status status, const core::CarouselClient::ReadResults&) {
          if (writes.empty() || !status.ok()) {
            finish(status);
            return;
          }
          for (const Key& key : writes) {
            client->Write(tid, key,
                          "v" + std::to_string(self->index) + "-" +
                              std::to_string(self->seq++));
          }
          client->Commit(tid, finish);
        });
  }
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (!ParseArg(argv[i], &args)) {
      std::fprintf(stderr, "unknown flag: %s (see header comment)\n", argv[i]);
      return 2;
    }
  }
  const bool use_tcp = args.transport == "tcp";
  if (!use_tcp && args.transport != "inproc") {
    std::fprintf(stderr, "unknown --transport '%s'\n", args.transport.c_str());
    return 2;
  }

  // Protocol timers are real micros on the threaded backend's monotonic
  // clock; shrink the simulator-tuned defaults so failover and retries
  // operate on interactive timescales.
  core::CarouselOptions options;
  options.fast_path = args.system == "carousel-fast";
  options.local_reads = options.fast_path;
  if (args.system != "carousel-fast" && args.system != "carousel-basic") {
    std::fprintf(stderr, "unknown --system '%s'\n", args.system.c_str());
    return 2;
  }
  options.batching.enabled = args.batching;
  // On the threaded backend Schedule(0) means "after the current drain
  // pass, before sleeping": everything the pass's handlers sent to one
  // destination leaves as one envelope, with no armed-timer latency. The
  // 50 us simulator default would put a real timer sleep on every hop.
  options.batching.flush_interval = 0;
  options.raft.election_timeout_min = 300'000;
  options.raft.election_timeout_max = 600'000;
  options.raft.heartbeat_interval = 60'000;
  options.heartbeat_interval = 200'000;
  options.client_retry_timeout = 1'500'000;
  options.coordinator_retry_interval = 1'500'000;
  options.pending_gc_interval = 5'000'000;

  Topology topo = Topology::Uniform(args.dcs, /*inter_dc_rtt_ms=*/1);
  topo.PlacePartitions(args.partitions, args.replication);
  for (DcId dc = 0; dc < args.dcs; ++dc) {
    for (int i = 0; i < args.clients_per_dc; ++i) topo.AddClient(dc);
  }

  harness::RtClusterOptions rt_options;
  rt_options.use_tcp = use_tcp;
  rt_options.seed = args.seed;
  harness::RtCluster cluster(std::move(topo), options, rt_options);

  std::printf("transport=%s system=%s dcs=%d partitions=%dx%d clients=%d "
              "workload=%s txns=%d seed=%llu\n",
              args.transport.c_str(), args.system.c_str(), args.dcs,
              args.partitions, args.replication,
              args.dcs * args.clients_per_dc, args.workload.c_str(),
              args.txns, static_cast<unsigned long long>(args.seed));

  if (!cluster.Start()) {
    std::fprintf(stderr, "cluster failed to start (transport=%s)\n",
                 args.transport.c_str());
    return 1;
  }

  workload::WorkloadOptions wopts;
  wopts.num_keys = args.keys;
  wopts.zipf_theta = args.zipf;
  const int num_clients = static_cast<int>(cluster.num_clients());
  auto board = std::make_shared<Scoreboard>();
  // One generator per driver: each runs on its own client's loop.
  std::vector<std::unique_ptr<workload::Generator>> generators;
  std::vector<std::shared_ptr<Driver>> drivers;
  Rng seeder(args.seed);
  for (int i = 0; i < num_clients; ++i) {
    generators.push_back(args.workload == "ycsbt"
                             ? workload::MakeYcsbTGenerator(wopts)
                             : workload::MakeRetwisGenerator(wopts));
    drivers.push_back(std::make_shared<Driver>(&cluster, i, board,
                                               generators.back().get(),
                                               args.txns, seeder.NextU64()));
  }

  // Each chain is an independent closed loop on its client's loop;
  // pipeline > 1 keeps that many transactions in flight per client.
  const int pipeline = args.pipeline < 1 ? 1 : args.pipeline;
  const int total_chains = num_clients * pipeline;
  const Usage usage_start = ReadUsage();
  const auto bench_start = std::chrono::steady_clock::now();
  for (int i = 0; i < num_clients; ++i) {
    auto driver = drivers[i];
    cluster.RunOnClient(i, [driver, pipeline]() {
      for (int k = 0; k < pipeline; ++k) driver->Next();
    });
  }

  const auto deadline =
      bench_start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(args.timeout_s));
  while (board->done_clients.load() < total_chains &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();
  const Usage load = ReadUsage() - usage_start;
  const bool finished = board->done_clients.load() == total_chains;
  const runtime::TransportStats net = cluster.transport_stats();
  cluster.Stop();

  Histogram latency;
  for (auto& driver : drivers) latency.Merge(driver->latency);

  const int committed = board->committed.load();
  const int aborted = board->aborted.load();
  const int timed_out = board->timed_out.load();
  const double tps = wall_s > 0 ? committed / wall_s : 0;
  const double per_txn = committed > 0 ? 1.0 / committed : 0.0;
  const double cpu_us_per_txn = load.cpu_us * per_txn;
  const double ctx_switches_per_txn = load.ctx_switches * per_txn;
  const size_t workers = cluster.rt().num_workers();
  if (!finished) {
    std::fprintf(stderr,
                 "timed out after %.0fs with %d/%d committed transactions\n",
                 wall_s, committed, args.txns);
  }
  std::printf("\ncommitted %d (%.0f tps), aborted %d, timed out %d, "
              "dropped messages %llu, wall %.2fs\n",
              committed, tps, aborted, timed_out,
              static_cast<unsigned long long>(cluster.dropped_messages()),
              wall_s);
  std::printf("latency: %s\n", latency.Summary().c_str());
  std::printf("  p50=%lldus p90=%lldus p95=%lldus p99=%lldus\n",
              static_cast<long long>(latency.Quantile(0.50)),
              static_cast<long long>(latency.Quantile(0.90)),
              static_cast<long long>(latency.Quantile(0.95)),
              static_cast<long long>(latency.Quantile(0.99)));
  std::printf("cpu: %.0f us per committed txn, %.1f context switches per "
              "committed txn, %zu workers\n",
              cpu_us_per_txn, ctx_switches_per_txn, workers);
  if (use_tcp) {
    std::printf("transport: frames sent %llu (%.2f per sendmsg, %llu "
                "syscalls, %llu eagain), received %llu, %.1f MB, "
                "reconnects %llu\n",
                static_cast<unsigned long long>(net.frames_sent),
                net.frames_per_syscall(),
                static_cast<unsigned long long>(net.send_syscalls),
                static_cast<unsigned long long>(net.send_eagain),
                static_cast<unsigned long long>(net.frames_received),
                static_cast<double>(net.bytes_sent) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(net.reconnects));
    std::printf("transport drops: queue-full %llu, connect-fail %llu, "
                "decode-fail %llu\n",
                static_cast<unsigned long long>(net.drops_queue_full),
                static_cast<unsigned long long>(net.drops_connect_fail),
                static_cast<unsigned long long>(net.drops_decode_fail));
  }

  if (!args.json_path.empty()) {
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    // bench_gate.py "configs" format so machine-robust counters (commit
    // counts, transport drops, coalescing factor) can be gated against
    // bench/baselines/ while wall-clock metrics stay informational.
    const std::string config_name =
        args.transport + (args.batching ? "-batched" : "-unbatched");
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"rt_smoke\",\n"
        "  \"transport\": \"%s\",\n"
        "  \"system\": \"%s\",\n"
        "  \"workload\": \"%s\",\n"
        "  \"configs\": [\n"
        "    {\n"
        "      \"name\": \"%s\",\n"
        "      \"metrics\": {\n"
        "        \"committed\": %d,\n"
        "        \"aborted\": %d,\n"
        "        \"timed_out\": %d,\n"
        "        \"dropped_messages\": %llu,\n"
        "        \"dropped_transport\": %llu,\n"
        "        \"drops_queue_full\": %llu,\n"
        "        \"drops_connect_fail\": %llu,\n"
        "        \"drops_decode_fail\": %llu,\n"
        "        \"frames_sent\": %llu,\n"
        "        \"frames_per_syscall\": %.3f,\n"
        "        \"wall_seconds\": %.3f,\n"
        "        \"tps\": %.1f,\n"
        "        \"p50_us\": %lld,\n"
        "        \"p90_us\": %lld,\n"
        "        \"p95_us\": %lld,\n"
        "        \"p99_us\": %lld,\n"
        "        \"cpu_us_per_txn\": %.1f,\n"
        "        \"ctx_switches_per_txn\": %.2f,\n"
        "        \"workers\": %zu\n"
        "      }\n"
        "    }\n"
        "  ]\n"
        "}\n",
        args.transport.c_str(), args.system.c_str(), args.workload.c_str(),
        config_name.c_str(), committed, aborted, timed_out,
        static_cast<unsigned long long>(cluster.dropped_messages()),
        static_cast<unsigned long long>(net.dropped_total()),
        static_cast<unsigned long long>(net.drops_queue_full),
        static_cast<unsigned long long>(net.drops_connect_fail),
        static_cast<unsigned long long>(net.drops_decode_fail),
        static_cast<unsigned long long>(net.frames_sent),
        net.frames_per_syscall(), wall_s, tps,
        static_cast<long long>(latency.Quantile(0.50)),
        static_cast<long long>(latency.Quantile(0.90)),
        static_cast<long long>(latency.Quantile(0.95)),
        static_cast<long long>(latency.Quantile(0.99)), cpu_us_per_txn,
        ctx_switches_per_txn, workers);
    std::fclose(f);
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return finished ? 0 : 1;
}
