#include "carousel/server.h"

#include <string>

#include "raft/messages.h"
#include "runtime/storage.h"

namespace carousel::core {

CarouselServer::CarouselServer(const NodeInfo& info, const Directory* directory,
                               runtime::NodeEnv env,
                               const CarouselOptions& options,
                               TraceCollector* traces,
                               obs::MetricsRegistry* metrics)
    : runtime::Endpoint(info.id, info.dc),
      partition_(info.partition),
      directory_(directory),
      options_(options),
      group_members_(directory->Replicas(info.partition)),
      storage_(env.storage),
      batcher_(this, options.batching.ToBatcherOptions()) {
  set_cores(options.cost.cores);
  raft_ = std::make_unique<raft::RaftNode>(partition_, id(), group_members_,
                                           env.clock, env.timers,
                                           std::move(env.rng), options.raft,
                                           storage_);

  // Shared context: the roles' only window onto this host.
  ctx_.self = id();
  ctx_.partition = partition_;
  ctx_.directory = directory_;
  ctx_.options = &options_;
  ctx_.store = &store_;
  ctx_.pending = &pending_;
  ctx_.raft = raft_.get();
  ctx_.clock = env.clock;
  ctx_.timers = env.timers;
  ctx_.send = [this](NodeId to, sim::MessagePtr msg) {
    SendRouted(to, std::move(msg));
  };
  ctx_.node_alive = [this]() { return alive(); };
  ctx_.traces = traces;
  ctx_.metrics = metrics;

  participant_ = std::make_unique<Participant>(&ctx_);
  coordinator_ = std::make_unique<Coordinator>(&ctx_);
  recovery_ =
      std::make_unique<Recovery>(&ctx_, participant_.get(), coordinator_.get());
  recovery_->set_redeliver([this](NodeId from, const sim::MessagePtr& msg) {
    HandleMessage(from, msg);
  });

  // Network routing: the roles register their own message types; Raft
  // protocol traffic forwards untyped into the Raft module.
  participant_->Register(&dispatcher_);
  coordinator_->Register(&dispatcher_);
  for (int t = sim::kRaftRequestVote; t <= sim::kRaftAppendResponse; ++t) {
    dispatcher_.OnRaw(t, [this](NodeId from, const sim::MessagePtr& msg) {
      raft_->HandleMessage(from, msg);
    });
  }

  // Log-apply routing. No-op entries (leader barriers) are expected and
  // carry nothing to apply.
  participant_->RegisterApply(&apply_dispatcher_);
  coordinator_->RegisterApply(&apply_dispatcher_);
  apply_dispatcher_.OnRaw(
      sim::kLogNoop, [](NodeId /*from*/, const sim::MessagePtr& /*msg*/) {});

  // Raft traffic is always server-to-server, so it shares the egress
  // batcher: one flush can carry an AppendEntries plus CPC votes bound for
  // the same replica. Raft tolerates the added <=flush_interval delay; it
  // sits orders of magnitude under election timeouts.
  raft_->set_send_fn([this](NodeId to, sim::MessagePtr msg) {
    SendRouted(to, std::move(msg));
  });
  raft_->set_apply_fn([this](uint64_t index, const sim::MessagePtr& payload) {
    ApplyLogEntry(index, payload);
  });
  raft_->set_vote_attachment_fn([this]() { return pending_.Snapshot(); });
  raft_->set_leadership_fn(
      [this](uint64_t term, std::vector<std::vector<kv::PendingTxn>> lists) {
        recovery_->OnLeadership(term, std::move(lists));
      });
  raft_->set_step_down_fn(
      [this](uint64_t term) { recovery_->OnStepDown(term); });
  raft_->set_elected_fn([this](uint64_t term) { recovery_->OnElected(term); });

  // Observability: raft ack-span stamping plus zero-hot-path-cost
  // exposures — the registry reads these only at snapshot time, so an
  // enabled-but-unsampled run pays nothing between snapshots.
  if (metrics != nullptr && metrics->enabled()) {
    raft_->set_span_tracking(true);
    const std::string prefix = "server." + std::to_string(id()) + ".";
    metrics->ExposeCounter(prefix + "dispatch.messages",
                           dispatcher_.dispatched_cell());
    metrics->ExposeCounter(prefix + "dispatch.applies",
                           apply_dispatcher_.dispatched_cell());
    metrics->ExposeGauge(prefix + "raft.log_entries", [this]() {
      return static_cast<int64_t>(raft_->last_log_index());
    });
    metrics->ExposeGauge(prefix + "raft.elections_won", [this]() {
      return static_cast<int64_t>(raft_->elections_won());
    });
    metrics->ExposeGauge(prefix + "raft.proposals", [this]() {
      return static_cast<int64_t>(raft_->proposals());
    });
    metrics->ExposeGauge(prefix + "coordinator.active_txns", [this]() {
      return static_cast<int64_t>(coordinator_->active_txns());
    });
    metrics->ExposeGauge(prefix + "recovery.buffered", [this]() {
      return static_cast<int64_t>(recovery_->buffered_count());
    });
    metrics->ExposeGauge(prefix + "pending.size", [this]() {
      return static_cast<int64_t>(pending_.size());
    });
  }
}

CarouselServer::~CarouselServer() = default;

void CarouselServer::Start() {
  if (storage_ != nullptr) {
    // Restore any prepare pins a previous life journaled — §4.3.3's
    // supermajority recovery counts them, so they must outlive a SIGKILL
    // just like votedFor. Seed BEFORE wiring the observers (restores must
    // not re-journal), and wire the observers BEFORE raft_->Start (log
    // replay below may legitimately add/remove pins, and those mutations
    // must hit the journal; duplicate adds are idempotent upserts).
    runtime::DurableNodeState durable;
    if (storage_->Load(&durable)) {
      for (const auto& [key, blob] : durable.pending) {
        kv::PendingTxn txn;
        if (kv::DecodePendingTxn(blob.data(), blob.size(), &txn)) {
          (void)pending_.Add(std::move(txn));
        }
      }
    }
    pending_.SetObservers(
        [this](const kv::PendingTxn& txn) {
          storage_->PersistPendingAdd(txn.tid.ToString(),
                                      kv::EncodePendingTxn(txn));
        },
        [this](const TxnId& tid) {
          storage_->PersistPendingErase(tid.ToString());
        });
  }
  const bool bootstrap_leader =
      directory_->topology().node(id()).replica_index == 0;
  raft_->Start(bootstrap_leader);
  participant_->ArmPendingGcTimer();
}

void CarouselServer::SendRouted(NodeId to, sim::MessagePtr msg) {
  if (options_.batching.enabled &&
      !directory_->topology().node(to).is_client) {
    batcher_.Send(to, std::move(msg));
    return;
  }
  Send(to, std::move(msg));
}

void CarouselServer::HandleMessage(NodeId from, const sim::MessagePtr& msg) {
  // A batch envelope unwraps here: each carried message takes the exact
  // path it would have taken arriving alone (recovery buffering included),
  // in its original send order. Envelopes never nest.
  if (const auto* env = sim::TryAs<sim::BatchEnvelopeMsg>(*msg)) {
    for (const sim::MessagePtr& item : env->items) {
      HandleMessage(from, item);
    }
    return;
  }
  // A freshly elected leader buffers requests until the CPC
  // failure-handling protocol completes (paper §4.3.3 step 1). Responses
  // (decisions, acks, heartbeats) and Raft traffic pass straight through.
  if (recovery_->MaybeBuffer(from, msg)) return;
  dispatcher_.Dispatch(from, msg);
}

SimTime CarouselServer::PayloadCost(const sim::Message& msg) const {
  const ServerCostModel& c = options_.cost;
  if (const auto* m = sim::TryAs<ReadPrepareMsg>(msg)) {
    return c.per_read_key * static_cast<SimTime>(m->read_keys.size()) +
           c.per_occ_key *
               static_cast<SimTime>(m->read_keys.size() + m->write_keys.size());
  }
  if (const auto* m = sim::TryAs<raft::AppendEntriesMsg>(msg)) {
    return c.per_log_entry * static_cast<SimTime>(m->entries.size());
  }
  if (const auto* m = sim::TryAs<WritebackMsg>(msg)) {
    return c.per_write_key * static_cast<SimTime>(m->writes.size());
  }
  return 0;
}

SimTime CarouselServer::ServiceCost(const sim::Message& msg) const {
  const ServerCostModel& c = options_.cost;
  if (c.base == 0 && c.per_read_key == 0 && c.per_occ_key == 0 &&
      c.per_write_key == 0 && c.per_log_entry == 0) {
    return 0;
  }
  // An envelope pays the per-message base once; each carried message pays
  // only the cheaper demux charge plus its payload-proportional work.
  // This cost split is where protocol batching buys simulated throughput.
  if (const auto* env = sim::TryAs<sim::BatchEnvelopeMsg>(msg)) {
    const SimTime per_item =
        c.per_batched_item < 0 ? c.base : c.per_batched_item;
    SimTime total = c.base;
    for (const sim::MessagePtr& item : env->items) {
      total += per_item + PayloadCost(*item);
    }
    return total;
  }
  return c.base + PayloadCost(msg);
}

void CarouselServer::OnCrash() {
  // Buffered egress dies with the process, like bytes in a socket buffer.
  batcher_.Clear();
  raft_->OnCrash();
  participant_->OnCrash();
}

void CarouselServer::OnRecover() {
  recovery_->OnHostRecover();
  raft_->OnRecover();
  participant_->ArmPendingGcTimer();
}

void CarouselServer::ApplyLogEntry(uint64_t index,
                                   const sim::MessagePtr& payload) {
  (void)index;
  if (payload == nullptr) return;
  apply_dispatcher_.Dispatch(kInvalidNode, payload);
}

}  // namespace carousel::core
