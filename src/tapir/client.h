#ifndef CAROUSEL_TAPIR_CLIENT_H_
#define CAROUSEL_TAPIR_CLIENT_H_

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "carousel/directory.h"
#include "carousel/messages.h"
#include "carousel/options.h"
#include "common/status.h"
#include "common/types.h"
#include "runtime/endpoint.h"
#include "tapir/messages.h"

namespace carousel::tapir {

/// TAPIR deployment knobs.
struct TapirOptions {
  /// How long the client waits for a fast (super)quorum of matching
  /// prepare results before falling back to IR's slow path. The paper
  /// (§6.3) attributes part of TAPIR's tail latency to this timeout.
  SimTime fast_path_timeout = 500'000;  // 500 ms
  /// The evaluated TAPIR implementation "waits for a fast path timeout
  /// before it begins its slow path" (paper §6.3) even when every reply
  /// has already arrived. Set false for a more charitable variant that
  /// starts the slow path as soon as the fast quorum is impossible.
  bool slow_path_waits_for_timeout = true;
  core::ServerCostModel cost;
};

/// TAPIR client: unlike Carousel, the *client* coordinates 2PC over
/// inconsistent replication (Zhang et al., SOSP'15). Reads go to the
/// closest replica; Prepare goes to every replica of each participant
/// partition and succeeds on the fast path with a supermajority of
/// matching votes; otherwise the client finalizes a majority result via
/// one more roundtrip (slow path) or aborts. The commit decision is
/// reported to the application immediately, but a transaction's keys stay
/// blocked for this client until every replica acknowledged the decision
/// (TAPIR forbids issuing a potentially conflicting transaction before the
/// previous one is fully committed — paper §6.3).
class TapirClient : public runtime::Endpoint {
 public:
  using ReadResults = std::map<Key, VersionedValue>;
  using ReadCallback = std::function<void(Status, const ReadResults&)>;
  using CommitCallback = std::function<void(Status)>;

  TapirClient(NodeId id, DcId dc, ClientId client_id,
              const core::Directory* directory, const TapirOptions& options);

  TxnId Begin();

  /// Starts the transaction: issues all reads concurrently (one batch per
  /// partition, to the closest replica). `writes` is the 2FI write-key
  /// hint used only for the same-client conflict-blocking rule. The call
  /// is queued if it conflicts with one of this client's not-yet-fully-
  /// committed transactions.
  void Read(const TxnId& tid, KeyList reads, KeyList writes,
            ReadCallback callback);

  void Write(const TxnId& tid, Key key, Value value);

  /// Runs TAPIR's prepare (fast path / slow path) across all participants
  /// and reports the outcome.
  void Commit(const TxnId& tid, CommitCallback callback);

  void Abort(const TxnId& tid);

  void HandleMessage(NodeId from, const sim::MessagePtr& msg) override;

  /// Transactions that went through the IR slow path (for reporting).
  uint64_t slow_path_count() const { return slow_path_count_; }

 private:
  struct PartPrepare {
    std::map<NodeId, Vote> votes;
    bool decided = false;
    bool ok = false;
    bool finalizing = false;
    int finalize_acks = 0;
    int decide_acks = 0;
  };
  struct ActiveTxn {
    TxnId tid;
    std::map<PartitionId, core::RwKeys> keys;
    std::set<Key> all_keys;
    std::set<PartitionId> awaiting_data;
    ReadResults results;
    ReadVersionMap versions_used;
    ReadCallback read_cb;
    bool reads_done = false;
    WriteSet writes;
    CommitCallback commit_cb;
    bool preparing = false;
    uint64_t timestamp = 0;
    std::map<PartitionId, PartPrepare> parts;
    bool decided = false;
    bool committed = false;
    uint64_t timer_gen = 0;
  };
  struct QueuedStart {
    TxnId tid;
    KeyList reads;
    KeyList writes;
    ReadCallback callback;
  };

  void StartReads(ActiveTxn& txn);
  void EvaluatePartition(ActiveTxn& txn, PartitionId p);
  void MaybeDecide(ActiveTxn& txn);
  void Decide(ActiveTxn& txn, bool commit);
  void FinishIfFullyCommitted(const TxnId& tid);
  void ArmFastPathTimer(const TxnId& tid);
  NodeId ClosestReplica(PartitionId p) const;
  bool ConflictsWithInflight(const KeyList& reads, const KeyList& writes) const;
  void DrainQueue();
  int SupermajorityFor(PartitionId p) const;
  int FaultThresholdFor(PartitionId p) const;

  ClientId client_id_;
  const core::Directory* directory_;
  TapirOptions options_;
  uint64_t next_counter_ = 0;
  std::unordered_map<TxnId, ActiveTxn, TxnIdHash> txns_;
  /// Keys of decided transactions whose decide-acks are still incomplete.
  std::unordered_map<TxnId, std::set<Key>, TxnIdHash> blocked_keys_;
  std::deque<QueuedStart> start_queue_;
  uint64_t slow_path_count_ = 0;
};

}  // namespace carousel::tapir

#endif  // CAROUSEL_TAPIR_CLIENT_H_
