#ifndef CAROUSEL_CAROUSEL_MESSAGES_H_
#define CAROUSEL_CAROUSEL_MESSAGES_H_

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/wanrt.h"
#include "sim/message.h"

namespace carousel::core {

/// Read and write key sets of a transaction restricted to one partition.
struct RwKeys {
  KeyList reads;
  KeyList writes;

  /// On the wire (after its i32 partition id): a reserved u32, then both
  /// key lists.
  template <class V>
  void Fields(V& v) {
    uint32_t reserved = 0;
    v(reserved, reads, writes);
  }
};

/// Stamps the WANRT span (transaction id + protocol phase) onto an
/// outgoing message or Raft log payload. Zero wire bytes; the ledger uses
/// it to attribute every cross-DC delivery to a transaction and phase.
inline void TagSpan(sim::Message* msg, const TxnId& tid,
                    obs::WanrtPhase phase) {
  msg->set_span(tid, static_cast<uint8_t>(phase));
}

/// Client -> participant replica. Carries the read request and the
/// piggybacked prepare request (paper §4.1.4). In Basic mode it goes to the
/// participant leader only; with CPC (fast_path) it goes to every replica
/// of the partition (§4.2). For read-only transactions it goes to the
/// leader only and carries no prepare (§4.4.2).
struct ReadPrepareMsg final
    : sim::Schema<ReadPrepareMsg, sim::kCarouselReadPrepare> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId client = kInvalidNode;
  NodeId coordinator = kInvalidNode;
  KeyList read_keys;
  KeyList write_keys;
  bool read_only = false;
  bool fast_path = false;
  /// Whether this recipient should return read values to the client
  /// (leader always; with the local-read optimization also the replica in
  /// the client's DC).
  bool want_data = false;
  /// True when this is a recovery re-send (coordinator QueryPrepare or
  /// client retry); recipients must answer idempotently.
  bool is_retry = false;
  /// Read-attempt number, echoed in the response. A read-only client
  /// discards its partial results when it retries and must not merge a
  /// late response from an earlier attempt into the fresh snapshot.
  uint32_t attempt = 0;

  template <class V>
  void Fields(V& v) {
    v(tid, partition, client, coordinator, attempt, read_only, fast_path,
      want_data, is_retry);
    v.Pad(48);
    v(read_keys, write_keys);
  }
};

/// Participant replica -> client: read values (and read-only validation
/// outcome).
struct ReadResponseMsg final
    : sim::Schema<ReadResponseMsg, sim::kCarouselReadResponse> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  /// False only for read-only transactions that failed OCC validation.
  bool ok = true;
  bool from_leader = true;
  /// Echo of ReadPrepareMsg::attempt.
  uint32_t attempt = 0;
  std::map<Key, VersionedValue> reads;

  template <class V>
  void Fields(V& v) {
    v(tid, partition, attempt, ok, from_leader);
    v.Pad(32);
    v(reads);
  }
};

/// Participant replica -> coordinator: a prepare decision. Sent directly
/// by every replica on the CPC fast path (via_fast_path = true) and by the
/// leader after its decision is replicated on the slow path.
struct PrepareDecisionMsg final
    : sim::Schema<PrepareDecisionMsg, sim::kCarouselPrepareDecision> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId replica = kInvalidNode;
  bool is_leader = false;
  bool via_fast_path = false;
  bool prepared = false;
  /// Data versions this replica used to prepare (CPC up-to-date check and
  /// the coordinator's staleness validation, §4.4.1).
  ReadVersionMap read_versions;
  /// Raft term the replica was in (CPC up-to-date check).
  uint64_t term = 0;

  template <class V>
  void Fields(V& v) {
    v(tid, partition, replica, term, is_leader, via_fast_path, prepared);
    v.Pad(48);
    v(read_versions);
  }
};

/// Client -> coordinator, sent together with the read/prepare round:
/// announces the transaction and its full key sets so the coordinator can
/// replicate them to its consensus group (making the coordinator fault
/// tolerant, unlike client-coordinated protocols).
struct CoordPrepareMsg final
    : sim::Schema<CoordPrepareMsg, sim::kCarouselCoordPrepare> {
  TxnId tid;
  NodeId client = kInvalidNode;
  bool fast_path = false;
  std::map<PartitionId, RwKeys> keys;

  template <class V>
  void Fields(V& v) {
    uint32_t n = static_cast<uint32_t>(keys.size());
    v(tid, client, fast_path, n);
    v.Pad(32);
    v.Items(n, keys);
  }
};

/// Client -> coordinator: commit with buffered writes and the versions the
/// client actually read (for the staleness check).
struct CommitRequestMsg final
    : sim::Schema<CommitRequestMsg, sim::kCarouselCommitRequest> {
  TxnId tid;
  NodeId client = kInvalidNode;
  WriteSet writes;
  ReadVersionMap read_versions;
  /// The transaction's key sets, repeated from the prepare notification so
  /// a coordinator that lost the notification (crash + failover) can still
  /// finish the transaction.
  std::map<PartitionId, RwKeys> keys;

  template <class V>
  void Fields(V& v) {
    uint32_t n = static_cast<uint32_t>(keys.size());
    v(tid, client, n);
    v.Pad(32);
    v(writes, read_versions);
    v.Items(n, keys);
  }
};

/// Client -> coordinator: application-initiated abort.
struct AbortRequestMsg final
    : sim::Schema<AbortRequestMsg, sim::kCarouselAbortRequest> {
  TxnId tid;
  NodeId client = kInvalidNode;

  template <class V>
  void Fields(V& v) {
    v(tid, client);
    v.Pad(24);
  }
};

/// Coordinator -> client: transaction outcome.
struct CommitResponseMsg final
    : sim::Schema<CommitResponseMsg, sim::kCarouselCommitResponse> {
  TxnId tid;
  bool committed = false;
  /// Short reason for aborts ("conflict", "stale read", ...).
  std::string reason;

  template <class V>
  void Fields(V& v) {
    uint32_t n = static_cast<uint32_t>(reason.size());
    v(tid, committed, n);
    v.Pad(24);
    v.Bytes(n, reason);
  }
};

/// Coordinator -> participant leader (Writeback phase): the commit
/// decision and, on commit, the updates for that partition.
struct WritebackMsg final : sim::Schema<WritebackMsg, sim::kCarouselWriteback> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId coordinator = kInvalidNode;
  bool commit = false;
  WriteSet writes;

  template <class V>
  void Fields(V& v) {
    v(tid, partition, coordinator, commit);
    v.Pad(32);
    v(writes);
  }
};

/// Participant leader -> coordinator: writeback durably replicated.
struct WritebackAckMsg final
    : sim::Schema<WritebackAckMsg, sim::kCarouselWritebackAck> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;

  template <class V>
  void Fields(V& v) {
    v(tid, partition);
    v.Pad(24);
  }
};

/// Client -> coordinator: liveness heartbeat while a transaction is in its
/// Read phase (paper §4.3.1).
struct HeartbeatMsg final : sim::Schema<HeartbeatMsg, sim::kCarouselHeartbeat> {
  TxnId tid;
  NodeId client = kInvalidNode;

  template <class V>
  void Fields(V& v) {
    v(tid, client);
    v.Pad(20);
  }
};

/// (Recovered) coordinator -> participant replicas: re-acquire a prepare
/// decision (paper §4.3.3, coordinator failure). Includes the key sets so
/// a participant that lost the transaction can prepare it afresh.
struct QueryPrepareMsg final
    : sim::Schema<QueryPrepareMsg, sim::kCarouselQueryPrepare> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId coordinator = kInvalidNode;
  KeyList read_keys;
  KeyList write_keys;

  template <class V>
  void Fields(V& v) {
    v(tid, partition, coordinator);
    v.Pad(40);
    v(read_keys, write_keys);
  }
};

/// Participant leader -> coordinator: 2PC termination probe for a pending
/// transaction whose writeback never arrived (e.g., the coordinator and
/// client both failed). The coordinator answers with a WritebackMsg; an
/// unknown transaction is fenced as aborted, which is safe because commits
/// are always durably logged in the coordinator's group first.
struct QueryDecisionMsg final
    : sim::Schema<QueryDecisionMsg, sim::kCarouselQueryDecision> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;

  template <class V>
  void Fields(V& v) {
    v(tid, partition);
    v.Pad(24);
  }
};

/// Any replica -> client: redirect to the current group leader.
struct NotLeaderMsg final : sim::Schema<NotLeaderMsg, sim::kCarouselNotLeader> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId leader_hint = kInvalidNode;

  template <class V>
  void Fields(V& v) {
    v(tid, partition, leader_hint);
    v.Pad(24);
  }
};

// ---------------------------------------------------------------------------
// Raft log payloads (replicated, never sent standalone).
// ---------------------------------------------------------------------------

/// Coordinator group: the transaction's participants and key sets,
/// replicated when the coordinator receives the prepare notification.
struct LogTxnInfo final : sim::Schema<LogTxnInfo, sim::kLogTxnInfo> {
  TxnId tid;
  NodeId client = kInvalidNode;
  bool fast_path = false;
  std::map<PartitionId, RwKeys> keys;

  template <class V>
  void Fields(V& v) {
    uint32_t n = static_cast<uint32_t>(keys.size());
    v(tid, client, fast_path, n);
    v.Pad(32);
    v.Items(n, keys);
  }
};

/// Coordinator group: the client's writes + observed read versions,
/// replicated on Commit before answering the client.
struct LogWriteData final : sim::Schema<LogWriteData, sim::kLogWriteData> {
  TxnId tid;
  WriteSet writes;
  ReadVersionMap client_versions;

  template <class V>
  void Fields(V& v) {
    v(tid);
    v.Pad(24);
    v(writes, client_versions);
  }
};

/// Coordinator group: the final decision (Writeback phase).
struct LogDecision final : sim::Schema<LogDecision, sim::kLogDecision> {
  TxnId tid;
  bool commit = false;

  template <class V>
  void Fields(V& v) {
    v(tid, commit);
    v.Pad(24);
  }
};

/// Participant group: the leader's prepare decision with read/write sets,
/// read versions and term (paper §4.1.4).
struct LogPrepareResult final
    : sim::Schema<LogPrepareResult, sim::kLogPrepareResult> {
  TxnId tid;
  NodeId coordinator = kInvalidNode;
  bool prepared = false;
  KeyList read_keys;
  KeyList write_keys;
  ReadVersionMap read_versions;
  uint64_t term = 0;

  template <class V>
  void Fields(V& v) {
    v(tid, coordinator, term, prepared);
    v.Pad(48);
    v(read_keys, write_keys, read_versions);
  }
};

/// Participant group: the commit decision plus this partition's updates
/// (Writeback phase).
struct LogCommit final : sim::Schema<LogCommit, sim::kLogCommit> {
  TxnId tid;
  NodeId coordinator = kInvalidNode;
  bool commit = false;
  WriteSet writes;

  template <class V>
  void Fields(V& v) {
    v(tid, coordinator, commit);
    v.Pad(32);
    v(writes);
  }
};

}  // namespace carousel::core

#endif  // CAROUSEL_CAROUSEL_MESSAGES_H_
