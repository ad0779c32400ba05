#ifndef CAROUSEL_TAPIR_MESSAGES_H_
#define CAROUSEL_TAPIR_MESSAGES_H_

#include <map>

#include "common/types.h"
#include "sim/message.h"

namespace carousel::tapir {

/// A replica's OCC validation outcome for a prepare (TAPIR's
/// PREPARE-OK / ABORT / ABSTAIN result set).
enum class Vote : int8_t {
  kOk = 0,      // No conflicts at this replica.
  kAbort = 1,   // The transaction read stale data; abort is final.
  kAbstain = 2  // Conflicts with another prepared transaction.
};

/// Client -> one (closest) replica: read a batch of keys of one partition.
struct TapirReadMsg final : sim::Schema<TapirReadMsg, sim::kTapirRead> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId client = kInvalidNode;
  KeyList keys;

  template <class V>
  void Fields(V& v) {
    v(tid, partition, client);
    v.Pad(32);
    v(keys);
  }
};

struct TapirReadReplyMsg final
    : sim::Schema<TapirReadReplyMsg, sim::kTapirReadReply> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  std::map<Key, VersionedValue> reads;

  template <class V>
  void Fields(V& v) {
    v(tid, partition);
    v.Pad(24);
    v(reads);
  }
};

/// Client -> every replica of a participant partition (IR consensus
/// operation): validate and tentatively prepare the transaction.
struct TapirPrepareMsg final
    : sim::Schema<TapirPrepareMsg, sim::kTapirPrepare> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId client = kInvalidNode;
  /// Proposed commit timestamp (client clock, tie-broken by client id).
  uint64_t timestamp = 0;
  ReadVersionMap read_versions;
  WriteSet writes;

  template <class V>
  void Fields(V& v) {
    v(tid, partition, client, timestamp);
    v.Pad(40);
    v(read_versions, writes);
  }
};

struct TapirPrepareReplyMsg final
    : sim::Schema<TapirPrepareReplyMsg, sim::kTapirPrepareReply> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId replica = kInvalidNode;
  Vote vote = Vote::kAbstain;

  template <class V>
  void Fields(V& v) {
    v(tid, partition, replica, vote);
    v.Pad(28);
  }
};

/// Client -> every replica (IR slow path): make the chosen prepare result
/// durable before acting on it.
struct TapirFinalizeMsg final
    : sim::Schema<TapirFinalizeMsg, sim::kTapirFinalize> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  Vote vote = Vote::kAbstain;

  template <class V>
  void Fields(V& v) {
    v(tid, partition, vote);
    v.Pad(28);
  }
};

struct TapirFinalizeReplyMsg final
    : sim::Schema<TapirFinalizeReplyMsg, sim::kTapirFinalizeReply> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId replica = kInvalidNode;

  template <class V>
  void Fields(V& v) {
    v(tid, partition, replica);
    v.Pad(24);
  }
};

/// Client -> every replica: the commit/abort decision (inconsistent
/// operation; applied on receipt).
struct TapirDecideMsg final : sim::Schema<TapirDecideMsg, sim::kTapirDecide> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  bool commit = false;
  uint64_t timestamp = 0;
  WriteSet writes;

  template <class V>
  void Fields(V& v) {
    v(tid, partition, timestamp, commit);
    v.Pad(32);
    v(writes);
  }
};

struct TapirDecideAckMsg final
    : sim::Schema<TapirDecideAckMsg, sim::kTapirDecideAck> {
  TxnId tid;
  PartitionId partition = kInvalidPartition;
  NodeId replica = kInvalidNode;

  template <class V>
  void Fields(V& v) {
    v(tid, partition, replica);
    v.Pad(24);
  }
};

}  // namespace carousel::tapir

#endif  // CAROUSEL_TAPIR_MESSAGES_H_
