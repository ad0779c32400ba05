#ifndef CAROUSEL_RAFT_MESSAGES_H_
#define CAROUSEL_RAFT_MESSAGES_H_

#include <vector>

#include "common/types.h"
#include "kv/pending_list.h"
#include "sim/message.h"

namespace carousel::raft {

/// One replicated log slot: the leader's term when appended plus an opaque
/// payload (a sim::Message subclass defined by the layer above Raft).
struct LogEntry {
  uint64_t term = 0;
  sim::MessagePtr payload;

  /// On the wire: the term, then the payload as [u32 type][u32 len][bytes]
  /// (type 0: no payload).
  template <class V>
  void Fields(V& v) {
    v(term);
    v.Nested(payload, /*nullable=*/true);
  }
};

/// No-op entry a new leader appends to commit entries from prior terms
/// (Raft §5.4.2 commit rule) and to detect when its log is fully
/// replicated.
struct NoopPayload final : sim::Schema<NoopPayload, sim::kLogNoop> {
  template <class V>
  void Fields(V& v) {
    v.Pad(8);
  }
};

struct RequestVoteMsg final
    : sim::Schema<RequestVoteMsg, sim::kRaftRequestVote> {
  PartitionId group = kInvalidPartition;
  uint64_t term = 0;
  NodeId candidate = kInvalidNode;
  uint64_t last_log_index = 0;
  uint64_t last_log_term = 0;

  template <class V>
  void Fields(V& v) {
    v(group, term, candidate, last_log_index, last_log_term);
    v.Pad(40);
  }
};

/// Vote response. Carousel extension (paper §4.3.3 step 1): when the vote
/// is granted, the voter piggybacks its pending-transaction list so the
/// new leader can reconstruct fast-path prepare decisions.
struct VoteResponseMsg final
    : sim::Schema<VoteResponseMsg, sim::kRaftVoteResponse> {
  PartitionId group = kInvalidPartition;
  uint64_t term = 0;
  bool granted = false;
  NodeId voter = kInvalidNode;
  std::vector<kv::PendingTxn> pending_list;

  template <class V>
  void Fields(V& v) {
    uint32_t n = static_cast<uint32_t>(pending_list.size());
    v(group, term, voter, granted, n);
    v.Pad(24);
    v.Items(n, pending_list, PendingFields<V>);
  }

  /// One piggybacked pending entry: tid, coordinator, a 32-bit term, u16
  /// read and write key counts, both key lists, then one version per read
  /// *key* in read_keys order (not per read_versions entry: the map
  /// dedupes repeated keys). No timestamp: unlike the WAL's prepare pin
  /// (kv::EncodePendingTxn), a vote never restores prepared_at_micros.
  template <class V>
  static void PendingFields(V& v, kv::PendingTxn& txn) {
    uint32_t term32 = static_cast<uint32_t>(txn.term);
    uint16_t reads = static_cast<uint16_t>(txn.read_keys.size());
    uint16_t writes = static_cast<uint16_t>(txn.write_keys.size());
    v(txn.tid, txn.coordinator, term32, reads, writes);
    v.Items(reads, txn.read_keys);
    v.Items(writes, txn.write_keys);
    for (const Key& k : txn.read_keys) {
      auto it = txn.read_versions.find(k);
      Version version = it == txn.read_versions.end() ? 0 : it->second;
      v(version);
      if constexpr (V::kDecoding) txn.read_versions[k] = version;
    }
    if constexpr (V::kDecoding) txn.term = term32;
  }
};

struct AppendEntriesMsg final
    : sim::Schema<AppendEntriesMsg, sim::kRaftAppendEntries> {
  PartitionId group = kInvalidPartition;
  uint64_t term = 0;
  NodeId leader = kInvalidNode;
  uint64_t prev_log_index = 0;
  uint64_t prev_log_term = 0;
  uint64_t leader_commit = 0;
  std::vector<LogEntry> entries;

  template <class V>
  void Fields(V& v) {
    uint32_t n = static_cast<uint32_t>(entries.size());
    v(group, term, leader, prev_log_index, prev_log_term, leader_commit, n);
    v.Pad(48);
    v.Items(n, entries);
  }
  /// WANRT accounting: an append is attributed to every transaction whose
  /// log payload it carries, so replication legs count toward those
  /// transactions' causal hop chains.
  void CollectSpans(std::vector<sim::WanSpan>* out) const override {
    for (const auto& e : entries) {
      if (e.payload) e.payload->CollectSpans(out);
    }
  }
};

struct AppendResponseMsg final
    : sim::Schema<AppendResponseMsg, sim::kRaftAppendResponse> {
  PartitionId group = kInvalidPartition;
  uint64_t term = 0;
  bool success = false;
  NodeId follower = kInvalidNode;
  /// On success: highest index known replicated on the follower. On
  /// failure: a hint for the leader's next_index backoff.
  uint64_t match_index = 0;
  /// WANRT accounting only (zero wire bytes): spans of the transactions
  /// whose entries this ack covers, stamped by the follower when span
  /// tracking is on, so the ack leg of a replication round is attributed
  /// to the transactions it makes durable.
  std::vector<sim::WanSpan> wan_spans;

  /// wan_spans is accounting metadata: zero wire bytes, not serialized.
  template <class V>
  void Fields(V& v) {
    v(group, term, follower, success, match_index);
    v.Pad(32);
  }
  void CollectSpans(std::vector<sim::WanSpan>* out) const override {
    out->insert(out->end(), wan_spans.begin(), wan_spans.end());
  }
};

}  // namespace carousel::raft

#endif  // CAROUSEL_RAFT_MESSAGES_H_
