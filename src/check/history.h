#ifndef CAROUSEL_CHECK_HISTORY_H_
#define CAROUSEL_CHECK_HISTORY_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace carousel::check {

/// Client-visible outcome of a transaction, as recorded in a history.
enum class Outcome {
  /// The client never learned a verdict (crashed client, in-flight at end
  /// of run). The transaction may or may not have committed.
  kUnknown,
  kCommitted,
  kAborted,
  /// The client gave up after exhausting retransmissions; like kUnknown,
  /// the true verdict is indeterminate.
  kTimedOut,
};

const char* OutcomeName(Outcome outcome);

/// A coordinator-side decision event for one transaction. Several may be
/// recorded per tid (original decision, post-failover re-derivation, a 2PC
/// termination fence) — the checker requires them to agree.
struct DecisionEvent {
  NodeId coordinator = kInvalidNode;
  bool committed = false;
  std::string reason;
  SimTime at = 0;
};

/// Everything one transaction did, as observed at its client plus the
/// decision points of whichever coordinators handled it.
struct TxnRecord {
  TxnId tid;
  SimTime invoked_at = 0;
  SimTime finished_at = 0;
  bool read_only = false;
  /// Declared 2FI key sets (ReadAndPrepare arguments).
  KeyList read_keys;
  KeyList write_keys;
  /// What the read round returned: key -> (value, version).
  std::map<Key, VersionedValue> reads;
  /// What the client buffered with Write().
  WriteSet writes;
  Outcome outcome = Outcome::kUnknown;
  std::string reason;
  std::vector<DecisionEvent> decisions;

  std::string ToString() const;
};

/// Per-run history recorder: the verification subsystem's input. The
/// client library stamps invocation, observed reads, buffered writes and
/// the final client-visible outcome; coordinators stamp every decision
/// point (including post-failover re-decisions and termination fences).
/// Recording is append-only and keyed by tid; the recorder never interprets
/// the history — that is the serializability checker's job.
///
/// A null recorder pointer disables recording everywhere, mirroring how
/// TraceCollector is wired.
///
/// Recording is internally synchronized so the threaded runtime's clients
/// and servers can stamp events concurrently from their worker threads. The
/// read accessors are not: call them only after the run has quiesced
/// (simulator runs are single-threaded throughout, so they always may).
class HistoryRecorder {
 public:
  HistoryRecorder() = default;
  /// Copyable (results structs hold recorded histories by value); the copy
  /// gets its own lock.
  HistoryRecorder(const HistoryRecorder& other);
  HistoryRecorder& operator=(const HistoryRecorder& other);

  /// ---- Client-side hooks ----
  void Invoke(const TxnId& tid, const KeyList& reads, const KeyList& writes,
              bool read_only, SimTime now);
  void ObserveReads(const TxnId& tid,
                    const std::map<Key, VersionedValue>& results);
  void BufferWrite(const TxnId& tid, const Key& key, const Value& value);
  /// Final client-visible outcome; first call wins (a transaction finishes
  /// once at its client).
  void ClientOutcome(const TxnId& tid, Outcome outcome,
                     const std::string& reason, SimTime now);

  /// ---- Coordinator-side hook ----
  /// Records a commit/abort decision point. Unknown tids are recorded too:
  /// a coordinator can decide (e.g. heartbeat-abort) a transaction whose
  /// client never ran under this recorder.
  void CoordinatorDecision(const TxnId& tid, NodeId coordinator,
                           bool committed, const std::string& reason,
                           SimTime now);

  /// All records in invocation order (coordinator-only tids last, in
  /// first-decision order).
  const std::vector<TxnRecord>& records() const { return records_; }
  const TxnRecord* Find(const TxnId& tid) const;
  size_t size() const { return records_.size(); }

 private:
  TxnRecord& GetOrCreate(const TxnId& tid);

  mutable std::mutex mu_;
  std::vector<TxnRecord> records_;
  std::map<TxnId, size_t> index_;
};

}  // namespace carousel::check

#endif  // CAROUSEL_CHECK_HISTORY_H_
