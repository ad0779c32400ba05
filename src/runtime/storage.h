#ifndef CAROUSEL_RUNTIME_STORAGE_H_
#define CAROUSEL_RUNTIME_STORAGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "runtime/runtime.h"
#include "runtime/threaded.h"

namespace carousel::runtime {

/// Everything a node must rediscover after a SIGKILL-style restart. The
/// Raft hard state, log and commit index reconstruct the replicated state
/// machine (participant/coordinator decision state is rebuilt by replaying
/// the applied prefix); the pending blobs are the CPC fast-path prepare
/// pins (kv::PendingTxn, serialized by the hosting server) — tentative
/// votes that were never in the Raft log but that §4.3.3's supermajority
/// recovery counts on, so a durable deployment syncs them like votedFor.
struct DurableNodeState {
  uint64_t term = 0;
  NodeId voted_for = kInvalidNode;
  uint64_t commit_index = 0;

  struct LogEntry {
    uint64_t term = 0;
    /// Message type tag of `payload` (< 0 when the payload is null).
    int payload_type = -1;
    MessagePtr payload;
  };
  std::vector<LogEntry> log;

  /// Opaque prepare-pin records, keyed by the owner's transaction-id key.
  std::map<std::string, std::vector<uint8_t>> pending;

  /// True when nothing was ever persisted — a genuinely fresh node (the
  /// bootstrap path). Any started node has at least term 1 on disk.
  bool empty() const { return term == 0 && log.empty() && pending.empty(); }
};

/// Durable node state for the threaded backend, wired through NodeEnv.
/// Null under the simulator (crashes there are process pauses with
/// in-memory "durable" state, so nothing needs a disk). All methods are
/// called from the owning node's event loop only (on its worker thread),
/// except Load, which the harness may call before the loop starts. A WAL
/// append with fsync blocks that worker, and with it every other node the
/// worker serves.
class Storage {
 public:
  virtual ~Storage() = default;

  /// Raft hard state (term, votedFor); must be on disk before the vote or
  /// ballot it protects leaves the node.
  virtual void PersistHardState(uint64_t term, NodeId voted_for) = 0;

  /// Commit watermark; replayed entries up to it re-apply on restart.
  virtual void PersistCommitIndex(uint64_t commit_index) = 0;

  /// Appends log entry `index` (1-based), implicitly truncating any
  /// previously persisted suffix at >= index (Raft conflict resolution).
  virtual void PersistLogEntry(uint64_t index, uint64_t term,
                               const MessagePtr& payload) = 0;

  /// Upserts / erases a prepare-pin blob under `key`.
  virtual void PersistPendingAdd(const std::string& key,
                                 std::vector<uint8_t> blob) = 0;
  virtual void PersistPendingErase(const std::string& key) = 0;

  /// Reads back the persisted state (memoized after the first call, so
  /// both the Raft member and the hosting server can consume it). Returns
  /// false when nothing was recovered.
  virtual bool Load(DurableNodeState* out) = 0;

  /// Folds the WAL into a snapshot (crash-safe: tmp + rename) and
  /// truncates it.
  virtual void Compact() = 0;
};

struct WalStorageOptions {
  /// fsync after every WAL append and snapshot. The RT chaos harness
  /// turns this off: its kill model stops threads inside one process, so
  /// page-cache contents survive and the fsync cost buys nothing.
  bool fsync = true;
  /// Auto-compact once the WAL grows past this many bytes (0 = manual
  /// Compact() only).
  size_t compact_threshold_bytes = 8u << 20;
};

/// File-backed Storage: an append-only WAL (`wal.log`) of CRC-framed
/// records replayed over an atomic snapshot (`snapshot.bin`, written
/// tmp-then-rename). A torn final record — the partial write of a crash —
/// is detected by length/CRC and truncated away on load; everything
/// before it is recovered. Log payloads are serialized with the same
/// injected wire codec the TCP transport uses, so the WAL speaks the
/// protocol's canonical byte format and the runtime library stays
/// independent of the codec implementation. Storage errors fail-stop: any
/// failed open, read, write, fsync, rename or truncate aborts the process
/// with the path and errno, since a node that carried on would acknowledge
/// state it never persisted.
class WalStorage final : public Storage {
 public:
  /// Creates `dir` (recursively) if missing and loads any existing state.
  WalStorage(std::string dir, WireCodec codec, WalStorageOptions options = {});
  ~WalStorage() override;

  WalStorage(const WalStorage&) = delete;
  WalStorage& operator=(const WalStorage&) = delete;

  void PersistHardState(uint64_t term, NodeId voted_for) override;
  void PersistCommitIndex(uint64_t commit_index) override;
  void PersistLogEntry(uint64_t index, uint64_t term,
                       const MessagePtr& payload) override;
  void PersistPendingAdd(const std::string& key,
                         std::vector<uint8_t> blob) override;
  void PersistPendingErase(const std::string& key) override;
  bool Load(DurableNodeState* out) override;
  void Compact() override;

  /// The recovered + live mirror (what Load copies out).
  const DurableNodeState& state() const { return state_; }
  /// Records dropped on load because of a torn tail or CRC mismatch.
  size_t torn_records() const { return torn_records_; }
  /// Bytes currently in the WAL (drops to 0 after Compact).
  size_t wal_bytes() const { return wal_bytes_; }

 private:
  void LoadFromDisk();
  bool LoadSnapshot();
  void ReplayWal();
  /// Fills in `rec`'s header (see NewRecord in storage.cc) and appends it.
  void AppendRecord(std::vector<uint8_t>& rec);
  void MaybeAutoCompact();

  std::string dir_;
  std::string wal_path_;
  WireCodec codec_;
  WalStorageOptions options_;
  int wal_fd_ = -1;
  size_t wal_bytes_ = 0;
  size_t torn_records_ = 0;
  bool recovered_any_ = false;
  DurableNodeState state_;
};

}  // namespace carousel::runtime

#endif  // CAROUSEL_RUNTIME_STORAGE_H_
