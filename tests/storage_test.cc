// WAL + snapshot durability layer: write/replay round trips, torn-tail
// truncation, compaction equivalence, and the prepare-pin journal that
// keeps CPC's §4.3.3 supermajority recovery sound across SIGKILL-style
// restarts (a restarted replica must still refuse to flip a prepare it
// already refused — the PR 2 regression class).

#include "runtime/storage.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "carousel/messages.h"
#include "golden_corpus.h"
#include "kv/pending_list.h"
#include "raft/messages.h"
#include "wire/wire.h"

namespace carousel::test {
namespace {

using runtime::DurableNodeState;
using runtime::WalStorage;
using runtime::WalStorageOptions;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "carousel-storage-" + name +
                          "-" + std::to_string(::getpid());
  // WalStorage creates it; make sure no previous run's state leaks in.
  (void)::system(("rm -rf " + dir).c_str());
  return dir;
}

WalStorageOptions NoFsync() {
  WalStorageOptions options;
  options.fsync = false;
  return options;
}

sim::MessagePtr DecisionPayload(uint64_t counter, bool commit) {
  auto msg = std::make_shared<core::LogDecision>();
  msg->tid = TxnId{1, counter};
  msg->commit = commit;
  return msg;
}

sim::MessagePtr NoopPayload() { return std::make_shared<raft::NoopPayload>(); }

/// Payload equality via the canonical wire encoding.
void ExpectSamePayload(const sim::MessagePtr& a, const sim::MessagePtr& b) {
  ASSERT_EQ(a == nullptr, b == nullptr);
  if (a == nullptr) return;
  EXPECT_EQ(a->type(), b->type());
  EXPECT_EQ(wire::Encode(*a), wire::Encode(*b));
}

kv::PendingTxn SamplePin(uint64_t counter) {
  kv::PendingTxn txn;
  txn.tid = TxnId{4, counter};
  txn.read_keys = {"alpha", "beta"};
  txn.write_keys = {"beta"};
  txn.read_versions = {{"alpha", 9}, {"beta", 0}};
  txn.term = 3;
  txn.coordinator = 11;
  txn.prepared_at_micros = 1'234'567;
  return txn;
}

TEST(StorageTest, FreshDirectoryLoadsEmpty) {
  WalStorage storage(FreshDir("fresh"), wire::Codec(), NoFsync());
  DurableNodeState state;
  EXPECT_FALSE(storage.Load(&state));
  EXPECT_TRUE(state.empty());
  EXPECT_EQ(storage.torn_records(), 0u);
}

TEST(StorageTest, StateRoundTripsAcrossReopen) {
  const std::string dir = FreshDir("roundtrip");
  {
    WalStorage storage(dir, wire::Codec(), NoFsync());
    storage.PersistHardState(3, 7);
    storage.PersistLogEntry(1, 2, NoopPayload());
    storage.PersistLogEntry(2, 3, DecisionPayload(42, true));
    storage.PersistLogEntry(3, 3, nullptr);  // Null payloads are legal.
    storage.PersistCommitIndex(2);
    storage.PersistPendingAdd("a", {1, 2, 3});
    storage.PersistPendingAdd("b", {4, 5});
    storage.PersistPendingErase("a");
  }
  WalStorage reopened(dir, wire::Codec(), NoFsync());
  DurableNodeState state;
  ASSERT_TRUE(reopened.Load(&state));
  EXPECT_EQ(state.term, 3u);
  EXPECT_EQ(state.voted_for, 7);
  EXPECT_EQ(state.commit_index, 2u);
  ASSERT_EQ(state.log.size(), 3u);
  EXPECT_EQ(state.log[0].term, 2u);
  ExpectSamePayload(state.log[0].payload, NoopPayload());
  EXPECT_EQ(state.log[1].term, 3u);
  ExpectSamePayload(state.log[1].payload, DecisionPayload(42, true));
  EXPECT_EQ(state.log[2].payload, nullptr);
  ASSERT_EQ(state.pending.size(), 1u);
  EXPECT_EQ(state.pending.at("b"), (std::vector<uint8_t>{4, 5}));
}

TEST(StorageTest, ReAppendAtIndexTruncatesThePersistedSuffix) {
  const std::string dir = FreshDir("truncate");
  {
    WalStorage storage(dir, wire::Codec(), NoFsync());
    storage.PersistHardState(1, -1);
    for (uint64_t i = 1; i <= 5; ++i) {
      storage.PersistLogEntry(i, 1, DecisionPayload(i, true));
    }
    storage.PersistCommitIndex(5);
    // Raft conflict resolution: a new leader overwrites from index 3.
    storage.PersistLogEntry(3, 2, DecisionPayload(100, false));
  }
  WalStorage reopened(dir, wire::Codec(), NoFsync());
  DurableNodeState state;
  ASSERT_TRUE(reopened.Load(&state));
  ASSERT_EQ(state.log.size(), 3u);
  EXPECT_EQ(state.log[2].term, 2u);
  ExpectSamePayload(state.log[2].payload, DecisionPayload(100, false));
  // The commit watermark can never point past the surviving log.
  EXPECT_LE(state.commit_index, state.log.size());
}

TEST(StorageTest, TornTailIsTruncatedAndRecoveryContinues) {
  const std::string dir = FreshDir("torn");
  {
    WalStorage storage(dir, wire::Codec(), NoFsync());
    storage.PersistHardState(4, 2);
    storage.PersistLogEntry(1, 4, DecisionPayload(1, true));
    storage.PersistCommitIndex(1);
  }
  {
    // A crash mid-append: a record header promising more bytes than were
    // ever written.
    const int fd = ::open((dir + "/wal.log").c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd, 0);
    const uint8_t torn[] = {200, 0, 0, 0, 0xde, 0xad};  // len=200, no body.
    ASSERT_EQ(::write(fd, torn, sizeof(torn)),
              static_cast<ssize_t>(sizeof(torn)));
    ::close(fd);
  }
  {
    WalStorage reopened(dir, wire::Codec(), NoFsync());
    DurableNodeState state;
    ASSERT_TRUE(reopened.Load(&state));
    EXPECT_GE(reopened.torn_records(), 1u);
    EXPECT_EQ(state.term, 4u);
    ASSERT_EQ(state.log.size(), 1u);
    EXPECT_EQ(state.commit_index, 1u);
    // The tear was truncated away; the WAL accepts appends again.
    reopened.PersistLogEntry(2, 4, DecisionPayload(2, false));
  }
  WalStorage again(dir, wire::Codec(), NoFsync());
  DurableNodeState state;
  ASSERT_TRUE(again.Load(&state));
  EXPECT_EQ(again.torn_records(), 0u);  // Clean file after the truncation.
  ASSERT_EQ(state.log.size(), 2u);
  ExpectSamePayload(state.log[1].payload, DecisionPayload(2, false));
}

TEST(StorageTest, CorruptedRecordIsDroppedByCrc) {
  const std::string dir = FreshDir("crc");
  {
    WalStorage storage(dir, wire::Codec(), NoFsync());
    storage.PersistHardState(2, 0);
    storage.PersistLogEntry(1, 2, DecisionPayload(9, true));
  }
  {
    // Flip one byte in the last record's body.
    const int fd = ::open((dir + "/wal.log").c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    const off_t size = ::lseek(fd, 0, SEEK_END);
    ASSERT_GT(size, 4);
    uint8_t byte = 0;
    ASSERT_EQ(::pread(fd, &byte, 1, size - 1), 1);
    byte ^= 0xff;
    ASSERT_EQ(::pwrite(fd, &byte, 1, size - 1), 1);
    ::close(fd);
  }
  WalStorage reopened(dir, wire::Codec(), NoFsync());
  DurableNodeState state;
  ASSERT_TRUE(reopened.Load(&state));
  EXPECT_GE(reopened.torn_records(), 1u);
  EXPECT_EQ(state.term, 2u);       // The earlier record survives.
  EXPECT_EQ(state.log.size(), 0u);  // The corrupted one is gone.
}

TEST(StorageTest, CompactionPreservesStateAndShrinksTheWal) {
  const std::string dir = FreshDir("compact");
  DurableNodeState before;
  {
    WalStorage storage(dir, wire::Codec(), NoFsync());
    storage.PersistHardState(6, 1);
    for (uint64_t i = 1; i <= 20; ++i) {
      storage.PersistLogEntry(i, 6, DecisionPayload(i, i % 2 == 0));
    }
    storage.PersistCommitIndex(20);
    storage.PersistPendingAdd("pin", kv::EncodePendingTxn(SamplePin(5)));
    ASSERT_GT(storage.wal_bytes(), 0u);
    storage.Compact();
    EXPECT_EQ(storage.wal_bytes(), 0u);
    before = storage.state();
    // Post-compaction appends land in the fresh WAL.
    storage.PersistLogEntry(21, 6, NoopPayload());
  }
  WalStorage reopened(dir, wire::Codec(), NoFsync());
  DurableNodeState state;
  ASSERT_TRUE(reopened.Load(&state));
  EXPECT_EQ(state.term, before.term);
  EXPECT_EQ(state.voted_for, before.voted_for);
  EXPECT_EQ(state.commit_index, before.commit_index);
  ASSERT_EQ(state.log.size(), 21u);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(state.log[i].term, before.log[i].term);
    ExpectSamePayload(state.log[i].payload, before.log[i].payload);
  }
  ASSERT_EQ(state.pending.size(), 1u);
}

TEST(StorageTest, AutoCompactionKeepsStateIntact) {
  const std::string dir = FreshDir("autocompact");
  WalStorageOptions options = NoFsync();
  options.compact_threshold_bytes = 64;  // Compact after nearly every append.
  {
    WalStorage storage(dir, wire::Codec(), options);
    storage.PersistHardState(1, -1);
    for (uint64_t i = 1; i <= 10; ++i) {
      storage.PersistLogEntry(i, 1, DecisionPayload(i, true));
      storage.PersistCommitIndex(i);
    }
  }
  WalStorage reopened(dir, wire::Codec(), NoFsync());
  DurableNodeState state;
  ASSERT_TRUE(reopened.Load(&state));
  EXPECT_EQ(state.log.size(), 10u);
  EXPECT_EQ(state.commit_index, 10u);
}

// The PR 2 regression class: a refused prepare must stay refused across a
// restart. The pin journal is what makes the participant's pending set —
// the evidence §4.3.3's supermajority count inspects — outlive a SIGKILL,
// so every field CPC recovery reads must round-trip exactly.
TEST(StorageTest, PreparePinsRoundTripWithFullFidelity) {
  const std::string dir = FreshDir("pins");
  const kv::PendingTxn pin = SamplePin(77);
  {
    WalStorage storage(dir, wire::Codec(), NoFsync());
    storage.PersistPendingAdd(pin.tid.ToString(), kv::EncodePendingTxn(pin));
    storage.PersistPendingAdd("other", kv::EncodePendingTxn(SamplePin(78)));
    storage.PersistPendingErase("other");  // Decided before the crash.
  }
  WalStorage reopened(dir, wire::Codec(), NoFsync());
  DurableNodeState state;
  ASSERT_TRUE(reopened.Load(&state));
  ASSERT_EQ(state.pending.size(), 1u);
  const std::vector<uint8_t>& blob = state.pending.at(pin.tid.ToString());
  kv::PendingTxn decoded;
  ASSERT_TRUE(kv::DecodePendingTxn(blob.data(), blob.size(), &decoded));
  EXPECT_EQ(decoded.tid, pin.tid);
  EXPECT_EQ(decoded.read_keys, pin.read_keys);
  EXPECT_EQ(decoded.write_keys, pin.write_keys);
  EXPECT_EQ(decoded.read_versions, pin.read_versions);
  EXPECT_EQ(decoded.term, pin.term);
  EXPECT_EQ(decoded.coordinator, pin.coordinator);
  EXPECT_EQ(decoded.prepared_at_micros, pin.prepared_at_micros);
}

TEST(StorageTest, PendingDecoderRejectsMalformedBlobs) {
  const std::vector<uint8_t> good = kv::EncodePendingTxn(SamplePin(1));
  kv::PendingTxn out;
  ASSERT_TRUE(kv::DecodePendingTxn(good.data(), good.size(), &out));
  // Every strict prefix must be rejected, never crash.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(kv::DecodePendingTxn(good.data(), cut, &out))
        << "accepted a " << cut << "-byte prefix";
  }
  // A key-count field pointing past the buffer must be rejected too. The
  // read_keys count sits right after the 32-byte fixed header (tid.client
  // u32 + tid.counter u64 + term u64 + coordinator u32 + prepared u64).
  std::vector<uint8_t> huge = good;
  huge[32] = 0xff;  // read_keys count, little-endian low byte.
  EXPECT_FALSE(kv::DecodePendingTxn(huge.data(), huge.size(), &out));
}

TEST(StorageTest, CommitIndexIsClampedToTheRecoveredLog) {
  const std::string dir = FreshDir("clamp");
  {
    WalStorage storage(dir, wire::Codec(), NoFsync());
    storage.PersistHardState(1, -1);
    storage.PersistLogEntry(1, 1, NoopPayload());
    storage.PersistLogEntry(2, 1, NoopPayload());
    // A watermark ahead of the log (as a torn multi-record write could
    // leave behind) must not survive recovery.
    storage.PersistCommitIndex(9);
  }
  WalStorage reopened(dir, wire::Codec(), NoFsync());
  DurableNodeState state;
  ASSERT_TRUE(reopened.Load(&state));
  EXPECT_EQ(state.log.size(), 2u);
  EXPECT_LE(state.commit_index, 2u);
}

// The on-disk formats, pinned: the WAL and snapshot bytes a fixed
// Persist*/Compact sequence leaves behind, before and after compaction.

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

std::map<std::string, std::string> StorageGoldenValues() {
  const std::string dir = FreshDir("golden");
  std::map<std::string, std::string> values;
  auto record = [&](const std::string& name, const std::string& file) {
    const std::vector<uint8_t> bytes = FileBytes(dir + "/" + file);
    values[name] = GoldenValue(bytes.size(), bytes);
  };
  WalStorage storage(dir, wire::Codec(), NoFsync());
  storage.PersistHardState(3, 7);
  storage.PersistLogEntry(1, 2, NoopPayload());
  storage.PersistLogEntry(2, 3, DecisionPayload(42, true));
  storage.PersistLogEntry(3, 3, nullptr);
  auto commit = std::make_shared<core::LogCommit>();
  commit->tid = TxnId{4, 77};
  commit->coordinator = 2;
  commit->commit = true;
  commit->writes = {{"alpha", "one"}, {"beta", ""}};
  storage.PersistLogEntry(4, 3, commit);
  storage.PersistCommitIndex(2);
  storage.PersistPendingAdd("4.77", kv::EncodePendingTxn(SamplePin(77)));
  storage.PersistPendingAdd("b", {4, 5});
  storage.PersistPendingErase("b");
  record("wal.log", "wal.log");
  storage.Compact();
  record("snapshot.bin", "snapshot.bin");
  storage.PersistLogEntry(5, 4, DecisionPayload(43, false));
  storage.PersistPendingErase("4.77");
  record("wal.log.after_compact", "wal.log");
  return values;
}

TEST(StorageGoldenTest, WalAndSnapshotBytesMatchTheRecordedCorpus) {
  ExpectMatchesGoldenCorpus(
      std::string(CAROUSEL_CORPUS_DIR) + "/storage_golden.txt",
      StorageGoldenValues());
}

// Fail-stop: a storage error must stop the node, never let it go on
// acknowledging state it did not persist.

TEST(StorageDeathTest, UnopenableWalAborts) {
  const std::string dir = FreshDir("wal-is-dir");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  ASSERT_EQ(::mkdir((dir + "/wal.log").c_str(), 0755), 0);
  EXPECT_DEATH(WalStorage(dir, wire::Codec(), NoFsync()),
               "wal\\.log.*Is a directory");
}

/// Caps this process's file size: a write past it fails with EFBIG once
/// SIGXFSZ, which would otherwise kill the process first, is ignored.
void CapFileSize(rlim_t bytes) {
  struct rlimit limit;
  limit.rlim_cur = bytes;
  limit.rlim_max = bytes;
  ::setrlimit(RLIMIT_FSIZE, &limit);
  std::signal(SIGXFSZ, SIG_IGN);
}

TEST(StorageDeathTest, FailedWalWriteAborts) {
  const std::string dir = FreshDir("wal-fsize");
  WalStorage storage(dir, wire::Codec(), NoFsync());
  storage.PersistHardState(1, -1);
  EXPECT_DEATH(
      {
        CapFileSize(4096);
        storage.PersistPendingAdd("big", std::vector<uint8_t>(8192, 1));
      },
      "wal\\.log.*File too large");
}

}  // namespace
}  // namespace carousel::test
