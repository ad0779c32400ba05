#include "wire/wire.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "carousel/messages.h"
#include "golden_corpus.h"
#include "raft/messages.h"
#include "sim/message.h"
#include "tapir/messages.h"

namespace carousel {
namespace {

// ---------------------------------------------------------------------------
// Sample construction: for every registered type, a default-constructed
// instance and one with every field populated (nested payloads included).
// ---------------------------------------------------------------------------

TxnId Tid() { return TxnId{3, 77}; }
KeyList SampleKeys() { return {"alpha", "k2", ""}; }
WriteSet SampleWrites() { return {{"alpha", "value-1"}, {"beta", ""}}; }
ReadVersionMap SampleVersions() { return {{"alpha", 5}, {"k2", 0}}; }
std::map<Key, VersionedValue> SampleReads() {
  return {{"alpha", {"val", 9}}, {"k2", {"", 0}}};
}
std::map<PartitionId, core::RwKeys> SamplePartitionKeys() {
  return {{0, {SampleKeys(), {"w1"}}}, {2, {{}, SampleKeys()}}};
}

kv::PendingTxn SamplePendingTxn() {
  kv::PendingTxn txn;
  txn.tid = Tid();
  txn.read_keys = {"alpha", "k2"};
  txn.write_keys = {"w1"};
  // The codec carries one version per read key; the pending list always
  // records all of them.
  txn.read_versions = {{"alpha", 4}, {"k2", 0}};
  txn.term = 6;
  txn.coordinator = 11;
  // prepared_at_micros is local bookkeeping, never serialized.
  return txn;
}

template <typename T, typename Fill>
std::vector<std::shared_ptr<sim::Message>> Pair(Fill fill) {
  auto populated = std::make_shared<T>();
  fill(*populated);
  return {std::make_shared<T>(), populated};
}

std::vector<std::shared_ptr<sim::Message>> Samples(int type) {
  switch (type) {
    case sim::kBatchEnvelope:
      return Pair<sim::BatchEnvelopeMsg>([](sim::BatchEnvelopeMsg& m) {
        auto hb = std::make_shared<core::HeartbeatMsg>();
        hb->tid = Tid();
        hb->client = 9;
        auto ack = std::make_shared<core::WritebackAckMsg>();
        ack->tid = Tid();
        ack->partition = 2;
        m.items = {hb, ack};
      });

    case sim::kRaftRequestVote:
      return Pair<raft::RequestVoteMsg>([](raft::RequestVoteMsg& m) {
        m.group = 1;
        m.term = 9;
        m.candidate = 4;
        m.last_log_index = 100;
        m.last_log_term = 8;
      });
    case sim::kRaftVoteResponse:
      return Pair<raft::VoteResponseMsg>([](raft::VoteResponseMsg& m) {
        m.group = 1;
        m.term = 9;
        m.granted = true;
        m.voter = 5;
        m.pending_list = {SamplePendingTxn()};
      });
    case sim::kRaftAppendEntries:
      return Pair<raft::AppendEntriesMsg>([](raft::AppendEntriesMsg& m) {
        m.group = 2;
        m.term = 7;
        m.leader = 3;
        m.prev_log_index = 41;
        m.prev_log_term = 6;
        m.leader_commit = 40;
        auto commit = std::make_shared<core::LogCommit>();
        commit->tid = Tid();
        commit->coordinator = 8;
        commit->commit = true;
        commit->writes = SampleWrites();
        m.entries.push_back(raft::LogEntry{7, commit});
        m.entries.push_back(
            raft::LogEntry{7, std::make_shared<raft::NoopPayload>()});
        m.entries.push_back(raft::LogEntry{6, nullptr});
      });
    case sim::kRaftAppendResponse:
      return Pair<raft::AppendResponseMsg>([](raft::AppendResponseMsg& m) {
        m.group = 2;
        m.term = 7;
        m.success = true;
        m.follower = 4;
        m.match_index = 44;
      });

    case sim::kCarouselReadPrepare:
      return Pair<core::ReadPrepareMsg>([](core::ReadPrepareMsg& m) {
        m.tid = Tid();
        m.partition = 1;
        m.client = 12;
        m.coordinator = 4;
        m.read_keys = SampleKeys();
        m.write_keys = {"w1"};
        m.read_only = true;
        m.fast_path = true;
        m.want_data = true;
        m.is_retry = true;
        m.attempt = 3;
      });
    case sim::kCarouselReadResponse:
      return Pair<core::ReadResponseMsg>([](core::ReadResponseMsg& m) {
        m.tid = Tid();
        m.partition = 1;
        m.ok = false;
        m.from_leader = false;
        m.attempt = 2;
        m.reads = SampleReads();
      });
    case sim::kCarouselPrepareDecision:
      return Pair<core::PrepareDecisionMsg>([](core::PrepareDecisionMsg& m) {
        m.tid = Tid();
        m.partition = 1;
        m.replica = 6;
        m.is_leader = true;
        m.via_fast_path = true;
        m.prepared = true;
        m.read_versions = SampleVersions();
        m.term = 5;
      });
    case sim::kCarouselCoordPrepare:
      return Pair<core::CoordPrepareMsg>([](core::CoordPrepareMsg& m) {
        m.tid = Tid();
        m.client = 12;
        m.fast_path = true;
        m.keys = SamplePartitionKeys();
      });
    case sim::kCarouselCommitRequest:
      return Pair<core::CommitRequestMsg>([](core::CommitRequestMsg& m) {
        m.tid = Tid();
        m.client = 12;
        m.writes = SampleWrites();
        m.read_versions = SampleVersions();
        m.keys = SamplePartitionKeys();
      });
    case sim::kCarouselAbortRequest:
      return Pair<core::AbortRequestMsg>([](core::AbortRequestMsg& m) {
        m.tid = Tid();
        m.client = 12;
      });
    case sim::kCarouselCommitResponse:
      return Pair<core::CommitResponseMsg>([](core::CommitResponseMsg& m) {
        m.tid = Tid();
        m.committed = false;
        m.reason = "conflict";
      });
    case sim::kCarouselWriteback:
      return Pair<core::WritebackMsg>([](core::WritebackMsg& m) {
        m.tid = Tid();
        m.partition = 1;
        m.coordinator = 4;
        m.commit = true;
        m.writes = SampleWrites();
      });
    case sim::kCarouselWritebackAck:
      return Pair<core::WritebackAckMsg>([](core::WritebackAckMsg& m) {
        m.tid = Tid();
        m.partition = 1;
      });
    case sim::kCarouselHeartbeat:
      return Pair<core::HeartbeatMsg>([](core::HeartbeatMsg& m) {
        m.tid = Tid();
        m.client = 12;
      });
    case sim::kCarouselQueryPrepare:
      return Pair<core::QueryPrepareMsg>([](core::QueryPrepareMsg& m) {
        m.tid = Tid();
        m.partition = 1;
        m.coordinator = 4;
        m.read_keys = SampleKeys();
        m.write_keys = {"w1"};
      });
    case sim::kCarouselNotLeader:
      return Pair<core::NotLeaderMsg>([](core::NotLeaderMsg& m) {
        m.tid = Tid();
        m.partition = 1;
        m.leader_hint = 7;
      });
    case sim::kCarouselQueryDecision:
      return Pair<core::QueryDecisionMsg>([](core::QueryDecisionMsg& m) {
        m.tid = Tid();
        m.partition = 1;
      });

    case sim::kLogTxnInfo:
      return Pair<core::LogTxnInfo>([](core::LogTxnInfo& m) {
        m.tid = Tid();
        m.client = 12;
        m.fast_path = true;
        m.keys = SamplePartitionKeys();
      });
    case sim::kLogWriteData:
      return Pair<core::LogWriteData>([](core::LogWriteData& m) {
        m.tid = Tid();
        m.writes = SampleWrites();
        m.client_versions = SampleVersions();
      });
    case sim::kLogDecision:
      return Pair<core::LogDecision>([](core::LogDecision& m) {
        m.tid = Tid();
        m.commit = true;
      });
    case sim::kLogPrepareResult:
      return Pair<core::LogPrepareResult>([](core::LogPrepareResult& m) {
        m.tid = Tid();
        m.coordinator = 4;
        m.prepared = true;
        m.read_keys = SampleKeys();
        m.write_keys = {"w1"};
        m.read_versions = SampleVersions();
        m.term = 5;
      });
    case sim::kLogCommit:
      return Pair<core::LogCommit>([](core::LogCommit& m) {
        m.tid = Tid();
        m.coordinator = 4;
        m.commit = true;
        m.writes = SampleWrites();
      });
    case sim::kLogNoop:
      return Pair<raft::NoopPayload>([](raft::NoopPayload&) {});

    case sim::kTapirRead:
      return Pair<tapir::TapirReadMsg>([](tapir::TapirReadMsg& m) {
        m.tid = Tid();
        m.partition = 1;
        m.client = 12;
        m.keys = SampleKeys();
      });
    case sim::kTapirReadReply:
      return Pair<tapir::TapirReadReplyMsg>([](tapir::TapirReadReplyMsg& m) {
        m.tid = Tid();
        m.partition = 1;
        m.reads = SampleReads();
      });
    case sim::kTapirPrepare:
      return Pair<tapir::TapirPrepareMsg>([](tapir::TapirPrepareMsg& m) {
        m.tid = Tid();
        m.partition = 1;
        m.client = 12;
        m.timestamp = 1234567;
        m.read_versions = SampleVersions();
        m.writes = SampleWrites();
      });
    case sim::kTapirPrepareReply:
      return Pair<tapir::TapirPrepareReplyMsg>(
          [](tapir::TapirPrepareReplyMsg& m) {
            m.tid = Tid();
            m.partition = 1;
            m.replica = 6;
            m.vote = tapir::Vote::kAbort;
          });
    case sim::kTapirFinalize:
      return Pair<tapir::TapirFinalizeMsg>([](tapir::TapirFinalizeMsg& m) {
        m.tid = Tid();
        m.partition = 1;
        m.vote = tapir::Vote::kOk;
      });
    case sim::kTapirFinalizeReply:
      return Pair<tapir::TapirFinalizeReplyMsg>(
          [](tapir::TapirFinalizeReplyMsg& m) {
            m.tid = Tid();
            m.partition = 1;
            m.replica = 6;
          });
    case sim::kTapirDecide:
      return Pair<tapir::TapirDecideMsg>([](tapir::TapirDecideMsg& m) {
        m.tid = Tid();
        m.partition = 1;
        m.commit = true;
        m.timestamp = 1234567;
        m.writes = SampleWrites();
      });
    case sim::kTapirDecideAck:
      return Pair<tapir::TapirDecideAckMsg>([](tapir::TapirDecideAckMsg& m) {
        m.tid = Tid();
        m.partition = 1;
        m.replica = 6;
      });
  }
  return {};
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

TEST(WireTest, RegistryCoversEveryProtocolType) {
  // Everything that can cross the network or ride in a replicated log.
  // (kPing/kPong are test-local fixtures, deliberately absent.)
  const std::vector<int> expected = {
      sim::kBatchEnvelope,          sim::kRaftRequestVote,
      sim::kRaftVoteResponse,       sim::kRaftAppendEntries,
      sim::kRaftAppendResponse,     sim::kCarouselReadPrepare,
      sim::kCarouselReadResponse,   sim::kCarouselPrepareDecision,
      sim::kCarouselCoordPrepare,   sim::kCarouselCommitRequest,
      sim::kCarouselAbortRequest,   sim::kCarouselCommitResponse,
      sim::kCarouselWriteback,      sim::kCarouselWritebackAck,
      sim::kCarouselHeartbeat,      sim::kCarouselQueryPrepare,
      sim::kCarouselNotLeader,      sim::kCarouselQueryDecision,
      sim::kLogTxnInfo,             sim::kLogWriteData,
      sim::kLogDecision,            sim::kLogPrepareResult,
      sim::kLogCommit,              sim::kLogNoop,
      sim::kTapirRead,              sim::kTapirReadReply,
      sim::kTapirPrepare,           sim::kTapirPrepareReply,
      sim::kTapirFinalize,          sim::kTapirFinalizeReply,
      sim::kTapirDecide,            sim::kTapirDecideAck,
  };
  for (int type : expected) {
    EXPECT_TRUE(wire::Encodable(type)) << "type " << type << " not registered";
  }
  EXPECT_EQ(wire::RegisteredTypes().size(), expected.size());
}

/// The size property the threaded transport relies on: the encoded payload
/// is byte-for-byte the size the simulator's bandwidth accounting charges.
/// The round-trip property: decode(encode(m)) re-encodes to identical
/// bytes (fields survive; the encoding is canonical).
TEST(WireTest, EveryRegisteredTypeRoundTripsAtItsAccountedSize) {
  for (int type : wire::RegisteredTypes()) {
    auto samples = Samples(type);
    ASSERT_FALSE(samples.empty()) << "no sample builder for type " << type;
    for (const auto& msg : samples) {
      ASSERT_EQ(msg->type(), type);
      const std::vector<uint8_t> bytes = wire::Encode(*msg);
      EXPECT_EQ(bytes.size(), msg->SizeBytes())
          << "encoded size != SizeBytes for type " << type;

      sim::MessagePtr decoded = wire::Decode(type, bytes.data(), bytes.size());
      ASSERT_NE(decoded, nullptr) << "decode failed for type " << type;
      EXPECT_EQ(decoded->type(), type);
      EXPECT_EQ(decoded->SizeBytes(), msg->SizeBytes());
      EXPECT_EQ(wire::Encode(*decoded), bytes)
          << "re-encode mismatch for type " << type;
    }
  }
}

TEST(WireTest, FieldFidelitySpotChecks) {
  {  // Rich flat message.
    auto samples = Samples(sim::kCarouselReadPrepare);
    const auto bytes = wire::Encode(*samples[1]);
    auto decoded = wire::Decode(sim::kCarouselReadPrepare, bytes.data(),
                                bytes.size());
    ASSERT_NE(decoded, nullptr);
    const auto& m = sim::As<core::ReadPrepareMsg>(*decoded);
    EXPECT_EQ(m.tid, Tid());
    EXPECT_EQ(m.partition, 1);
    EXPECT_EQ(m.client, 12);
    EXPECT_EQ(m.coordinator, 4);
    EXPECT_EQ(m.read_keys, SampleKeys());
    EXPECT_EQ(m.write_keys, KeyList{"w1"});
    EXPECT_TRUE(m.read_only);
    EXPECT_TRUE(m.fast_path);
    EXPECT_TRUE(m.want_data);
    EXPECT_TRUE(m.is_retry);
    EXPECT_EQ(m.attempt, 3u);
  }
  {  // Nested log payloads survive an AppendEntries round trip.
    auto samples = Samples(sim::kRaftAppendEntries);
    const auto bytes = wire::Encode(*samples[1]);
    auto decoded =
        wire::Decode(sim::kRaftAppendEntries, bytes.data(), bytes.size());
    ASSERT_NE(decoded, nullptr);
    const auto& m = sim::As<raft::AppendEntriesMsg>(*decoded);
    ASSERT_EQ(m.entries.size(), 3u);
    ASSERT_NE(m.entries[0].payload, nullptr);
    const auto& commit = sim::As<core::LogCommit>(*m.entries[0].payload);
    EXPECT_EQ(commit.tid, Tid());
    EXPECT_TRUE(commit.commit);
    EXPECT_EQ(commit.writes, SampleWrites());
    ASSERT_NE(m.entries[1].payload, nullptr);
    EXPECT_EQ(m.entries[1].payload->type(), sim::kLogNoop);
    EXPECT_EQ(m.entries[2].payload, nullptr);
  }
  {  // Pending-transaction piggyback on votes (recovery input).
    auto samples = Samples(sim::kRaftVoteResponse);
    const auto bytes = wire::Encode(*samples[1]);
    auto decoded =
        wire::Decode(sim::kRaftVoteResponse, bytes.data(), bytes.size());
    ASSERT_NE(decoded, nullptr);
    const auto& m = sim::As<raft::VoteResponseMsg>(*decoded);
    ASSERT_EQ(m.pending_list.size(), 1u);
    const kv::PendingTxn& txn = m.pending_list[0];
    const kv::PendingTxn sample = SamplePendingTxn();
    EXPECT_EQ(txn.tid, sample.tid);
    EXPECT_EQ(txn.read_keys, sample.read_keys);
    EXPECT_EQ(txn.write_keys, sample.write_keys);
    EXPECT_EQ(txn.read_versions, sample.read_versions);
    EXPECT_EQ(txn.term, sample.term);
    EXPECT_EQ(txn.coordinator, sample.coordinator);
  }
  {  // Batch envelope items are unwrapped intact.
    auto samples = Samples(sim::kBatchEnvelope);
    const auto bytes = wire::Encode(*samples[1]);
    auto decoded =
        wire::Decode(sim::kBatchEnvelope, bytes.data(), bytes.size());
    ASSERT_NE(decoded, nullptr);
    const auto& m = sim::As<sim::BatchEnvelopeMsg>(*decoded);
    ASSERT_EQ(m.items.size(), 2u);
    EXPECT_EQ(m.items[0]->type(), sim::kCarouselHeartbeat);
    EXPECT_EQ(sim::As<core::HeartbeatMsg>(*m.items[0]).client, 9);
    EXPECT_EQ(m.items[1]->type(), sim::kCarouselWritebackAck);
  }
}

TEST(WireTest, TruncatedInputDecodesToNull) {
  for (int type : wire::RegisteredTypes()) {
    auto samples = Samples(type);
    const auto bytes = wire::Encode(*samples[1]);
    ASSERT_FALSE(bytes.empty());
    // Every strict prefix must be rejected, never crash or mis-decode.
    for (size_t cut : {size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
      if (cut >= bytes.size()) continue;
      EXPECT_EQ(wire::Decode(type, bytes.data(), cut), nullptr)
          << "type " << type << " accepted a " << cut << "-byte prefix of "
          << bytes.size();
    }
  }
}

struct PingProbe final : sim::Message {
  int type() const override { return sim::kPing; }
  size_t SizeBytes() const override { return 100; }
};

TEST(WireTest, UnknownTypeIsRejected) {
  EXPECT_FALSE(wire::Encodable(sim::kPing));
  EXPECT_EQ(wire::Encode(PingProbe{}).size(), 0u);
  const uint8_t junk[16] = {};
  EXPECT_EQ(wire::Decode(9999, junk, sizeof(junk)), nullptr);
}

// ---------------------------------------------------------------------------
// Fuzz: the decoders sit on the network boundary, so any byte sequence a
// peer (or a bit-flipping link) can produce must either be rejected or
// decode to a self-consistent message — never read out of bounds or crash.
// The seeds are fixed so failures replay; the ASan CI leg is what gives
// the out-of-bounds claims teeth.

/// A decoder may accept a mutated buffer only if the result is
/// self-consistent: it re-encodes at its own accounted size.
void ExpectRejectedOrSelfConsistent(int type, const std::vector<uint8_t>& bytes,
                                    const char* what) {
  auto decoded = wire::Decode(type, bytes.data(), bytes.size());
  if (decoded == nullptr) return;
  EXPECT_EQ(decoded->type(), type) << what << " for type " << type;
  const auto reencoded = wire::Encode(*decoded);
  EXPECT_EQ(reencoded.size(), decoded->SizeBytes())
      << what << " decoded type " << type
      << " to a message that re-encodes at the wrong size";
}

TEST(WireFuzzTest, MutatedEncodingsNeverCrashTheDecoders) {
  std::mt19937_64 rng(0xca70u);  // Fixed seed: failures must replay.
  for (int type : wire::RegisteredTypes()) {
    for (const auto& sample : Samples(type)) {
      const std::vector<uint8_t> base = wire::Encode(*sample);
      for (int round = 0; round < 250; ++round) {
        std::vector<uint8_t> bytes = base;
        const int mutations = 1 + static_cast<int>(rng() % 3);
        for (int m = 0; m < mutations; ++m) {
          switch (rng() % 4) {
            case 0:  // Flip one bit somewhere.
              if (!bytes.empty()) {
                bytes[rng() % bytes.size()] ^=
                    static_cast<uint8_t>(1u << (rng() % 8));
              }
              break;
            case 1:  // Truncate at a random point.
              bytes.resize(bytes.empty() ? 0 : rng() % bytes.size());
              break;
            case 2:  // Extend with random junk.
              for (uint64_t n = 1 + rng() % 16; n > 0; --n) {
                bytes.push_back(static_cast<uint8_t>(rng()));
              }
              break;
            default:  // Saturate a 4-byte window: the length-field attack.
              if (bytes.size() >= 4) {
                const size_t at = rng() % (bytes.size() - 3);
                for (size_t i = 0; i < 4; ++i) bytes[at + i] = 0xff;
              }
              break;
          }
        }
        ExpectRejectedOrSelfConsistent(type, bytes, "mutation");
      }
    }
  }
}

TEST(WireFuzzTest, SplicedEncodingsNeverCrashTheDecoders) {
  // A prefix of one type's encoding grafted onto a suffix of another's,
  // decoded as either type: simulates framing bugs that hand a decoder
  // the wrong (but individually well-formed) payload.
  std::mt19937_64 rng(0x5e1fu);
  const std::vector<int> types = wire::RegisteredTypes();
  for (int round = 0; round < 2000; ++round) {
    const int ta = types[rng() % types.size()];
    const int tb = types[rng() % types.size()];
    const auto a = wire::Encode(*Samples(ta)[1]);
    const auto b = wire::Encode(*Samples(tb)[1]);
    std::vector<uint8_t> spliced(a.begin(), a.begin() + rng() % (a.size() + 1));
    spliced.insert(spliced.end(), b.begin() + rng() % (b.size() + 1), b.end());
    ExpectRejectedOrSelfConsistent(ta, spliced, "splice");
    ExpectRejectedOrSelfConsistent(tb, spliced, "splice");
  }
}

TEST(WireFuzzTest, RandomBytesNeverCrashTheDecoders) {
  std::mt19937_64 rng(0xf00du);
  for (int type : wire::RegisteredTypes()) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{32},
                       size_t{128}, size_t{1024}}) {
      for (int round = 0; round < 40; ++round) {
        std::vector<uint8_t> bytes(len);
        for (auto& byte : bytes) byte = static_cast<uint8_t>(rng());
        ExpectRejectedOrSelfConsistent(type, bytes, "random bytes");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden corpus: the byte format itself, recorded once and pinned. Every
// sample above ("<type>.<sample>", with its SizeBytes) plus the
// prepare-pin blob kv::EncodePendingTxn makes of SamplePendingTxn().

std::map<std::string, std::string> WireGoldenValues() {
  std::map<std::string, std::string> values;
  for (int type : wire::RegisteredTypes()) {
    const auto samples = Samples(type);
    for (size_t i = 0; i < samples.size(); ++i) {
      values[std::to_string(type) + "." + std::to_string(i)] =
          test::GoldenValue(samples[i]->SizeBytes(), wire::Encode(*samples[i]));
    }
  }
  const std::vector<uint8_t> pin = kv::EncodePendingTxn(SamplePendingTxn());
  values["pending_txn"] = test::GoldenValue(pin.size(), pin);
  return values;
}

TEST(WireGoldenTest, EncodingsMatchTheRecordedCorpus) {
  test::ExpectMatchesGoldenCorpus(
      std::string(CAROUSEL_CORPUS_DIR) + "/wire_golden.txt",
      WireGoldenValues());
}

// Nested payloads: a type-0 slot means "no payload". A Raft log entry may
// legitimately carry none; a batch item may not, because receivers
// dereference every item.

TEST(WireTest, BatchItemOfTypeZeroRejectsTheWholeEnvelope) {
  // Item count 1 in the 8-byte header, then one item: type 0, length 0.
  std::vector<uint8_t> bytes(16, 0);
  bytes[0] = 1;
  EXPECT_EQ(wire::Decode(sim::kBatchEnvelope, bytes.data(), bytes.size()),
            nullptr);
}

TEST(WireTest, AppendEntryOfTypeZeroDecodesToANullPayload) {
  // Entry count 1 at offset 40 of the 48-byte header, then one entry:
  // term 5, payload type 0, length 0.
  std::vector<uint8_t> bytes(48 + 16, 0);
  bytes[40] = 1;
  bytes[48] = 5;
  const auto decoded =
      wire::Decode(sim::kRaftAppendEntries, bytes.data(), bytes.size());
  ASSERT_NE(decoded, nullptr);
  const auto& m = sim::As<raft::AppendEntriesMsg>(*decoded);
  ASSERT_EQ(m.entries.size(), 1u);
  EXPECT_EQ(m.entries[0].term, 5u);
  EXPECT_EQ(m.entries[0].payload, nullptr);
}

}  // namespace
}  // namespace carousel
