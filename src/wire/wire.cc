#include "wire/wire.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <string>

#include "carousel/messages.h"
#include "common/bytes.h"
#include "raft/messages.h"
#include "runtime/arena.h"
#include "tapir/messages.h"

namespace carousel::wire {
namespace {

void EncodeAny(const sim::Message& msg, std::vector<uint8_t>* out);
sim::MessagePtr DecodeAny(int type, const uint8_t* data, size_t len);

/// Writes a message's Fields. Pad offsets are relative to where the
/// message starts, so an embedded payload encodes in place with a nested
/// Encoder over the same buffer.
class Encoder final : public sim::FieldVisitor<Encoder> {
 public:
  static constexpr bool kDecoding = false;

  explicit Encoder(std::vector<uint8_t>* out) : out_(out), w_(out) {}

  template <class T>
  void Fixed(T& x) {
    w_.Int(x);
  }
  void Bytes(size_t, std::string& s) { w_.Bytes(s); }
  void Pad(size_t n) {
    assert(w_.written() <= n);  // The header fields must fit their budget.
    w_.PadTo(n);
  }
  void Nested(sim::MessagePtr& m, bool) {
    w_.U32(m == nullptr ? 0 : static_cast<uint32_t>(m->type()));
    const size_t len_at = out_->size();
    w_.U32(0);
    if (m == nullptr) return;
    EncodeAny(*m, out_);
    StoreU32(out_->data() + len_at,
             static_cast<uint32_t>(out_->size() - len_at - 4));
  }

 private:
  std::vector<uint8_t>* out_;
  ByteWriter w_;
};

/// Reads a message's Fields. Underflow anywhere latches !ok() and the
/// whole message decodes to null.
class Decoder final : public sim::FieldVisitor<Decoder> {
 public:
  static constexpr bool kDecoding = true;

  Decoder(const uint8_t* data, size_t len) : r_(data, len) {}

  template <class T>
  void Fixed(T& x) {
    x = r_.Int<T>();
  }
  void Bytes(size_t n, std::string& s) { s = r_.Str(n); }
  void Pad(size_t n) { r_.SkipTo(n); }
  /// A type-0 slot is "no payload": legal where `nullable`, otherwise
  /// (like an unknown type or a malformed payload) it rejects the message.
  void Nested(sim::MessagePtr& m, bool nullable) {
    const uint32_t type = r_.U32();
    const uint32_t len = r_.U32();
    const uint8_t* payload = r_.Take(len);
    if (payload == nullptr || (type == 0 && nullable)) return;
    m = DecodeAny(static_cast<int>(type), payload, len);
    if (m == nullptr) r_.Fail();
  }
  bool ok() const { return r_.ok(); }

 private:
  ByteReader r_;
};

template <class T>
void EncodeAs(const sim::Message& msg, std::vector<uint8_t>* out) {
  Encoder encoder(out);
  const_cast<T&>(sim::As<T>(msg)).Fields(encoder);
}

template <class T>
sim::MessagePtr DecodeAs(const uint8_t* data, size_t len) {
  auto msg = runtime::MakeMessage<T>();
  Decoder decoder(data, len);
  msg->Fields(decoder);
  if (!decoder.ok()) return nullptr;
  return msg;
}

struct Entry {
  void (*encode)(const sim::Message&, std::vector<uint8_t>*) = nullptr;
  sim::MessagePtr (*decode)(const uint8_t*, size_t) = nullptr;
};

/// A type-indexed table of every listed message's encoder and decoder.
template <class... Ts>
struct Registry {
  std::array<Entry, std::max({static_cast<size_t>(Ts::kType)...}) + 1>
      entries{};

  constexpr Registry() {
    ((entries[Ts::kType] = Entry{&EncodeAs<Ts>, &DecodeAs<Ts>}), ...);
  }

  const Entry* Find(int type) const {
    if (type < 0 || static_cast<size_t>(type) >= entries.size() ||
        entries[type].encode == nullptr) {
      return nullptr;
    }
    return &entries[type];
  }
};

/// Every message that can cross a socket or ride in a WAL. A new message
/// type is one struct deriving sim::Schema with its Fields, plus its line
/// here.
constexpr Registry<
    sim::BatchEnvelopeMsg,
    raft::RequestVoteMsg, raft::VoteResponseMsg, raft::AppendEntriesMsg,
    raft::AppendResponseMsg, raft::NoopPayload,
    core::ReadPrepareMsg, core::ReadResponseMsg, core::PrepareDecisionMsg,
    core::CoordPrepareMsg, core::CommitRequestMsg, core::AbortRequestMsg,
    core::CommitResponseMsg, core::WritebackMsg, core::WritebackAckMsg,
    core::HeartbeatMsg, core::QueryPrepareMsg, core::NotLeaderMsg,
    core::QueryDecisionMsg,
    core::LogTxnInfo, core::LogWriteData, core::LogDecision,
    core::LogPrepareResult, core::LogCommit,
    tapir::TapirReadMsg, tapir::TapirReadReplyMsg, tapir::TapirPrepareMsg,
    tapir::TapirPrepareReplyMsg, tapir::TapirFinalizeMsg,
    tapir::TapirFinalizeReplyMsg, tapir::TapirDecideMsg,
    tapir::TapirDecideAckMsg>
    kRegistry;

/// Unregistered types append nothing; the receiver's decode then rejects
/// the empty frame.
void EncodeAny(const sim::Message& msg, std::vector<uint8_t>* out) {
  const Entry* e = kRegistry.Find(msg.type());
  if (e != nullptr) e->encode(msg, out);
}

sim::MessagePtr DecodeAny(int type, const uint8_t* data, size_t len) {
  const Entry* e = kRegistry.Find(type);
  return e == nullptr ? nullptr : e->decode(data, len);
}

}  // namespace

std::vector<uint8_t> Encode(const sim::Message& msg) {
  std::vector<uint8_t> out;
  out.reserve(msg.WireSize());
  EncodeAny(msg, &out);
  return out;
}

sim::MessagePtr Decode(int type, const uint8_t* data, size_t len) {
  return DecodeAny(type, data, len);
}

bool Encodable(int type) { return kRegistry.Find(type) != nullptr; }

std::vector<int> RegisteredTypes() {
  std::vector<int> types;
  for (size_t t = 0; t < kRegistry.entries.size(); ++t) {
    if (kRegistry.Find(static_cast<int>(t)) != nullptr) {
      types.push_back(static_cast<int>(t));
    }
  }
  return types;
}

runtime::WireCodec Codec() {
  return runtime::WireCodec{&EncodeAny, &DecodeAny};
}

}  // namespace carousel::wire
