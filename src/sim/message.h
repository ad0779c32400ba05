#ifndef CAROUSEL_SIM_MESSAGE_H_
#define CAROUSEL_SIM_MESSAGE_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace carousel::sim {

/// Message type tags. Each protocol module owns a numeric range so that a
/// receiving node can dispatch on type() and static_cast to the concrete
/// struct. Keeping one flat enum makes traffic accounting by type trivial.
enum MessageType : int {
  kInvalidMessage = 0,

  // sim/test messages: 1..99
  kPing = 1,
  kPong = 2,
  kBatchEnvelope = 10,

  // raft: 100..199
  kRaftRequestVote = 100,
  kRaftVoteResponse = 101,
  kRaftAppendEntries = 102,
  kRaftAppendResponse = 103,

  // carousel: 200..299
  kCarouselReadPrepare = 200,
  kCarouselReadResponse = 201,
  kCarouselPrepareDecision = 202,
  kCarouselCoordPrepare = 203,
  kCarouselCommitRequest = 204,
  kCarouselAbortRequest = 205,
  kCarouselCommitResponse = 206,
  kCarouselWriteback = 207,
  kCarouselWritebackAck = 208,
  kCarouselHeartbeat = 209,
  kCarouselQueryPrepare = 210,
  kCarouselNotLeader = 211,
  kCarouselQueryDecision = 212,

  // carousel raft log payloads (never sent alone; carried in AppendEntries):
  // 250..269
  kLogTxnInfo = 250,
  kLogWriteData = 251,
  kLogDecision = 252,
  kLogPrepareResult = 253,
  kLogCommit = 254,
  kLogNoop = 255,

  // tapir: 300..399
  kTapirRead = 300,
  kTapirReadReply = 301,
  kTapirPrepare = 302,
  kTapirPrepareReply = 303,
  kTapirFinalize = 304,
  kTapirFinalizeReply = 305,
  kTapirDecide = 306,
  kTapirDecideAck = 307,
};

/// Instrumentation span: attributes one message (or one log payload it
/// carries) to a transaction and a protocol phase. Spans are accounting
/// metadata, not wire data — they add nothing to SizeBytes() and change no
/// protocol behavior. The phase tag is opaque to the sim layer (it is an
/// obs::WanrtPhase value; sim must not depend on obs).
struct WanSpan {
  TxnId tid{};
  uint8_t phase = 0;
  bool valid() const { return tid.valid(); }
};

/// Base class for every message exchanged through the simulated network
/// and for every replicated log payload. Concrete messages are plain
/// structs with public fields (they are wire DTOs, not objects with
/// invariants).
class Message {
 public:
  Message() = default;
  virtual ~Message() = default;

  // The size memo is an atomic (see WireSize); give the DTO structs back
  // their implicit copyability across it.
  Message(const Message& other)
      : wire_size_(other.wire_size_.load(std::memory_order_relaxed)),
        span_(other.span_) {}
  Message& operator=(const Message& other) {
    wire_size_.store(other.wire_size_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    span_ = other.span_;
    return *this;
  }

  /// The MessageType tag of the concrete struct.
  virtual int type() const = 0;

  /// Serialized size in bytes (payload only; the network adds per-message
  /// header overhead). Used for Figure 7 bandwidth accounting. Registered
  /// messages derive it from their schema (see Schema below), so it is
  /// exactly what the wire codec writes.
  virtual size_t SizeBytes() const = 0;

  /// Memoized SizeBytes. A message is frozen once handed to the network
  /// (MessagePtr is pointer-to-const), but its size keeps being read: by
  /// traffic accounting at send and delivery, and — the expensive case —
  /// by every AppendEntries that carries it as a log payload, across
  /// every (re)transmission to every follower. Hot paths must use this.
  ///
  /// The memo is a relaxed atomic because the threaded runtime shares one
  /// immutable message across worker threads (in-process transport); racing
  /// initializers compute the same value, so last-write-wins is benign.
  size_t WireSize() const {
    size_t cached = wire_size_.load(std::memory_order_relaxed);
    if (cached == 0) {
      cached = SizeBytes();
      wire_size_.store(cached, std::memory_order_relaxed);
    }
    return cached;
  }

  /// ---- Span context (WANRT accounting; see obs/wanrt.h) ----

  const WanSpan& span() const { return span_; }
  /// Senders stamp the span before handing the message to the network.
  void set_span(const TxnId& tid, uint8_t phase) { span_ = WanSpan{tid, phase}; }

  /// Appends every span this message carries to `out`. The default is the
  /// message's own span (if set); aggregate messages — batch envelopes,
  /// Raft appends and their acks — override this to enumerate the spans of
  /// the items they carry.
  virtual void CollectSpans(std::vector<WanSpan>* out) const {
    if (span_.valid()) out->push_back(span_);
  }

 private:
  mutable std::atomic<size_t> wire_size_{0};
  WanSpan span_{};
};

using MessagePtr = std::shared_ptr<const Message>;

/// Downcasts a message to its concrete type; callers must have checked
/// type() first.
template <typename T>
const T& As(const Message& msg) {
  return static_cast<const T&>(msg);
}

// ---------------------------------------------------------------------------
// Message schemas
// ---------------------------------------------------------------------------
//
// Every registered message lists its wire layout exactly once, in wire
// order, as a member template:
//
//   template <class V> void Fields(V& v) {
//     v(tid, partition, commit);  // fixed-header fields
//     v.Pad(32);                  // the fixed-header budget, zero-padded
//     v(writes);                  // variable sections
//   }
//
// Three visitors walk that one list: SizeCounter below (SizeBytes(), the
// simulator's bandwidth accounting), and the wire codec's encoder and
// decoder (src/wire). So the bytes a socket or a WAL carries are, by
// construction, the bytes Figure 7 charges. Fields is non-const because
// the decoder fills the same members the writers read; the writers never
// store through it.
//
// An element count that lives inside the fixed header is a local passed
// before the pad and consumed after it:
//
//   uint32_t n = static_cast<uint32_t>(items.size());
//   v(n);
//   v.Pad(8);
//   v.Items(n, items, ...);
//
// Writers emit items.size() and every item; the decoder reads `n` and
// then that many items.

/// The field vocabulary all three visitors share, written once in terms of
/// four primitives each visitor supplies: Fixed(unsigned integer&),
/// Bytes(n, string&) (n bytes whose length was visited earlier),
/// Pad(budget), and Nested(MessagePtr&, nullable) (a length-prefixed
/// embedded message). kDecoding selects the direction where it matters.
template <class Derived>
class FieldVisitor {
 public:
  /// The default element visitor: an element's parts, in order.
  struct AsFields {
    template <class... Parts>
    void operator()(Derived& v, Parts&... parts) const {
      v(parts...);
    }
  };

  template <class... Ts>
  void operator()(Ts&... fields) {
    (Field(fields), ...);
  }

  void Field(uint16_t& x) { self().Fixed(x); }
  void Field(uint32_t& x) { self().Fixed(x); }
  void Field(uint64_t& x) { self().Fixed(x); }
  void Field(int32_t& x) { As<uint32_t>(x); }
  void Field(bool& x) { As<uint8_t>(x); }
  template <class E>
    requires std::is_enum_v<E>
  void Field(E& x) {
    As<uint8_t>(x);
  }
  void Field(TxnId& t) { (*this)(t.client, t.counter); }

  /// u32 length, then the bytes.
  void Field(std::string& s) {
    uint32_t n = static_cast<uint32_t>(s.size());
    Field(n);
    self().Bytes(n, s);
  }
  /// A struct with its own Fields (a log entry, a partition's key sets).
  template <class T>
    requires requires(T& t, Derived& v) { t.Fields(v); }
  void Field(T& x) {
    x.Fields(self());
  }

  /// u32 count, then each element (map entries as key, then value).
  template <class T>
  void Field(std::vector<T>& c) {
    Counted(c);
  }
  template <class K, class M>
  void Field(std::map<K, M>& c) {
    Counted(c);
  }
  /// Writes: u32 count, then per entry u32 klen, u32 vlen, key, value.
  void Field(WriteSet& writes) {
    Counted(writes, [](Derived& v, Key& k, Value& value) {
      uint32_t klen = static_cast<uint32_t>(k.size());
      uint32_t vlen = static_cast<uint32_t>(value.size());
      v(klen, vlen);
      v.Bytes(klen, k);
      v.Bytes(vlen, value);
    });
  }
  /// Reads: u32 count, then per entry u16 klen, u16 vlen, u64 version,
  /// key, value.
  void Field(std::map<Key, VersionedValue>& reads) {
    Counted(reads, [](Derived& v, Key& k, VersionedValue& vv) {
      uint16_t klen = static_cast<uint16_t>(k.size());
      uint16_t vlen = static_cast<uint16_t>(vv.value.size());
      v(klen, vlen, vv.version);
      v.Bytes(klen, k);
      v.Bytes(vlen, vv.value);
    });
  }

  /// The elements of `c`, each visited by `fn(visitor, element)` (for a
  /// map: `fn(visitor, key, value)`); the default visits them as fields.
  /// Writers visit all of `c`; the decoder appends `n` decoded elements
  /// (a repeated map key keeps the last value).
  template <class C, class Fn = AsFields>
  void Items(uint32_t n, C& c, Fn fn = {}) {
    constexpr bool kMap = requires { typename C::mapped_type; };
    if constexpr (Derived::kDecoding) {
      for (uint32_t i = 0; i < n && self().ok(); ++i) {
        if constexpr (kMap) {
          typename C::key_type k{};
          typename C::mapped_type m{};
          fn(self(), k, m);
          c.insert_or_assign(std::move(k), std::move(m));
        } else {
          fn(self(), c.emplace_back());
        }
      }
    } else {
      for (auto& e : c) {
        if constexpr (kMap) {
          fn(self(), const_cast<typename C::key_type&>(e.first), e.second);
        } else {
          fn(self(), e);
        }
      }
    }
  }

 private:
  /// A field carried as the unsigned integer type U on the wire.
  template <class U, class F>
  void As(F& field) {
    if constexpr (Derived::kDecoding) {
      U u = 0;
      self().Fixed(u);
      field = static_cast<F>(u);
    } else {
      U u = static_cast<U>(field);
      self().Fixed(u);
    }
  }

  template <class C, class Fn = AsFields>
  void Counted(C& c, Fn fn = {}) {
    uint32_t n = static_cast<uint32_t>(c.size());
    Field(n);
    Items(n, c, fn);
  }

  Derived& self() { return static_cast<Derived&>(*this); }
};

/// The SizeBytes() visitor: counts what the encoder would write, without
/// writing it. Embedded messages count at their memoized WireSize(), so an
/// AppendEntries retransmission never re-walks its payloads' key lists.
class SizeCounter final : public FieldVisitor<SizeCounter> {
 public:
  static constexpr bool kDecoding = false;

  template <class T>
  void Fixed(T&) {
    size_ += sizeof(T);
  }
  void Bytes(size_t, std::string& s) { size_ += s.size(); }
  void Pad(size_t n) {
    assert(size_ <= n);  // The header fields must fit their budget.
    size_ = n;
  }
  void Nested(MessagePtr& m, bool) {
    size_ += 8 + (m == nullptr ? 0 : m->WireSize());  // u32 type, u32 len.
  }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

/// CRTP base of every registered message: derives type() from the tag and
/// SizeBytes() from T::Fields, so neither can drift from the codec.
template <class T, int kTag>
struct Schema : Message {
  static constexpr int kType = kTag;

  int type() const final { return kTag; }
  size_t SizeBytes() const final {
    SizeCounter counter;
    const_cast<T&>(static_cast<const T&>(*this)).Fields(counter);
    return counter.size();
  }
};

/// A frame of coalesced messages sent as one wire message: the egress
/// batcher (runtime/batcher.h) wraps everything buffered for one
/// destination in a single envelope per flush. Receivers unwrap and handle
/// each item as if it had arrived alone; the win is one network header and
/// one per-message CPU charge amortized over all items (the cost model
/// charges a smaller per-item rate for enveloped messages, see
/// ServerCostModel::per_batched_item).
struct BatchEnvelopeMsg final : Schema<BatchEnvelopeMsg, kBatchEnvelope> {
  std::vector<MessagePtr> items;

  /// An 8-byte header holding the item count, then each item as
  /// [u32 type][u32 len][payload]. A null item cannot be encoded: every
  /// receiver dereferences every item.
  template <class V>
  void Fields(V& v) {
    uint32_t n = static_cast<uint32_t>(items.size());
    v(n);
    v.Pad(8);
    v.Items(n, items, [](V& v, MessagePtr& item) {
      v.Nested(item, /*nullable=*/false);
    });
  }
  void CollectSpans(std::vector<WanSpan>* out) const override {
    for (const auto& m : items) m->CollectSpans(out);
  }
};

/// Checked downcast: returns nullptr unless `msg`'s type tag matches T's.
template <typename T>
const T* TryAs(const Message& msg) {
  return msg.type() == T::kType ? static_cast<const T*>(&msg) : nullptr;
}

}  // namespace carousel::sim

#endif  // CAROUSEL_SIM_MESSAGE_H_
