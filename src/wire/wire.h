#ifndef CAROUSEL_WIRE_WIRE_H_
#define CAROUSEL_WIRE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/net.h"
#include "sim/message.h"

namespace carousel::wire {

/// Binary codec for every registered message type (Raft, Carousel, TAPIR,
/// the Raft log payloads they replicate, and the batch envelope).
///
/// The encoding is little-endian and size-exact: for every registered
/// type, Encode() produces exactly Message::SizeBytes() payload bytes, so
/// the bytes the threaded TCP transport puts on the wire are the bytes the
/// simulator's bandwidth model has been charging all along. Both follow
/// from one schema per message, its `Fields` (see sim::Schema in
/// sim/message.h), walked by three visitors: sim::SizeCounter for
/// SizeBytes(), and this library's encoder and decoder. Fixed headers
/// write their natural fields and zero-pad to the budget `Fields` states
/// once (`v.Pad(48)`). A count kept inside the fixed header is a local
/// visited before the pad, with `v.Items(n, container)` after it.
/// Embedded messages (log entries, batch items) are
/// [u32 type][u32 len][payload], encoded in place.
///
/// Adding a message type takes two steps: write the struct, deriving
/// sim::Schema<T, kType> with its `Fields`, and list it once in the
/// registry in wire.cc.
///
/// Not serialized: WanSpan contexts and AppendResponseMsg::wan_spans
/// (accounting metadata, zero wire bytes by design — span attribution is a
/// simulator-side instrument and does not cross a real socket).

/// Serializes `msg`'s payload, framing excluded. Returns an empty vector
/// if the type is not registered (the transport then drops the message).
std::vector<uint8_t> Encode(const sim::Message& msg);

/// Reconstructs a message of `type` from payload bytes. Returns nullptr
/// for unregistered types or malformed (truncated) input.
sim::MessagePtr Decode(int type, const uint8_t* data, size_t len);

/// True if `type` has encode/decode entries.
bool Encodable(int type);

/// Every registered type tag, ascending (property tests iterate this).
std::vector<int> RegisteredTypes();

/// The codec hooks the threaded runtime's TCP transport and WAL consume.
runtime::WireCodec Codec();

}  // namespace carousel::wire

#endif  // CAROUSEL_WIRE_WIRE_H_
