#ifndef CAROUSEL_RUNTIME_BATCHER_H_
#define CAROUSEL_RUNTIME_BATCHER_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "runtime/runtime.h"

namespace carousel::runtime {

class Endpoint;

/// Per-destination egress coalescer: messages an endpoint sends to the
/// same destination within a short window leave as one BatchEnvelopeMsg
/// instead of N separate wire messages. The first message buffered for a
/// destination arms a flush timer `flush_interval` out; everything sent
/// before it fires joins the batch, and the queue also flushes early the
/// moment it reaches `max_items`. Every message therefore waits at most
/// one window — the price of coalescing — which is why batching is an
/// opt-in for throughput experiments rather than always-on.
///
/// Per-destination FIFO is preserved: batches carry their items in send
/// order and the sim network's fifo_pairs option keeps (from, to)
/// deliveries ordered. Crashing the owner drops buffered messages (Clear),
/// exactly like messages sitting in a real process's socket buffer.
///
/// The batcher lives entirely on the owner's execution context (the sim
/// thread, or the owner's event loop on its worker thread): Send, Flush
/// and the timer callback all run there, so no locking is needed under
/// either backend.
class MessageBatcher {
 public:
  struct Options {
    /// How long the first buffered message waits before the queue
    /// flushes. Should sit well under protocol timeouts.
    SimTime flush_interval = 50;
    /// Flush as soon as a window holds this many messages.
    size_t max_items = 64;
  };

  struct Stats {
    uint64_t envelopes = 0;         // Flushes that produced an envelope.
    uint64_t enveloped_items = 0;   // Messages carried inside envelopes.
    uint64_t single_flushes = 0;    // Windows that held just one message.
  };

  /// `owner` must outlive the batcher and be registered with a transport
  /// before the first Send.
  MessageBatcher(Endpoint* owner, Options options)
      : owner_(owner), options_(options) {}

  /// Buffers `msg` for `to` and arms the flush timer if the queue was
  /// empty. Never batches loopback (to == owner): the in-process handoff
  /// is already cheap and delaying it only distorts local latencies.
  void Send(NodeId to, MessagePtr msg);

  /// Sends whatever is buffered for `to` right now (early flush).
  void Flush(NodeId to);

  /// Drops all buffered messages and invalidates scheduled flushes; called
  /// from the owner's OnCrash.
  void Clear();

  const Stats& stats() const { return stats_; }

 private:
  struct Queue {
    std::vector<MessagePtr> items;
    /// Invalidates in-flight flush callbacks (early flush, crash).
    uint64_t epoch = 0;
    bool flush_scheduled = false;
  };

  Queue& QueueFor(NodeId to) {
    if (queues_.size() <= static_cast<size_t>(to)) queues_.resize(to + 1);
    return queues_[to];
  }

  Endpoint* owner_;
  Options options_;
  std::vector<Queue> queues_;  // Indexed by destination node id.
  Stats stats_;
};

}  // namespace carousel::runtime

#endif  // CAROUSEL_RUNTIME_BATCHER_H_
