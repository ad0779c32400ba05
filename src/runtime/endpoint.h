#ifndef CAROUSEL_RUNTIME_ENDPOINT_H_
#define CAROUSEL_RUNTIME_ENDPOINT_H_

#include <utility>

#include "common/types.h"
#include "runtime/runtime.h"

namespace carousel::runtime {

/// An actor in a deployment: a server process or a client library
/// instance. Endpoints receive messages via HandleMessage and send through
/// their bound transport; they never share state directly. Under the
/// simulator every endpoint runs on the one simulation thread; under the
/// threaded backend each endpoint has an event loop pinned to one worker
/// thread, shared with other endpoints, and all of its handlers and timer
/// callbacks run there, never two at once.
class Endpoint {
 public:
  Endpoint(NodeId id, DcId dc) : id_(id), dc_(dc) {}
  virtual ~Endpoint() = default;

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  NodeId id() const { return id_; }
  DcId dc() const { return dc_; }
  bool alive() const { return alive_; }

  /// Delivers a message; `from` is the sender's node id.
  virtual void HandleMessage(NodeId from, const MessagePtr& msg) = 0;

  /// CPU time (microseconds) this endpoint spends processing `msg`.
  /// Consulted only by backends that model CPU queueing (the simulator);
  /// the threaded backend spends real CPU instead. Clients return 0.
  virtual SimTime ServiceCost(const Message& msg) const {
    (void)msg;
    return 0;
  }

  /// Called by the failure injector when the node crashes / recovers.
  /// Fault injection is a simulator-backend feature; the threaded backend
  /// never calls these.
  virtual void OnCrash() {}
  virtual void OnRecover() {}

  /// Number of CPU cores processing messages in parallel under the
  /// simulator's cost model. Message costs (ServiceCost) occupy one core
  /// each; more cores means proportionally more capacity before queueing.
  int cores() const { return cores_; }
  void set_cores(int cores) { cores_ = cores < 1 ? 1 : cores; }

  /// ---- Backend binding (backends only) ----

  /// Binds this endpoint to its substrate; called exactly once by the
  /// backend when the endpoint is registered, before any send or timer.
  void BindRuntime(Transport* transport, Clock* clock, TimerQueue* timers) {
    transport_ = transport;
    clock_ = clock;
    timers_ = timers;
  }

  /// Liveness flip for fault injection (simulator backend only).
  void set_alive(bool alive) { alive_ = alive; }

  /// ---- Substrate access (valid after registration) ----

  Transport* transport() const { return transport_; }
  Clock* clock() const { return clock_; }
  TimerQueue* timers() const { return timers_; }

  /// Sends `msg` from this endpoint.
  void Send(NodeId to, MessagePtr msg) {
    transport_->Send(id_, to, std::move(msg));
  }

  SimTime now() const { return clock_->now(); }

  void Schedule(SimTime delay, EventFn fn) {
    timers_->Schedule(delay, std::move(fn));
  }

 private:
  NodeId id_;
  DcId dc_;
  bool alive_ = true;
  int cores_ = 1;
  Transport* transport_ = nullptr;
  Clock* clock_ = nullptr;
  TimerQueue* timers_ = nullptr;
};

}  // namespace carousel::runtime

#endif  // CAROUSEL_RUNTIME_ENDPOINT_H_
