#include "runtime/threaded.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

namespace carousel::runtime {

namespace {

// CPUs this process may run on: its affinity mask, which taskset and
// cpusets narrow (std::thread::hardware_concurrency() counts every online
// CPU regardless). The call fails only on hosts with more CPUs than a
// cpu_set_t holds; one worker is still correct there.
size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------- clock --

SteadyClock::SteadyClock() : start_nanos_(MonotonicNanos()) {}

SimTime SteadyClock::now() const {
  return (MonotonicNanos() - start_nanos_) / 1000;
}

// --------------------------------------------------------------- worker --

// One OS thread serving the event loops of every node pinned to it. It owns
// one mutex and condvar, one FIFO of (node, message), one task FIFO and one
// timer heap for all of those nodes, and each pass drains everything that
// is ready, then runs it unlocked. Every queued item carries the epoch its
// node had when it was posted; items of a stopped node, or of an earlier
// life of a restarted one, are discarded as the pass drains them.
class Worker {
 public:
  explicit Worker(const Clock* clock) : clock_(clock) {}
  ~Worker() { Quit(); }

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void Attach(EventLoop* loop) { loops_.push_back(loop); }

  void Start() {
    thread_ = std::thread([this]() { Run(); });
  }

  /// Stops every node on this worker, lets the pass in flight finish and
  /// joins the thread. Idempotent; its loops must still exist.
  void Quit() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (EventLoop* loop : loops_) MarkStopped(loop);
      quit_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  /// The worker whose thread is calling, if any.
  static Worker* Current() { return current_; }

 private:
  friend class EventLoop;

  struct Inbound {
    EventLoop* loop;
    uint64_t epoch;
    NodeId from;
    MessagePtr msg;
    Endpoint* endpoint = nullptr;  // Set by the drain; null = stale.
  };
  struct Task {
    EventLoop* loop;  // Null once the drain found it stale.
    uint64_t epoch;
    EventFn fn;
  };
  struct Timer {
    SimTime at;
    uint64_t seq;
    Task task;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  static constexpr SimTime kNow = std::numeric_limits<SimTime>::min();
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  /// Both under mu_.
  static void MarkStopped(EventLoop* loop) {
    if (loop->stopped_) return;
    loop->stopped_ = true;
    loop->epoch_++;
  }
  static bool Live(const EventLoop* loop, uint64_t epoch) {
    return !loop->stopped_ && loop->epoch_ == epoch;
  }

  /// Under mu_: whether work due at `at` must wake the thread. Only the
  /// first poster after the thread fell asleep pays for the notify; a
  /// busy worker (including one posting to its own nodes) is never
  /// signalled.
  bool NeedsWake(SimTime at = kNow) {
    if (!sleeping_ || at >= sleep_until_) return false;
    sleeping_ = false;
    return true;
  }

  void Run();

  const Clock* clock_;
  std::vector<EventLoop*> loops_;
  static thread_local Worker* current_;

  std::mutex mu_;
  std::condition_variable cv_;
  /// Signalled at the end of a pass while a Stop waits for it.
  std::condition_variable pass_done_;
  bool quit_ = false;
  bool sleeping_ = false;
  SimTime sleep_until_ = kNever;
  bool in_pass_ = false;
  uint64_t passes_ = 0;
  int pass_waiters_ = 0;
  std::vector<Inbound> inbound_;
  std::vector<Task> tasks_;
  std::vector<Timer> timers_;  // Min-heap by (at, seq).
  uint64_t next_timer_seq_ = 0;
  std::thread thread_;  // Last: it uses every member above.
};

thread_local Worker* Worker::current_ = nullptr;

void Worker::Run() {
  current_ = this;
  std::unique_lock<std::mutex> lk(mu_);
  std::vector<Inbound> msgs;
  std::vector<Task> work;
  std::vector<Task> due;
  while (!quit_) {
    const SimTime now = clock_->now();
    const bool timer_due = !timers_.empty() && timers_.front().at <= now;
    if (inbound_.empty() && tasks_.empty() && !timer_due) {
      sleeping_ = true;
      if (timers_.empty()) {
        sleep_until_ = kNever;
        cv_.wait(lk);
      } else {
        sleep_until_ = timers_.front().at;
        cv_.wait_for(lk, std::chrono::microseconds(sleep_until_ - now));
      }
      sleeping_ = false;
      continue;
    }
    // Drain everything ready under the lock — filtering out stale work —
    // then run it unlocked so handlers can freely Schedule/Post/Send,
    // including to nodes of this worker, whose work lands in the next pass.
    msgs.swap(inbound_);
    work.swap(tasks_);
    while (!timers_.empty() && timers_.front().at <= now) {
      std::pop_heap(timers_.begin(), timers_.end(), TimerLater{});
      due.push_back(std::move(timers_.back().task));
      timers_.pop_back();
    }
    for (Inbound& m : msgs) {
      m.loop->queued_--;
      if (Live(m.loop, m.epoch)) m.endpoint = m.loop->endpoint_;
    }
    for (Task& t : work) {
      if (!Live(t.loop, t.epoch)) t.loop = nullptr;
    }
    for (Task& t : due) {
      if (!Live(t.loop, t.epoch)) t.loop = nullptr;
    }
    in_pass_ = true;
    lk.unlock();
    for (Inbound& m : msgs) {
      if (m.endpoint != nullptr) m.endpoint->HandleMessage(m.from, m.msg);
    }
    for (Task& t : work) {
      if (t.loop != nullptr) t.fn();
    }
    for (Task& t : due) {
      if (t.loop != nullptr) t.fn();
    }
    msgs.clear();
    work.clear();
    due.clear();
    lk.lock();
    in_pass_ = false;
    passes_++;
    if (pass_waiters_ > 0) pass_done_.notify_all();
  }
}

// ----------------------------------------------------------- event loop --

EventLoop::EventLoop(Worker* worker, const Clock* clock, size_t max_inbound)
    : worker_(worker), clock_(clock), max_inbound_(max_inbound) {}

void EventLoop::Schedule(SimTime delay, EventFn fn) {
  ScheduleAt(clock_->now() + (delay < 0 ? 0 : delay), std::move(fn));
}

void EventLoop::ScheduleAt(SimTime t, EventFn fn) {
  Worker& w = *worker_;
  bool wake;
  {
    std::lock_guard<std::mutex> lk(w.mu_);
    w.timers_.push_back(
        Worker::Timer{t, w.next_timer_seq_++, {this, epoch_, std::move(fn)}});
    std::push_heap(w.timers_.begin(), w.timers_.end(), Worker::TimerLater{});
    wake = w.NeedsWake(t);
  }
  if (wake) w.cv_.notify_one();
}

void EventLoop::Post(EventFn fn) {
  Worker& w = *worker_;
  bool wake;
  {
    std::lock_guard<std::mutex> lk(w.mu_);
    w.tasks_.push_back(Worker::Task{this, epoch_, std::move(fn)});
    wake = w.NeedsWake();
  }
  if (wake) w.cv_.notify_one();
}

// Under the worker lock: whether one more message may queue for this node.
// A stopped (killed) node accepts no input; overflow is the bounded
// asynchronous-network model. Either way, a counted drop.
bool EventLoop::Admit() {
  if (stopped_ || queued_ >= max_inbound_) {
    dropped_++;
    return false;
  }
  queued_++;
  posted_++;
  return true;
}

bool EventLoop::PostMessage(NodeId from, MessagePtr msg) {
  Worker& w = *worker_;
  bool wake;
  {
    std::lock_guard<std::mutex> lk(w.mu_);
    if (!Admit()) return false;
    w.inbound_.push_back(Worker::Inbound{this, epoch_, from, std::move(msg)});
    wake = w.NeedsWake();
  }
  // Notify after unlock so the woken worker doesn't immediately block on
  // the mutex held here.
  if (wake) w.cv_.notify_one();
  return true;
}

void EventLoop::PostMessages(std::vector<std::pair<NodeId, MessagePtr>>& msgs) {
  if (msgs.empty()) return;
  Worker& w = *worker_;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lk(w.mu_);
    for (auto& [from, msg] : msgs) {
      if (!Admit()) continue;
      w.inbound_.push_back(Worker::Inbound{this, epoch_, from, std::move(msg)});
      wake = true;
    }
    wake = wake && w.NeedsWake();
  }
  if (wake) w.cv_.notify_one();
}

void EventLoop::Start(Endpoint* endpoint) {
  std::lock_guard<std::mutex> lk(worker_->mu_);
  endpoint_ = endpoint;
}

void EventLoop::Stop() {
  if (Worker::Current() != nullptr) {
    std::fprintf(stderr,
                 "EventLoop::Stop called from a worker thread: it would wait "
                 "for its own pass\n");
    std::abort();
  }
  Worker& w = *worker_;
  std::unique_lock<std::mutex> lk(w.mu_);
  Worker::MarkStopped(this);
  // The pass in flight may have drained this node's work before the mark;
  // wait it out, after which every later pass sees the new epoch.
  if (w.in_pass_) {
    const uint64_t pass = w.passes_;
    w.pass_waiters_++;
    w.pass_done_.wait(lk, [&]() { return w.passes_ != pass; });
    w.pass_waiters_--;
  }
}

void EventLoop::Restart(Endpoint* endpoint) {
  Stop();
  std::lock_guard<std::mutex> lk(worker_->mu_);
  // Nothing volatile survives the kill: messages, tasks and timers queued
  // in the previous life or while dead carry an older epoch.
  epoch_++;
  stopped_ = false;
  endpoint_ = endpoint;
}

bool EventLoop::stopped() const {
  std::lock_guard<std::mutex> lk(worker_->mu_);
  return stopped_;
}

uint64_t EventLoop::dropped_messages() const {
  std::lock_guard<std::mutex> lk(worker_->mu_);
  return dropped_;
}

uint64_t EventLoop::posted_messages() const {
  std::lock_guard<std::mutex> lk(worker_->mu_);
  return posted_;
}

// -------------------------------------------------------------- runtime --

ThreadedRuntime::ThreadedRuntime(size_t num_nodes,
                                 ThreadedRuntimeOptions options)
    : options_(std::move(options)) {
  const size_t num_workers = std::min(num_nodes, AffinityCpus());
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(&clock_));
  }
  loops_.reserve(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    Worker* worker = workers_[i % num_workers].get();
    loops_.push_back(std::make_unique<EventLoop>(worker, &clock_,
                                                 options_.max_inbound_queue));
    worker->Attach(loops_.back().get());
  }
  endpoints_.resize(num_nodes, nullptr);
}

ThreadedRuntime::~ThreadedRuntime() { Stop(); }

void ThreadedRuntime::Register(Endpoint* endpoint) {
  endpoint->BindRuntime(this, &clock_, loops_[endpoint->id()].get());
  endpoints_[endpoint->id()] = endpoint;
}

bool ThreadedRuntime::Start() {
  if (options_.use_tcp && !StartTcp()) return false;
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->Start(endpoints_[i]);
  }
  for (auto& worker : workers_) worker->Start();
  started_ = true;
  return true;
}

void ThreadedRuntime::Stop() {
  if (stopped_) return;
  stopped_ = true;
  // Transport first: once the nets are down no I/O thread can deliver
  // into a loop, so the workers join without new inbound work.
  for (auto& net : nets_) {
    if (net != nullptr) net->Stop();
  }
  if (poller_ != nullptr) poller_->Stop();
  for (auto& worker : workers_) worker->Quit();
}

void ThreadedRuntime::Send(NodeId from, NodeId to, MessagePtr msg) {
  if (from != to && faults_active_.load(std::memory_order_relaxed)) {
    SimTime delay = 0;
    {
      std::lock_guard<std::mutex> lk(fault_mu_);
      auto it = faults_.find(LinkKey(from, to));
      if (it != faults_.end()) {
        const LinkFault& fault = it->second;
        if (fault.blocked) {
          fault_dropped_++;
          return;
        }
        if (fault.drop_prob > 0.0 &&
            std::uniform_real_distribution<double>(0.0, 1.0)(fault_rng_) <
                fault.drop_prob) {
          fault_dropped_++;
          return;
        }
        delay = fault.delay;
      }
    }
    if (delay > 0) {
      // In TCP mode the delayed write must still happen on the sender's
      // loop (frames on an edge never interleave); in-process the
      // receiver's loop is the natural carrier. A stopped carrier loop
      // discards the timer — a drop, as a dead link would.
      EventLoop* carrier = loops_[options_.use_tcp ? from : to].get();
      carrier->Schedule(delay, [this, from, to, m = std::move(msg)]() {
        DeliverDirect(from, to, m);
      });
      return;
    }
  }
  DeliverDirect(from, to, std::move(msg));
}

void ThreadedRuntime::DeliverDirect(NodeId from, NodeId to, MessagePtr msg) {
  if (!options_.use_tcp || from == to) {
    // In-process handoff: the receiver's loop takes a reference to the
    // same immutable message. Loopback always takes this path — a real
    // process doesn't route to itself through the kernel either.
    loops_[to]->PostMessage(from, std::move(msg));
    return;
  }
  if (nets_.empty()) {
    // TCP requested but the transport never came up (StartTcp failed).
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Encode + enqueue on the sender's NodeNet; never touches a socket on
  // this (the worker) thread. Drops are counted inside the net by reason.
  nets_[from]->Send(to, *msg);
}

void ThreadedRuntime::SetLinkFault(NodeId a, NodeId b, const LinkFault& fault) {
  if (a == b) return;
  std::lock_guard<std::mutex> lk(fault_mu_);
  faults_[LinkKey(a, b)] = fault;
  faults_[LinkKey(b, a)] = fault;
  faults_active_.store(true, std::memory_order_relaxed);
}

void ThreadedRuntime::ClearLinkFault(NodeId a, NodeId b) {
  std::lock_guard<std::mutex> lk(fault_mu_);
  faults_.erase(LinkKey(a, b));
  faults_.erase(LinkKey(b, a));
  if (faults_.empty()) faults_active_.store(false, std::memory_order_relaxed);
}

void ThreadedRuntime::ClearAllLinkFaults() {
  std::lock_guard<std::mutex> lk(fault_mu_);
  faults_.clear();
  faults_active_.store(false, std::memory_order_relaxed);
}

uint64_t ThreadedRuntime::fault_dropped_messages() const {
  std::lock_guard<std::mutex> lk(fault_mu_);
  return fault_dropped_;
}

void ThreadedRuntime::StopNode(NodeId id) { loops_[id]->Stop(); }

void ThreadedRuntime::RestartNode(Endpoint* endpoint) {
  const NodeId id = endpoint->id();
  endpoint->BindRuntime(this, &clock_, loops_[id].get());
  endpoints_[id] = endpoint;
  loops_[id]->Restart(endpoint);
}

uint64_t ThreadedRuntime::dropped_messages() const {
  uint64_t total = dropped_.load(std::memory_order_relaxed);
  for (const auto& loop : loops_) total += loop->dropped_messages();
  TransportStats net;
  for (const auto& n : nets_) {
    if (n != nullptr) net += n->stats();
  }
  return total + net.dropped_total();
}

uint64_t ThreadedRuntime::posted_messages() const {
  uint64_t total = 0;
  for (const auto& loop : loops_) total += loop->posted_messages();
  return total;
}

TransportStats ThreadedRuntime::transport_stats() const {
  TransportStats total;
  for (const auto& net : nets_) {
    if (net != nullptr) total += net->stats();
  }
  return total;
}

bool ThreadedRuntime::StartTcp() {
  poller_ = std::make_unique<NetPoller>();
  if (!poller_->Init()) {
    poller_.reset();
    return false;
  }
  const size_t n = loops_.size();
  nets_.reserve(n);
  // Bind every node's listener first so all ports are known before the
  // I/O thread (and hence any connect) starts.
  for (size_t i = 0; i < n; ++i) {
    const NodeId owner = static_cast<NodeId>(i);
    // The deliver hook runs on the I/O thread once per drain pass and
    // hands everything decoded for this node to its event loop in one
    // bounded, non-blocking bulk enqueue that counts its own drops.
    auto deliver = [this,
                    owner](std::vector<std::pair<NodeId, MessagePtr>>& msgs) {
      loops_[owner]->PostMessages(msgs);
    };
    nets_.push_back(std::make_unique<NodeNet>(owner, n, poller_.get(),
                                              options_.codec,
                                              std::move(deliver),
                                              options_.net));
    if (!nets_.back()->Bind()) {
      nets_.clear();
      poller_.reset();
      return false;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t peer = 0; peer < n; ++peer) {
      nets_[i]->SetPeerPort(static_cast<NodeId>(peer), nets_[peer]->port());
    }
  }
  // Attach runs inline (the poller thread isn't up yet); Start it last.
  for (auto& net : nets_) net->Start();
  poller_->Start();
  return true;
}

}  // namespace carousel::runtime
