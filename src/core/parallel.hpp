// Conservative parallel simulation engine.
//
// The paper's execution axis splits simulators into *centralized* (one
// computing unit, even on multi-core hosts) and *distributed* (multiple
// processing units), observing that "a pure serial simulation execution …
// can not be a reality" and that "modern simulators make use of at least the
// threading mechanisms provided by the underlying operating system" — while
// fully distributed simulation "has not significantly impressed the general
// simulation community" (Fujimoto 1993) because it is hard to get right.
//
// ParallelEngine is the threaded middle ground: the model is partitioned
// into logical processes (LPs), each hosting a full core::Engine (private
// clock, pending set, named RNG streams, entity registry), so the whole
// entity/process model layer — CpuResource, StorageDevice, coroutine
// processes — runs unmodified inside a partition. hosts::ParallelGrid builds
// on this to partition Sites across LPs. Synchronization is conservative
// with fixed lookahead windows (a barrier-synchronous variant of the
// null-message idea of Misra 1986):
//
//   window k covers [T_k, T_k + L)  where L = lookahead
//   1. all LPs drain their events inside the window, in parallel;
//   2. barrier;
//   3. cross-LP messages (which must arrive >= one window later — that is
//      what lookahead means) are injected into destination queues in a
//      deterministic merge order;
//   4. T_{k+1} starts at the earliest pending event time (never earlier
//      than the end of window k) — sparse stretches of virtual time cost
//      no windows.
//
// Threads: the thread that calls run_until() is worker 0; the constructor
// starts min(num_threads, num_lps) - 1 persistent workers once, and worker k
// owns the LPs i with i % T == k. A window in which at most one worker owns
// work (always so with one thread) runs on the caller with no hand-off.
// Otherwise the caller publishes the window by bumping a generation counter,
// runs its own share and waits on a countdown; both sides spin a bounded
// number of times (pause, then yield) before blocking in std::atomic::wait.
//
// Determinism: cross-window messages are sorted by (time, src_lp, src_seq)
// before injection, so for a fixed seed the result is independent of thread
// count and scheduling. Tests assert equality against a sequential run.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/event.hpp"
#include "core/event_queue.hpp"
#include "core/rng.hpp"
#include "core/sim_time.hpp"

namespace lsds::core {

class ParallelEngine {
 public:
  struct Config {
    unsigned num_lps = 4;
    unsigned num_threads = 2;
    double lookahead = 1.0;  // window length; cross-LP latency lower bound
    QueueKind queue = QueueKind::kBinaryHeap;
    std::uint64_t seed = 42;
    /// Per-LP event budget, the parallel twin of Engine::Config::max_events:
    /// when > 0, an LP that executes this many events throws
    /// EventBudgetExceeded, which run_until() rethrows on the caller thread
    /// after the window barrier (lowest LP index wins when several trip in
    /// one window). The engine is not resumable afterwards — this is a
    /// watchdog against zero-delay loops, not a pause mechanism.
    std::uint64_t max_events = 0;
  };

  /// Throws std::invalid_argument for num_lps == 0, num_threads == 0 or a
  /// lookahead that is NaN or not positive (+inf is valid: one window).
  explicit ParallelEngine(Config cfg);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// One logical process: a hosted core::Engine plus a per-LP RNG stream.
  class Lp {
   public:
    unsigned index() const { return index_; }
    SimTime now() const { return engine_.now(); }

    /// Schedule a local event (same LP). `t` below the clock is clamped to
    /// the clock and counted (ParallelEngine::Stats::past_clamped).
    void schedule_at(SimTime t, EventFn fn);
    void schedule_in(SimTime dt, EventFn fn) { schedule_at(now() + dt, std::move(fn)); }

    /// Send an event to another LP. The delivery time must respect the
    /// lookahead: t >= end of the current window. Violations are clamped
    /// and counted (ParallelEngine::Stats::lookahead_violations). Throws
    /// std::out_of_range when dst_lp is not an LP of this engine.
    void send(unsigned dst_lp, SimTime t, EventFn fn);

    /// Per-LP deterministic stream.
    RngStream& rng() { return rng_; }

    /// The hosted engine: the model layer schedules through it directly.
    Engine* engine() { return &engine_; }

    std::uint64_t events_executed() const { return engine_.stats().executed; }

   private:
    friend class ParallelEngine;
    struct CrossMessage {
      SimTime time;
      unsigned src_lp;
      unsigned dst_lp;
      EventId src_seq;
      EventFn fn;
    };

    Lp(ParallelEngine& parent, unsigned index, const Config& cfg, std::uint64_t seed);

    ParallelEngine& parent_;
    unsigned index_;
    Engine engine_;
    EventId next_seq_ = 1;  // src_seq of outgoing cross messages
    RngStream rng_;
    /// Cross messages sent during the current window. Only the thread
    /// running this LP appends, so no lock; the caller drains it after the
    /// barrier.
    std::vector<CrossMessage> outbox_;
  };

  Lp& lp(unsigned i) { return *lps_[i]; }
  unsigned num_lps() const { return static_cast<unsigned>(lps_.size()); }
  double lookahead() const { return cfg_.lookahead; }

  struct Stats {
    std::uint64_t windows = 0;
    std::uint64_t events = 0;
    std::uint64_t cross_messages = 0;
    std::uint64_t lookahead_violations = 0;
    /// Lp::schedule_at calls whose timestamp was below the LP clock and got
    /// clamped — the local analogue of lookahead_violations. A correct
    /// model schedules into its own future; tests assert this stays 0.
    std::uint64_t past_clamped = 0;
    /// Events executed by each LP — the load-balance profile. Rolled up
    /// into a stats summary by the model layer (hosts::ParallelGrid).
    std::vector<std::uint64_t> per_lp_events;
  };

  /// Run windows until no LP has pending work or the horizon is reached.
  Stats run_until(SimTime t_end);

  SimTime now() const { return window_start_; }

 private:
  using CrossMessage = Lp::CrossMessage;

  void worker_loop(unsigned k);
  void stop_workers();
  /// Run the active LPs that worker k owns in the published window.
  void run_share(unsigned k);
  void run_lp(unsigned i);
  void deliver_messages();
  Stats snapshot_stats();

  Config cfg_;
  std::vector<std::unique_ptr<Lp>> lps_;
  std::vector<CrossMessage> merge_;  // deliver_messages() scratch

  // The published window. The caller writes these between windows, before
  // bumping generation_; workers read them after observing the bump.
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
  bool final_window_ = false;
  bool stopping_ = false;
  std::vector<char> active_;  // per LP: has work in the published window
  std::vector<std::exception_ptr> lp_errors_;  // per LP, lowest index rethrown

  unsigned num_threads_ = 1;  // T: the caller plus workers_.size()
  std::atomic<std::uint32_t> generation_{0};  // bumped once per published window
  std::atomic<std::uint32_t> remaining_{0};   // workers still running the window
  std::atomic<std::uint64_t> la_violations_{0};  // incremented from LP threads
  Stats stats_;
  std::vector<std::thread> workers_;  // last: they use every member above
};

}  // namespace lsds::core
