// The discrete-event simulation engine.
//
// One Engine is one simulation experiment: a clock, a pending event set
// (pluggable structure, see core/event_queue.hpp), named deterministic RNG
// streams, and the registries behind the entity- and process-oriented
// modeling layers.
//
// Mechanics (taxonomy Section 3): this is an *event-driven* DES — the clock
// jumps from event to event. The time-driven mode the paper contrasts it
// with is provided by core/time_driven.hpp on top of the same engine, and
// trace-driven input by core/trace.hpp.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/event.hpp"
#include "core/event_queue.hpp"
#include "core/flat_id_set.hpp"
#include "core/rng.hpp"
#include "core/sim_time.hpp"

namespace lsds::core {

class Entity;
class EngineProbe;

/// Thrown when Config::max_events is exhausted (model watchdog).
class EventBudgetExceeded : public std::runtime_error {
 public:
  explicit EventBudgetExceeded(std::uint64_t budget)
      : std::runtime_error("simulation exceeded its event budget of " +
                           std::to_string(budget) + " events") {}
};

class Engine {
 public:
  struct Config {
    QueueKind queue = QueueKind::kBinaryHeap;
    std::uint64_t seed = 42;
    /// When > 0, every scheduled timestamp is rounded *up* to a multiple of
    /// the quantum. This models the accuracy loss of time-driven simulation
    /// (experiment E2) without changing any model code.
    double time_quantum = 0;
    /// When > 0, run()/run_until() throw EventBudgetExceeded after this
    /// many executed events — a watchdog against accidental zero-delay
    /// loops in models (a misbehaving model otherwise spins forever at one
    /// simulated instant).
    std::uint64_t max_events = 0;
  };

  explicit Engine(Config cfg);
  Engine() : Engine(Config{}) {}
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- clock & scheduling ---------------------------------------------------

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (>= now; past times are clamped to
  /// now and counted in stats().past_clamped). Throws std::invalid_argument
  /// when `t` is NaN (so does schedule_in for a NaN delay).
  EventHandle schedule_at(SimTime t, EventFn fn);

  /// Schedule `fn` after a delay (>= 0).
  EventHandle schedule_in(SimTime dt, EventFn fn) { return schedule_at(now_ + dt, std::move(fn)); }

  /// Reserve the key an event scheduled at `t` now would get — same NaN
  /// check, past clamp, quantum and sequence number as schedule_at — but
  /// push nothing and count nothing as scheduled. A model that keeps many
  /// tentative events of its own (the flow solver's completion heap) arms
  /// only the earliest with schedule_key, and the engine's order stays
  /// exactly what scheduling every one of them would have given.
  EventKey reserve_key(SimTime t);

  /// Push `fn` under a key from reserve_key (counted as scheduled). A key is
  /// pushed at most once: throws std::invalid_argument, in every build, when
  /// the key was never reserved, was already pushed or released, or has
  /// already run (the has_run rule cancel() uses — its instant has passed).
  EventHandle schedule_key(EventKey key, EventFn fn);

  /// Give back a reserved key that will never be pushed (superseded). Every
  /// reservation must end pushed or released: until then it holds a table
  /// entry. Returns false unless `key` is a reservation not yet pushed or
  /// released.
  bool release_key(EventKey key) { return reserved_.erase(key.seq, key.time); }

  /// Cancel a pending event. Returns false if it already ran or was already
  /// cancelled, and for a reserved key that was never pushed or was
  /// released (no record stands behind it). The record stays in the queue,
  /// whatever its kind, and is skipped when it surfaces, so the result,
  /// stats().cancelled and tombstone_count() are the same for every queue
  /// kind. `h` must come from schedule_at or schedule_key, or carry a key
  /// from reserve_key: the engine trusts its (id, time) key. Allocation-free
  /// except when a bookkeeping table doubles.
  bool cancel(const EventHandle& h);

  // --- execution --------------------------------------------------------

  /// Run until the pending set drains or stop() is called.
  void run();

  /// Run all events with time <= t_end, then advance the clock to t_end.
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime t_end) { return run_window(t_end, true); }

  /// Run all events with time strictly below `t_end` (<= when `inclusive`),
  /// then advance the clock to t_end. This is the drain primitive of the
  /// conservative parallel engine: window k covers [k*L, (k+1)*L), so events
  /// that land exactly on the boundary belong to the *next* window — except
  /// in the final window, which is closed. Returns events executed.
  std::uint64_t run_window(SimTime t_end, bool inclusive);

  /// Timestamp of the earliest pending event, or kInfTime when drained.
  /// Cancelled records that surface first are dropped.
  SimTime next_event_time();

  /// Execute exactly one event. Returns false when nothing is pending.
  bool step();

  /// Request termination; honored after the current event returns.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }
  /// Re-arm a stopped engine (e.g. between phases of one experiment).
  void clear_stop() { stopped_ = false; }

  // --- statistics -------------------------------------------------------

  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t past_clamped = 0;
  };
  const Stats& stats() const { return stats_; }
  /// Live pending events (cancelled ones excluded on every queue kind).
  std::size_t pending() const { return queue_->size() - deferred_; }
  /// Cancelled events whose records are still queued; each leaves when it
  /// surfaces. The same at every step on every queue kind.
  std::size_t tombstone_count() const { return deferred_; }
  const char* queue_name() const { return queue_->name(); }

  // --- randomness ---------------------------------------------------------

  std::uint64_t seed() const { return seed_; }
  /// Named stream; created on first use, stable thereafter.
  RngStream& rng(const std::string& name);

  // --- determinism hook ---------------------------------------------------

  /// Called before each executed event; used by tests to assert that two
  /// runs with equal seeds produce identical (time, seq) traces.
  using TraceHook = std::function<void(SimTime, EventId)>;
  void set_trace_hook(TraceHook hook) { trace_hook_ = std::move(hook); }

  // --- choice points (exhaustive exploration, src/mc/) ---------------------

  /// Strategy for ordering simultaneous events. When two or more pending
  /// events are tied at the minimum timestamp, step() surfaces their ids
  /// (ascending seq — today's FIFO execution order) and executes the one at
  /// the returned index; the rest are requeued unchanged. With no hook set
  /// the engine runs its normal pop-min path and is byte-identical to
  /// before this hook existed; a hook returning 0 reproduces that order
  /// exactly. An index past the tie makes step() throw std::out_of_range,
  /// in every build, with the tie requeued unchanged. The hook only drives
  /// step() (and run(), which steps) — the windowed primitives of the
  /// parallel engine never branch.
  using ChoiceFn = std::function<std::size_t(SimTime, const std::vector<EventId>&)>;
  void set_choice_hook(ChoiceFn fn) { choice_hook_ = std::move(fn); }
  bool has_choice_hook() const { return static_cast<bool>(choice_hook_); }

  // --- event entity tags (exhaustive exploration, src/mc/) -----------------

  /// When enabled, every scheduled event carries a 32-bit entity tag:
  /// whatever current_tag() was at schedule time. During event execution
  /// current_tag() defaults to the executing event's own tag, so causal
  /// chains inherit their origin's tag; model code marks per-entity roots
  /// with TagScope. Tag 0 means "untagged" and is treated as dependent on
  /// everything — tags are an *assumption* the sleep-set pruning of
  /// mc::Explorer relies on, so only tag chains that genuinely touch
  /// disjoint state. Off by default: the hot path stays untouched.
  void enable_event_tags() { tags_enabled_ = true; }
  bool event_tags_enabled() const { return tags_enabled_; }
  /// Tag recorded for a pending (or currently executing) event; 0 when
  /// untagged or already retired.
  std::uint32_t event_tag(EventId id) const;
  std::uint32_t current_tag() const { return exec_tag_; }
  void set_current_tag(std::uint32_t tag) { exec_tag_ = tag; }

  // --- observation probe ---------------------------------------------------

  /// Attach (or detach with nullptr) the observation probe (core/probe.hpp).
  /// The probe must outlive the engine or be detached first. Independent of
  /// the trace hook, so tests can trace an observed engine.
  void set_probe(EngineProbe* probe) { probe_ = probe; }
  EngineProbe* probe() const { return probe_; }

  // --- entity registry (core/entity.hpp) -----------------------------------

  std::uint32_t register_entity(Entity* e);
  void unregister_entity(std::uint32_t id);
  Entity* entity(std::uint32_t id) const;
  std::size_t entity_count() const;
  /// Deliver Entity::on_start to every registered entity at the current time.
  void start_entities();

  // --- coroutine registry (core/process.hpp) -------------------------------

  void adopt_coroutine(std::coroutine_handle<> h);
  void drop_coroutine(std::coroutine_handle<> h);
  std::size_t live_processes() const { return coroutines_.size(); }

 private:
  SimTime quantize(SimTime t) const;
  /// The key schedule_at(t) would use (`what` names the caller in errors);
  /// consumes a sequence number.
  EventKey next_key(SimTime t, const char* what);
  /// Push under `key` with tag bookkeeping; counts as scheduled.
  EventHandle push_key(EventKey key, EventFn&& fn);
  /// queue_->pop() / push() with wall-clock timing when a probe is attached.
  EventRecord pop_record();
  void push_record(EventRecord&& rec);
  /// True while a live event is pending. Once none is, the records left are
  /// all cancelled ones the queue kept, and they are dropped.
  bool any_live();
  /// Pop the earliest live event, dropping kept cancelled records on the
  /// way. Precondition: any_live().
  EventRecord pop_live();
  /// Whether the event behind `h` has already executed.
  bool has_run(const EventHandle& h) const;
  /// step() with the choice hook installed: collect the timestamp tie,
  /// let the strategy pick, requeue the rest.
  bool step_with_choice();
  /// Run `ev` with trace/probe/tag bookkeeping (shared by every drain path).
  void execute(EventRecord& ev);
  void check_budget() const;

  std::unique_ptr<EventQueue> queue_;
  SimTime now_ = 0;
  EventId next_seq_ = 1;  // 0 is the invalid handle id
  bool stopped_ = false;
  Stats stats_;
  std::uint64_t seed_;
  double quantum_;
  std::uint64_t max_events_;
  // Cancellation. Pops are monotone in (time, seq), so an event has run iff
  // its key is at most the last executed one; under a choice hook, ties at
  // one instant run out of seq order and ran_now_ lists the seqs executed
  // at it. cancelled_ holds every cancel until the clock passes it
  // (double-cancel detection and the skip test); deferred_ counts the
  // cancelled records still in the queue. unpushed_ marks the reserved keys
  // never pushed, released ones included, which have no record to cancel.
  EventKey last_run_{-kInfTime, 0};
  FlatIdSet ran_now_;
  FlatIdSet cancelled_;
  std::size_t prune_at_ = 0;
  // Keys from reserve_key neither pushed nor released yet.
  FlatIdSet reserved_;
  SeqBits unpushed_;
  std::size_t deferred_ = 0;
  std::map<std::string, RngStream> streams_;
  TraceHook trace_hook_;
  ChoiceFn choice_hook_;
  bool tags_enabled_ = false;
  std::uint32_t exec_tag_ = 0;
  std::unordered_map<EventId, std::uint32_t> tags_;
  std::vector<EventId> tied_scratch_;  // choice-point id list, reused
  EngineProbe* probe_ = nullptr;
  std::vector<Entity*> entities_;  // slot = id; nullptr after unregister
  std::unordered_set<void*> coroutines_;
};

/// RAII entity-tag context: events scheduled within the scope carry `tag`
/// (see Engine::enable_event_tags). Model-build code wraps per-entity setup:
///
///   core::TagScope scope(eng, kCpu0Tag);
///   cpu0.submit(...);   // the completion chain inherits kCpu0Tag
class TagScope {
 public:
  TagScope(Engine& engine, std::uint32_t tag) : engine_(engine), prev_(engine.current_tag()) {
    engine_.set_current_tag(tag);
  }
  ~TagScope() { engine_.set_current_tag(prev_); }
  TagScope(const TagScope&) = delete;
  TagScope& operator=(const TagScope&) = delete;

 private:
  Engine& engine_;
  std::uint32_t prev_;
};

}  // namespace lsds::core
