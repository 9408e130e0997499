#include "core/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/entity.hpp"
#include "core/probe.hpp"

namespace lsds::core {

namespace {
std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace

Engine::Engine(Config cfg)
    : queue_(make_event_queue(cfg.queue)),
      seed_(cfg.seed),
      quantum_(cfg.time_quantum),
      max_events_(cfg.max_events) {}

Engine::~Engine() {
  // Destroy suspended coroutine frames that never completed. Copy the set:
  // frame destructors may release resources that call drop_coroutine.
  auto pending = coroutines_;
  coroutines_.clear();
  for (void* p : pending) std::coroutine_handle<>::from_address(p).destroy();
}

SimTime Engine::quantize(SimTime t) const {
  if (quantum_ <= 0) return t;
  return std::ceil(t / quantum_) * quantum_;
}

EventKey Engine::next_key(SimTime t, const char* what) {
  if (!(t >= now_)) {  // past, or NaN: one compare on the common path
    if (std::isnan(t)) throw std::invalid_argument(std::string(what) + ": time is NaN");
    ++stats_.past_clamped;
    t = now_;
  }
  return EventKey{quantize(t), next_seq_++};
}

EventHandle Engine::push_key(EventKey key, EventFn&& fn) {
  if (tags_enabled_ && exec_tag_ != 0) tags_[key.seq] = exec_tag_;
  push_record(EventRecord{key.time, key.seq, std::move(fn)});
  ++stats_.scheduled;
  return EventHandle{key.seq, key.time};
}

EventHandle Engine::schedule_at(SimTime t, EventFn fn) {
  return push_key(next_key(t, "Engine::schedule_at"), std::move(fn));
}

EventKey Engine::reserve_key(SimTime t) {
  const EventKey key = next_key(t, "Engine::reserve_key");
  reserved_.insert(key.seq, key.time);
  unpushed_.insert(key.seq, key.time, now_);
  return key;
}

EventHandle Engine::schedule_key(EventKey key, EventFn fn) {
  if (key.seq == 0 || key.seq >= next_seq_) {
    throw std::invalid_argument("Engine::schedule_key: key was never reserved");
  }
  if (has_run(EventHandle{key.seq, key.time})) {
    throw std::invalid_argument("Engine::schedule_key: key has already run");
  }
  if (!reserved_.erase(key.seq, key.time)) {
    throw std::invalid_argument("Engine::schedule_key: key was already pushed or released");
  }
  unpushed_.erase(key.seq);
  return push_key(key, std::move(fn));
}

std::uint32_t Engine::event_tag(EventId id) const {
  auto it = tags_.find(id);
  return it == tags_.end() ? 0 : it->second;
}

EventRecord Engine::pop_record() {
  if (!probe_) return queue_->pop();
  const auto w0 = std::chrono::steady_clock::now();
  EventRecord rec = queue_->pop();
  probe_->on_queue_pop(elapsed_ns(w0));
  return rec;
}

void Engine::push_record(EventRecord&& rec) {
  if (!probe_) {
    queue_->push(std::move(rec));
    return;
  }
  const auto w0 = std::chrono::steady_clock::now();
  queue_->push(std::move(rec));
  probe_->on_queue_push(elapsed_ns(w0), queue_->size());
}

bool Engine::any_live() {
  if (pending() > 0) return true;
  while (!queue_->empty()) pop_record();  // only kept cancelled records left
  deferred_ = 0;
  return false;
}

EventRecord Engine::pop_live() {
  EventRecord ev = pop_record();
  while (deferred_ > 0 && cancelled_.contains(ev.seq)) {
    --deferred_;  // a kept cancelled record surfaced; its entry stays
    ev = pop_record();
  }
  return ev;
}

SimTime Engine::next_event_time() {
  if (deferred_ == 0) return queue_->min_time();
  if (!any_live()) return kInfTime;
  EventRecord ev = pop_live();
  const SimTime t = ev.time;
  push_record(std::move(ev));
  return t;
}

bool Engine::has_run(const EventHandle& h) const {
  // Strictly past: the clock reaches t only after every event before t ran
  // or was dropped.
  if (h.time < now_) return true;
  if (choice_hook_) return ran_now_.contains(h.id);
  return h.time == last_run_.time && h.id <= last_run_.seq;
}

bool Engine::cancel(const EventHandle& h) {
  if (!h.valid() || h.id >= next_seq_ || has_run(h)) return false;
  if (unpushed_.contains(h.id)) return false;  // no record behind a reserved key
  if (cancelled_.size() >= prune_at_) {
    // Entries the clock has passed answer nothing has_run does not.
    cancelled_.erase_before(now_);
    prune_at_ = std::max<std::size_t>(1024, 2 * cancelled_.size());
  }
  if (!cancelled_.insert(h.id, h.time)) return false;  // already cancelled
  ++deferred_;  // the record stays queued until pop_live skips it
  if (tags_enabled_) tags_.erase(h.id);
  ++stats_.cancelled;
  return true;
}

void Engine::execute(EventRecord& ev) {
  assert(ev.time + kTimeEpsilon >= now_ && "event queue returned an event out of order");
  now_ = ev.time;
  if (choice_hook_) {
    if (ev.time != last_run_.time) ran_now_.clear();
    ran_now_.insert(ev.seq, ev.time);
  }
  last_run_ = key_of(ev);
  if (trace_hook_) trace_hook_(ev.time, ev.seq);
  if (probe_) probe_->on_event(ev.time, ev.seq);
  ++stats_.executed;
  if (tags_enabled_) {
    // Events scheduled by ev.fn() inherit ev's tag unless a TagScope
    // overrides it; the tag entry retires with the event.
    exec_tag_ = event_tag(ev.seq);
    ev.fn();
    exec_tag_ = 0;
    tags_.erase(ev.seq);
    return;
  }
  ev.fn();
}

void Engine::check_budget() const {
  if (max_events_ && stats_.executed >= max_events_) throw EventBudgetExceeded(max_events_);
}

bool Engine::step() {
  if (choice_hook_) return step_with_choice();
  if (!any_live()) return false;
  EventRecord ev = pop_live();
  execute(ev);
  return true;
}

bool Engine::step_with_choice() {
  // Collect every live event tied at the minimum timestamp; the first one
  // popped past the tie goes back. The pop order is ascending (time, seq)
  // for every queue kind, so the tie set is presented in seq order — the
  // engine's default execution order.
  if (!any_live()) return false;
  std::vector<EventRecord> tied;
  tied.push_back(pop_live());
  while (any_live()) {
    EventRecord next = pop_live();
    if (next.time != tied.front().time) {
      push_record(std::move(next));
      break;
    }
    tied.push_back(std::move(next));
  }
  std::size_t pick = 0;
  if (tied.size() > 1) {
    tied_scratch_.clear();
    for (const EventRecord& ev : tied) tied_scratch_.push_back(ev.seq);
    pick = choice_hook_(tied.front().time, tied_scratch_);
    if (pick >= tied.size()) {
      // Requeue the tie untouched, so the engine stays consistent.
      for (EventRecord& ev : tied) push_record(std::move(ev));
      throw std::out_of_range("Engine: choice hook returned index " + std::to_string(pick) +
                              " for a tie of " + std::to_string(tied.size()));
    }
  }
  // Requeue the not-chosen ties with their original seq, so the remaining
  // order (and cancellability) is exactly as if they had never been popped.
  for (std::size_t i = 0; i < tied.size(); ++i) {
    if (i != pick) push_record(std::move(tied[i]));
  }
  execute(tied[pick]);
  return true;
}

void Engine::run() {
  while (!stopped_ && step()) check_budget();
}

std::uint64_t Engine::run_window(SimTime t_end, bool inclusive) {
  // Pop/inspect/requeue rather than polling min_time(): min_time() is
  // O(buckets) for the calendar queue, while one extra push is O(1).
  std::uint64_t n = 0;
  while (!stopped_ && any_live()) {
    EventRecord ev = pop_live();
    if (inclusive ? (ev.time > t_end) : (ev.time >= t_end)) {
      push_record(std::move(ev));
      break;
    }
    execute(ev);
    ++n;
    check_budget();
  }
  if (!stopped_ && now_ < t_end) now_ = t_end;
  return n;
}

RngStream& Engine::rng(const std::string& name) {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    it = streams_.emplace(name, RngStream(seed_, name)).first;
  }
  return it->second;
}

std::uint32_t Engine::register_entity(Entity* e) {
  entities_.push_back(e);
  return static_cast<std::uint32_t>(entities_.size() - 1);
}

void Engine::unregister_entity(std::uint32_t id) {
  if (id < entities_.size()) entities_[id] = nullptr;
}

Entity* Engine::entity(std::uint32_t id) const {
  return id < entities_.size() ? entities_[id] : nullptr;
}

std::size_t Engine::entity_count() const {
  std::size_t n = 0;
  for (Entity* e : entities_) {
    if (e) ++n;
  }
  return n;
}

void Engine::start_entities() {
  // Snapshot: on_start may construct further entities.
  std::vector<Entity*> snapshot = entities_;
  for (Entity* e : snapshot) {
    if (e) e->on_start();
  }
}

void Engine::adopt_coroutine(std::coroutine_handle<> h) { coroutines_.insert(h.address()); }

void Engine::drop_coroutine(std::coroutine_handle<> h) { coroutines_.erase(h.address()); }

}  // namespace lsds::core
