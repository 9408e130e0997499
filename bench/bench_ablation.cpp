// Ablation — engine design choices called out in DESIGN.md.
//
// The taxonomy's engine-implementation axis covers "the mapping of the
// simulation jobs on physical threads or processes" and "optimizations
// adopted in the design of the simulation engine". Two LSDS-Sim choices are
// ablated here (the pending-set structure, the third such choice, has its
// own experiments E1/E10):
//
// A. Modeling-layer cost — the same ping workload (a token bounced through
//    a chain of N stations, hop delay 1s) expressed three ways:
//      raw events      — schedule_in closures, no abstraction;
//      entities        — Entity::send/on_message dispatch (Message objects);
//      coroutines      — one Process per station blocked on a Channel
//                        (MONARC's active-object mapping: thousands of
//                        virtual threads in one OS thread).
//    Measures events/sec, i.e. what each abstraction layer costs.
//
// B. Cancellation strategy — eager erase vs lazy skip, on every pending-set
//    structure. Workload: a re-rate hold model in the shape of the flow
//    solver's (lhc_tier cancels 87 % of what it schedules): each step pops
//    the earliest of 1 000 pending completions, schedules its successor,
//    then re-rates r random pending ones (cancel + reschedule). Eager asks
//    the queue to erase in place and falls back to the skip set where it
//    declines (binary heap, ladder Top), as Engine::cancel does; lazy
//    leaves every cancelled record in the queue and skips it at pop.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "core/event_queue.hpp"
#include "core/flat_id_set.hpp"
#include "core/entity.hpp"
#include "core/process.hpp"
#include "stats/table.hpp"
#include "util/strings.hpp"

namespace core = lsds::core;

namespace {

constexpr std::size_t kStations = 64;
constexpr std::uint64_t kHops = 400000;

struct Outcome {
  double wall_ms;
  std::uint64_t events;
};

template <typename SetupFn>
Outcome run_timed(SetupFn&& setup) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 7});
  setup(eng);
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  const auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double, std::milli>(t1 - t0).count(), eng.stats().executed};
}

// A. raw closures.
Outcome run_raw() {
  return run_timed([](core::Engine& eng) {
    auto hops = std::make_shared<std::uint64_t>(0);
    auto hop = std::make_shared<std::function<void(std::size_t)>>();
    *hop = [&eng, hops, hop](std::size_t station) {
      if (++*hops >= kHops) return;
      const std::size_t next = (station + 1) % kStations;
      eng.schedule_in(1.0, [hop, next] { (*hop)(next); });
    };
    eng.schedule_at(0.0, [hop] { (*hop)(0); });
  });
}

// A. entity messaging.
class Station final : public core::Entity {
 public:
  Station(core::Engine& eng, std::string name, std::uint64_t* hops)
      : core::Entity(eng, std::move(name)), hops_(hops) {}
  core::EntityId next = 0;
  void on_message(core::Message& msg) override {
    if (++*hops_ >= kHops) return;
    core::Message fwd;
    fwd.kind = msg.kind;
    send(next, fwd, 1.0);
  }

 private:
  std::uint64_t* hops_;
};

Outcome run_entities() {
  auto hops = std::make_unique<std::uint64_t>(0);
  std::vector<std::unique_ptr<Station>> stations;
  const auto out = run_timed([&](core::Engine& eng) {
    for (std::size_t i = 0; i < kStations; ++i) {
      stations.push_back(std::make_unique<Station>(eng, "s" + std::to_string(i), hops.get()));
    }
    for (std::size_t i = 0; i < kStations; ++i) {
      stations[i]->next = stations[(i + 1) % kStations]->id();
    }
    core::Message kick;
    stations.back()->send(stations.front()->id(), kick, 1.0);
  });
  return out;
}

// A. coroutine processes blocked on channels.
core::Process station_proc(core::Engine& eng, core::Channel<int>& in, core::Channel<int>& out,
                           std::uint64_t& hops) {
  for (;;) {
    const int token = co_await in.receive();
    if (++hops >= kHops) co_return;
    co_await core::delay(eng, 1.0);
    out.send(token);
  }
}

Outcome run_coroutines() {
  std::uint64_t hops = 0;
  std::vector<std::unique_ptr<core::Channel<int>>> channels;
  const auto out = run_timed([&](core::Engine& eng) {
    for (std::size_t i = 0; i < kStations; ++i) {
      channels.push_back(std::make_unique<core::Channel<int>>(eng));
    }
    for (std::size_t i = 0; i < kStations; ++i) {
      station_proc(eng, *channels[i], *channels[(i + 1) % kStations], hops);
    }
    channels[0]->send(1);
  });
  return out;
}

// B. eager erase vs lazy skip on one queue structure.
struct CancelOutcome {
  double ns_per_scheduled;
  double mean_records;  // records held by the queue, dead ones included
};

CancelOutcome run_cancel_mix(core::QueueKind kind, unsigned rerates, bool eager) {
  constexpr std::uint32_t kLive = 1000;
  constexpr std::uint64_t kScheduled = 100000;
  auto q = core::make_event_queue(kind);
  core::RngStream rng(7);
  core::FlatIdSet dead;  // cancelled records left in the queue
  std::size_t prune_at = 1024;
  std::vector<core::EventKey> live(kLive);   // slot -> its pending key
  std::vector<std::uint32_t> slot_of(1, 0);  // seq -> slot
  core::EventId seq = 0;
  core::SimTime now = 0;
  double records = 0;  // summed over the pushes
  auto schedule = [&](std::uint32_t slot) {
    const core::EventKey k{now + rng.exponential(100.0), ++seq};
    q->push({k.time, k.seq, nullptr});
    live[slot] = k;
    slot_of.push_back(slot);
    records += static_cast<double>(q->size());
  };
  auto cancel = [&](const core::EventKey& k) {
    if (eager && q->erase(k)) return;
    if (dead.size() >= prune_at) {
      dead.erase_before(now);  // pops are monotone: these were skipped
      prune_at = std::max<std::size_t>(1024, 2 * dead.size());
    }
    dead.insert(k.seq, k.time);
  };
  for (std::uint32_t s = 0; s < kLive; ++s) schedule(s);
  const auto t0 = std::chrono::steady_clock::now();
  while (seq < kScheduled) {
    const core::EventRecord ev = q->pop();
    if (!dead.empty() && dead.contains(ev.seq)) continue;
    now = ev.time;
    schedule(slot_of[ev.seq]);
    for (unsigned i = 0; i < rerates; ++i) {
      const auto slot = static_cast<std::uint32_t>(rng.uniform_int(0, kLive - 1));
      cancel(live[slot]);
      schedule(slot);
    }
  }
  const double ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
  const auto n = static_cast<double>(kScheduled - kLive);
  return {ns / n, records / static_cast<double>(kScheduled)};
}

}  // namespace

int main() {
  std::printf("== Ablation: engine design choices (DESIGN.md) ==\n\n");

  std::printf("A. Modeling-layer cost — %zu-station ping ring, %llu hops:\n\n", kStations,
              static_cast<unsigned long long>(kHops));
  lsds::stats::AsciiTable ta({"layer", "wall [ms]", "events", "events/ms", "vs raw"});
  const auto raw = run_raw();
  const auto ent = run_entities();
  const auto coro = run_coroutines();
  auto row = [&](const char* name, const Outcome& o) {
    ta.row()
        .cell(std::string(name))
        .cell(o.wall_ms)
        .cell(o.events)
        .cell(static_cast<double>(o.events) / o.wall_ms)
        .cell(lsds::util::strformat("%.2fx", o.wall_ms / raw.wall_ms));
  };
  row("raw events", raw);
  row("entities", ent);
  row("coroutines", coro);
  std::printf("%s\n", ta.render().c_str());

  std::printf("B. Cancellation — eager erase vs lazy skip, re-rate hold model, 1 000 pending:\n\n");
  lsds::stats::AsciiTable tb({"queue", "cancel ratio", "eager [ns/ev]", "lazy [ns/ev]",
                              "lazy/eager", "eager records", "lazy records"});
  for (core::QueueKind kind : core::kAllQueueKinds) {
    for (unsigned rerates : {0u, 1u, 9u}) {
      const auto eager = run_cancel_mix(kind, rerates, true);
      const auto lazy = run_cancel_mix(kind, rerates, false);
      tb.row()
          .cell(std::string(core::to_string(kind)))
          .cell(static_cast<double>(rerates) / (rerates + 1))
          .cell(eager.ns_per_scheduled)
          .cell(lazy.ns_per_scheduled)
          .cell(lsds::util::strformat("%.2fx", lazy.ns_per_scheduled / eager.ns_per_scheduled))
          .cell(eager.mean_records)
          .cell(lazy.mean_records);
    }
  }
  std::printf("%s\n", tb.render().c_str());
  std::printf("takeaway: the process-oriented (active-object) layer costs a ~2x\n"
              "constant factor over raw events — the price MONARC 2 paid for its\n"
              "natural modeling style. Eager erase is not O(n) per cancel: the\n"
              "calendar queue and the ladder's rungs scan one bucket, the splay tree\n"
              "descends once. The lazy skip leaves 1/(1 - ratio) records per live\n"
              "one in the queue, each paying a push, a pop and a lookup, so eager\n"
              "erase wins as cancels grow on the calendar queue, the ladder (whose\n"
              "unsorted Top still keeps some records) and the sorted list (its O(n)\n"
              "erase costs less than inserting past the corpses). The splay tree\n"
              "breaks even; the binary heap has no in-place erase, so both of its\n"
              "columns run the lazy skip.\n");
  return 0;
}
