// lsds_perfbench: run one scenario INI once through the public facade API
// (sim::FacadeRegistry -> run(engine, ini, report)) and print what the run
// cost on the host as one JSON line.
//
//   lsds_perfbench --ini=scenario.ini                     # untraced run
//   lsds_perfbench --ini=scenario.ini --traced --spans=F  # traced run
//
// Every run is bracketed by a fixed reference kernel whose mean wall is
// reported as ref_s: the host's speed at the time of the run.
//
// Untraced, the harness attaches nothing but a one-shot set-up stamp: the
// engine trace hook records the wall clock of the first executed event. A
// parallel run ([execution] mode = parallel) keeps its LP engines private
// to hosts::ParallelGrid, so there the stamp is taken by a span-bus
// subscriber at the first substrate span any LP publishes instead.
//
// Traced, it also attaches a LayerProbe (core::EngineProbe) to the serial
// engine and a span-bus subscriber that keeps every span in memory, and
// writes the spans to --spans as JSON lines once the run has returned.
//
// The facade's own stdout chatter is printed first; the JSON object is the
// last line. perfbench/run.py drives this binary and checks its output.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "core/probe.hpp"
#include "obs/json.hpp"
#include "obs/observability.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"
#include "util/flags.hpp"
#include "util/ini.hpp"

namespace {

using namespace lsds;
using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Splits the wall of a serial run into pending-set time (push + pop, as the
/// engine times them), handler self time (from an event's dispatch to the
/// next pop, minus the pushes inside it) and everything else (model set-up
/// before the first event, the engine's loop between a pop and its
/// dispatch, and the probe's own cost). The last handler's interval runs to
/// the facade's return, so result rollup and model teardown count there.
class LayerProbe final : public core::EngineProbe {
 public:
  enum Phase { kOutside = 0, kLoop = 1, kHandler = 2 };

  void begin(Clock::time_point t) { mark_ = t; }
  void end(Clock::time_point t) { advance(t); }

  void on_event(core::SimTime, core::EventId) override {
    advance(Clock::now());
    phase_ = kHandler;
  }
  void on_queue_push(std::uint64_t ns, std::size_t pending) override {
    op(ns);
    push_ns_ += ns;
    ++pushes_;
    if (pending > pending_max_) pending_max_ = pending;
  }
  void on_queue_pop(std::uint64_t ns) override {
    op(ns);
    pop_ns_ += ns;
    ++pops_;
    phase_ = kLoop;
  }

  double phase_s(Phase p) const { return phase_ns_[p] * 1e-9; }
  double busy_s() const { return static_cast<double>(push_ns_ + pop_ns_) * 1e-9; }
  double push_ns_mean() const { return pushes_ ? static_cast<double>(push_ns_) / pushes_ : 0; }
  double pop_ns_mean() const { return pops_ ? static_cast<double>(pop_ns_) / pops_ : 0; }
  std::size_t pending_max() const { return pending_max_; }

 private:
  // A queue op of `ns` just ended: the time before it belongs to the
  // current phase, the op itself to the queue.
  void op(std::uint64_t ns) {
    const auto now = Clock::now();
    advance(now - std::chrono::nanoseconds(ns));
    mark_ = now;
  }
  void advance(Clock::time_point t) {
    if (t > mark_) {
      phase_ns_[phase_] += std::chrono::duration<double, std::nano>(t - mark_).count();
      mark_ = t;
    }
  }

  Clock::time_point mark_{};
  Phase phase_ = kOutside;
  double phase_ns_[3] = {0, 0, 0};
  std::uint64_t push_ns_ = 0, pop_ns_ = 0, pushes_ = 0, pops_ = 0;
  std::size_t pending_max_ = 0;
};

/// A span as kept in memory (the bus's name pointer is only borrowed).
struct KeptSpan {
  std::string kind, status;
  std::uint64_t id;
  double t0, t1, quantity;
};

/// Span-bus subscriber. LP threads publish concurrently, hence the mutex.
class SpanLog {
 public:
  void add(const obs::Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({s.kind, s.status, s.id, s.t0, s.t1, s.quantity});
  }
  const std::vector<KeptSpan>& spans() const { return spans_; }

 private:
  std::mutex mu_;
  std::vector<KeptSpan> spans_;
};

/// Unsubscribes the global span bus on every exit path.
struct BusGuard {
  ~BusGuard() { obs::SpanBus::global().reset(); }
};

void write_spans(const std::string& path, const std::vector<KeptSpan>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  for (const auto& s : spans) {
    obs::Json j = obs::Json::object();
    j.set("kind", s.kind);
    j.set("status", s.status);
    j.set("id", s.id);
    j.set("t0", s.t0);
    j.set("t1", s.t1);
    j.set("quantity", s.quantity);
    std::fprintf(f, "%s\n", j.dump(0).c_str());
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

/// Host-speed reference: a fixed pending-set and hash-map workload written
/// here, so no change to the simulator can move it. Timed right before and
/// right after the facade run, it tells how fast the host ran meanwhile
/// (perfbench/run.py scales the end-to-end times by it). Returns its wall.
double reference_kernel() {
  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  using Ev = std::pair<double, std::uint64_t>;
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> q;
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 100000; ++i) q.push({static_cast<double>(rnd() % 1000000), i});
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    const Ev e = q.top();
    q.pop();
    acc += e.second;
    q.push({e.first + static_cast<double>(rnd() % 1000), e.second + 1});
    const std::uint64_t k = rnd() % 200000;
    if (auto it = m.find(k); it == m.end()) {
      m.emplace(k, i);
    } else {
      acc += it->second;
      m.erase(it);
    }
  }
  volatile std::uint64_t sink = acc;  // keeps the loop from being optimised away
  (void)sink;
  return seconds(t0, Clock::now());
}

obs::Json run_once(const util::Flags& flags) {
  const auto ini = util::IniConfig::load(flags.get_string("ini"));
  const bool traced = flags.get_bool("traced", false);
  const std::string facade = ini.get_string("scenario", "facade", "");
  sim::register_builtin_facades();
  const auto* entry = sim::FacadeRegistry::global().find(facade);
  if (!entry) throw std::runtime_error("unknown facade '" + facade + "'");
  sim::validate_scenario_keys(ini, *entry);
  const bool parallel = ini.get_string("execution", "mode", "serial") == "parallel";

  core::Engine::Config ecfg;
  ecfg.seed = static_cast<std::uint64_t>(ini.get_int("scenario", "seed", 42));
  ecfg.queue = sim::facades::parse_queue(ini.get_string("scenario", "queue", "heap"));
  core::Engine engine(ecfg);
  obs::Observability observability(obs::parse_options(ini));
  observability.attach(engine);
  obs::RunReport report;

  // One-shot set-up stamp: the first executed event (serial) or the first
  // published span (parallel), whichever the run can show from outside.
  std::atomic<bool> started{false};
  Clock::time_point first{};
  auto stamp = [&] {
    bool expected = false;
    if (started.compare_exchange_strong(expected, true)) first = Clock::now();
  };
  engine.set_trace_hook([&](core::SimTime, core::EventId) {
    if (!started.load(std::memory_order_relaxed)) stamp();
  });

  LayerProbe probe;
  SpanLog log;
  BusGuard guard;
  if (traced) {
    if (observability.enabled()) throw std::runtime_error("--traced with [observability] on");
    engine.set_probe(&probe);
    obs::SpanBus::global().subscribe([&](const obs::Span& s) {
      if (!started.load(std::memory_order_relaxed)) stamp();
      log.add(s);
    });
  } else if (parallel && !observability.enabled()) {
    obs::SpanBus::global().subscribe([&](const obs::Span&) {
      if (!started.load(std::memory_order_relaxed)) stamp();
    });
  }

  const double ref_before = reference_kernel();
  const auto t0 = Clock::now();
  probe.begin(t0);
  const int rc = entry->run(engine, ini, report);
  const auto t1 = Clock::now();
  probe.end(t1);
  const double ref_after = reference_kernel();
  std::fflush(stdout);
  obs::SpanBus::global().reset();
  engine.set_probe(nullptr);
  observability.finalize(engine, report);
  observability.detach();

  obs::Json out = obs::Json::object();
  out.set("rc", rc);
  out.set("wall_s", seconds(t0, t1));
  out.set("ref_s", (ref_before + ref_after) / 2);
  out.set("setup_s", started.load() ? seconds(t0, first) : seconds(t0, t1));
  const auto& st = engine.stats();
  out.set("scheduled", st.scheduled);
  out.set("executed", st.executed);
  out.set("cancelled", st.cancelled);
  const obs::Json* result = report.root().find("result");
  out.set("result", result ? *result : obs::Json::object());
  if (const obs::Json* ex = report.root().find("execution")) out.set("execution", *ex);

  if (traced) {
    obs::Json layers = obs::Json::object();
    layers.set("push_ns_mean", probe.push_ns_mean());
    layers.set("pop_ns_mean", probe.pop_ns_mean());
    layers.set("busy_s", probe.busy_s());
    layers.set("pending_max", std::uint64_t{probe.pending_max()});
    layers.set("handler_s", probe.phase_s(LayerProbe::kHandler));
    layers.set("outside_s", probe.phase_s(LayerProbe::kOutside));
    layers.set("loop_s", probe.phase_s(LayerProbe::kLoop));
    std::uint64_t flows_done = 0, flows_aborted = 0, jobs_done = 0, dispatches = 0;
    double flow_time = 0;
    for (const auto& s : log.spans()) {
      if (s.kind == "flow") {
        flow_time += s.t1 - s.t0;
        if (s.status == "done") ++flows_done;
        if (s.status == "aborted") ++flows_aborted;
      } else if (s.kind == "job") {
        if (s.status == "done") ++jobs_done;
      } else if (s.kind == "dispatch") {
        ++dispatches;
      }
    }
    layers.set("flows_done", flows_done);
    layers.set("flows_aborted", flows_aborted);
    layers.set("flow_time_s", flow_time);
    layers.set("jobs_done", jobs_done);
    layers.set("dispatches", dispatches);
    out.set("layers", std::move(layers));
    if (flags.has("spans")) write_spans(flags.get_string("spans"), log.spans());
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  if (!flags.has("ini")) {
    std::fprintf(stderr, "usage: lsds_perfbench --ini=FILE [--traced [--spans=FILE]]\n");
    return 2;
  }
  try {
    const obs::Json out = run_once(flags);
    std::printf("\n%s\n", out.dump(0).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "lsds_perfbench: %s\n", e.what());
    return 1;
  }
}
