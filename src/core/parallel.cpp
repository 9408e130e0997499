#include "core/parallel.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>

namespace lsds::core {

namespace {

// Busy-wait bounds before a waiting thread blocks in std::atomic::wait. A
// window hand-off takes microseconds, far less than a futex sleep and wake,
// so waiters first spin on the pause instruction, then on yield: when there
// are more threads than free cores, yielding hands the core to the thread
// the waiter is waiting for. Neither phase may burn a core through a long
// serial phase. Fixed constants, not tuning knobs.
constexpr int kPauseSpins = 1 << 6;
constexpr int kYieldSpins = 1 << 6;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spin, then block, until `a` no longer holds `old`; returns the new value.
std::uint32_t await_change(const std::atomic<std::uint32_t>& a, std::uint32_t old) {
  for (int i = 0; i < kPauseSpins + kYieldSpins; ++i) {
    const std::uint32_t v = a.load(std::memory_order_acquire);
    if (v != old) return v;
    if (i < kPauseSpins) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  a.wait(old, std::memory_order_acquire);
  return a.load(std::memory_order_acquire);
}

ParallelEngine::Config validated(ParallelEngine::Config cfg) {
  if (cfg.num_lps == 0) throw std::invalid_argument("ParallelEngine: num_lps must be > 0");
  if (cfg.num_threads == 0) throw std::invalid_argument("ParallelEngine: num_threads must be > 0");
  if (!(cfg.lookahead > 0)) {  // also rejects NaN
    throw std::invalid_argument("ParallelEngine: lookahead must be > 0, got " +
                                std::to_string(cfg.lookahead));
  }
  return cfg;
}

}  // namespace

ParallelEngine::ParallelEngine(Config cfg)
    : cfg_(validated(cfg)),
      active_(cfg_.num_lps, 0),
      lp_errors_(cfg_.num_lps),
      num_threads_(std::min(cfg_.num_threads, cfg_.num_lps)) {
  lps_.reserve(cfg_.num_lps);
  for (unsigned i = 0; i < cfg_.num_lps; ++i) {
    // Per-LP seeds derived from the master seed; stable across thread counts.
    std::uint64_t s = cfg_.seed;
    for (unsigned k = 0; k <= i; ++k) splitmix64(s);
    lps_.emplace_back(new Lp(*this, i, cfg_, s));
  }
  try {
    for (unsigned k = 1; k < num_threads_; ++k) {
      workers_.emplace_back(&ParallelEngine::worker_loop, this, k);
    }
  } catch (...) {
    stop_workers();
    throw;
  }
}

ParallelEngine::~ParallelEngine() { stop_workers(); }

void ParallelEngine::stop_workers() {
  stopping_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

void ParallelEngine::worker_loop(unsigned k) {
  // The caller publishes the next window only after every worker counted
  // the previous one down, so no generation is ever skipped.
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(generation_, seen);
    if (stopping_) return;
    run_share(k);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) remaining_.notify_one();
  }
}

void ParallelEngine::run_share(unsigned k) {
  for (unsigned i = k; i < lps_.size(); i += num_threads_) {
    if (active_[i]) run_lp(i);
  }
}

void ParallelEngine::run_lp(unsigned i) {
  // An LP that trips its event budget (or any model exception) parks it in
  // its own slot; the caller rethrows the lowest index after the barrier —
  // deterministic no matter which thread ran the LP.
  try {
    lps_[i]->engine_.run_window(window_end_, final_window_);
  } catch (...) {
    lp_errors_[i] = std::current_exception();
  }
}

ParallelEngine::Lp::Lp(ParallelEngine& parent, unsigned index, const Config& cfg,
                       std::uint64_t seed)
    : parent_(parent),
      index_(index),
      engine_(Engine::Config{.queue = cfg.queue, .seed = seed, .max_events = cfg.max_events}),
      rng_(seed) {}

void ParallelEngine::Lp::schedule_at(SimTime t, EventFn fn) {
  engine_.schedule_at(t, std::move(fn));
}

void ParallelEngine::Lp::send(unsigned dst_lp, SimTime t, EventFn fn) {
  if (dst_lp >= parent_.num_lps()) {
    throw std::out_of_range("ParallelEngine::Lp::send: no LP " + std::to_string(dst_lp) +
                            " (engine has " + std::to_string(parent_.num_lps()) + ")");
  }
  if (dst_lp == index_) {
    schedule_at(t, std::move(fn));
    return;
  }
  // Conservative correctness: a message must not arrive inside the window
  // that is currently being processed in parallel.
  if (t < parent_.window_end_) {
    t = parent_.window_end_;
    parent_.la_violations_.fetch_add(1, std::memory_order_relaxed);
  }
  outbox_.push_back(CrossMessage{t, index_, dst_lp, next_seq_++, std::move(fn)});
  // cross_messages is tallied at delivery time (single-threaded phase).
}

void ParallelEngine::deliver_messages() {
  for (auto& lp : lps_) {
    for (CrossMessage& m : lp->outbox_) merge_.push_back(std::move(m));
    lp->outbox_.clear();
  }
  if (merge_.empty()) return;
  // Deterministic merge independent of which thread ran which LP: per
  // destination, by (time, src_lp, src_seq).
  std::sort(merge_.begin(), merge_.end(), [](const CrossMessage& a, const CrossMessage& b) {
    return std::tie(a.dst_lp, a.time, a.src_lp, a.src_seq) <
           std::tie(b.dst_lp, b.time, b.src_lp, b.src_seq);
  });
  stats_.cross_messages += merge_.size();
  for (CrossMessage& m : merge_) lps_[m.dst_lp]->schedule_at(m.time, std::move(m.fn));
  merge_.clear();
}

ParallelEngine::Stats ParallelEngine::snapshot_stats() {
  stats_.events = 0;
  stats_.past_clamped = 0;
  stats_.per_lp_events.clear();
  for (auto& lp : lps_) {
    stats_.events += lp->events_executed();
    stats_.per_lp_events.push_back(lp->events_executed());
    stats_.past_clamped += lp->engine_.stats().past_clamped;
  }
  stats_.lookahead_violations = la_violations_.load(std::memory_order_relaxed);
  return stats_;
}

ParallelEngine::Stats ParallelEngine::run_until(SimTime t_end) {
  const unsigned n = num_lps();
  std::vector<SimTime> next(n);
  for (;;) {
    // Conservative time advance: the next window starts at the earliest
    // pending event anywhere — empty stretches of virtual time cost no
    // windows (and no barriers).
    SimTime earliest = kInfTime;
    for (unsigned i = 0; i < n; ++i) {
      next[i] = lps_[i]->engine_.next_event_time();
      earliest = std::min(earliest, next[i]);
    }
    if (earliest == kInfTime) break;  // drained
    if (earliest > t_end) {
      window_start_ = t_end;
      break;
    }
    window_start_ = std::max(window_start_, earliest);
    window_end_ = std::min(window_start_ + cfg_.lookahead, t_end);
    final_window_ = (window_end_ >= t_end);

    // Only LPs with work inside the window run; an idle LP's clock lags
    // harmlessly (it jumps forward when it next executes). When at most one
    // worker owns work there is nothing to overlap: the caller runs it.
    unsigned owner = num_threads_;  // no owner yet
    bool shared = false;
    for (unsigned i = 0; i < n; ++i) {
      active_[i] = final_window_ ? next[i] <= window_end_ : next[i] < window_end_;
      if (!active_[i]) continue;
      const unsigned k = i % num_threads_;
      if (owner == num_threads_) {
        owner = k;
      } else if (k != owner) {
        shared = true;
      }
    }
    if (shared) {
      remaining_.store(static_cast<std::uint32_t>(workers_.size()), std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      generation_.notify_all();
      run_share(0);
      for (auto left = remaining_.load(std::memory_order_acquire); left != 0;) {
        left = await_change(remaining_, left);
      }
    } else {
      for (unsigned i = 0; i < n; ++i) {
        if (active_[i]) run_lp(i);
      }
    }

    const auto failed = std::find_if(lp_errors_.begin(), lp_errors_.end(),
                                     [](const std::exception_ptr& ep) { return ep != nullptr; });
    if (failed != lp_errors_.end()) {
      const std::exception_ptr ep = *failed;
      std::fill(lp_errors_.begin(), lp_errors_.end(), nullptr);
      std::rethrow_exception(ep);
    }

    deliver_messages();  // single-threaded phase

    ++stats_.windows;
    window_start_ = window_end_;
  }

  return snapshot_stats();
}

}  // namespace lsds::core
