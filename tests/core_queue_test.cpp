// Pending-event-set tests: each of the five implementations must be a
// drop-in replacement for the others. The parameterized suites run every
// structure through the same workloads (the DES contract: timestamps pushed
// are never below the last popped timestamp) and compare against a
// reference ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/event_queue.hpp"
#include "core/rng.hpp"

namespace core = lsds::core;

namespace {

struct PopRecord {
  double time;
  core::EventId seq;
};

std::vector<PopRecord> drain(core::EventQueue& q) {
  std::vector<PopRecord> out;
  while (!q.empty()) {
    auto ev = q.pop();
    out.push_back({ev.time, ev.seq});
  }
  return out;
}

}  // namespace

class QueueTest : public ::testing::TestWithParam<core::QueueKind> {
 protected:
  std::unique_ptr<core::EventQueue> make() { return core::make_event_queue(GetParam()); }
};

TEST_P(QueueTest, EmptyInitially) {
  auto q = make();
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(q->size(), 0u);
  EXPECT_EQ(q->min_time(), core::kInfTime);
}

TEST_P(QueueTest, SingleElement) {
  auto q = make();
  q->push({3.5, 1, nullptr});
  EXPECT_EQ(q->size(), 1u);
  EXPECT_DOUBLE_EQ(q->min_time(), 3.5);
  auto ev = q->pop();
  EXPECT_DOUBLE_EQ(ev.time, 3.5);
  EXPECT_EQ(ev.seq, 1u);
  EXPECT_TRUE(q->empty());
}

TEST_P(QueueTest, PushThenPopAllSorted) {
  auto q = make();
  core::RngStream rng(12345);
  std::vector<PopRecord> expected;
  for (core::EventId i = 1; i <= 1000; ++i) {
    const double t = rng.uniform(0, 1e6);
    q->push({t, i, nullptr});
    expected.push_back({t, i});
  }
  std::sort(expected.begin(), expected.end(), [](const PopRecord& a, const PopRecord& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });
  const auto got = drain(*q);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].time, expected[i].time) << "at index " << i;
    EXPECT_EQ(got[i].seq, expected[i].seq) << "at index " << i;
  }
}

TEST_P(QueueTest, FifoAmongSimultaneous) {
  auto q = make();
  for (core::EventId i = 1; i <= 100; ++i) q->push({7.0, i, nullptr});
  for (core::EventId i = 1; i <= 100; ++i) {
    auto ev = q->pop();
    EXPECT_EQ(ev.seq, i);
  }
}

TEST_P(QueueTest, HoldModelNeverDecreases) {
  // Classic hold model: pop one, push one at popped_time + increment.
  auto q = make();
  core::RngStream rng(777);
  core::EventId seq = 1;
  for (int i = 0; i < 64; ++i) q->push({rng.exponential(10.0), seq++, nullptr});
  double last = -1;
  for (int i = 0; i < 20000; ++i) {
    auto ev = q->pop();
    EXPECT_GE(ev.time, last) << "non-monotonic pop at step " << i;
    last = ev.time;
    q->push({ev.time + rng.exponential(10.0), seq++, nullptr});
  }
  EXPECT_EQ(q->size(), 64u);
}

TEST_P(QueueTest, HoldModelSkewedIncrements) {
  // Heavy-tailed (Pareto) increments stress calendar bucket-width tuning
  // and ladder rung spawning.
  auto q = make();
  core::RngStream rng(4242);
  core::EventId seq = 1;
  for (int i = 0; i < 128; ++i) q->push({rng.pareto(0.01, 1.2), seq++, nullptr});
  double last = -1;
  for (int i = 0; i < 20000; ++i) {
    auto ev = q->pop();
    ASSERT_GE(ev.time, last);
    last = ev.time;
    q->push({ev.time + rng.pareto(0.01, 1.2), seq++, nullptr});
  }
}

TEST_P(QueueTest, GrowShrinkCycles) {
  auto q = make();
  core::RngStream rng(9);
  core::EventId seq = 1;
  double clock = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    // Grow to 2000 pending, then drain to 10, always pushing >= clock.
    while (q->size() < 2000) q->push({clock + rng.exponential(1.0), seq++, nullptr});
    while (q->size() > 10) {
      auto ev = q->pop();
      ASSERT_GE(ev.time, clock);
      clock = ev.time;
    }
  }
}

TEST_P(QueueTest, SimultaneousBurstsMixedWithSpread) {
  // Many equal timestamps interleaved with spread ones (barrier-like models).
  auto q = make();
  core::RngStream rng(31337);
  core::EventId seq = 1;
  double clock = 0;
  for (int round = 0; round < 50; ++round) {
    const double barrier = clock + 1.0;
    for (int i = 0; i < 40; ++i) q->push({barrier, seq++, nullptr});
    for (int i = 0; i < 10; ++i) q->push({clock + rng.uniform(0.0, 1.0), seq++, nullptr});
    // Drain half.
    for (int i = 0; i < 25; ++i) {
      auto ev = q->pop();
      ASSERT_GE(ev.time, clock);
      clock = ev.time;
    }
  }
  // Drain rest; monotonicity holds throughout.
  double last = clock;
  while (!q->empty()) {
    auto ev = q->pop();
    ASSERT_GE(ev.time, last);
    last = ev.time;
  }
}

TEST_P(QueueTest, MinTimeMatchesPop) {
  auto q = make();
  core::RngStream rng(5150);
  core::EventId seq = 1;
  for (int i = 0; i < 300; ++i) q->push({rng.uniform(0, 100), seq++, nullptr});
  while (!q->empty()) {
    const double mt = q->min_time();
    auto ev = q->pop();
    EXPECT_DOUBLE_EQ(ev.time, mt);
  }
}

TEST_P(QueueTest, CrossImplementationEquivalence) {
  // Every structure must produce the identical pop sequence as the binary
  // heap on a randomized hold-model workload.
  auto q = make();
  auto ref = core::make_event_queue(core::QueueKind::kBinaryHeap);
  core::RngStream rng_a(2024), rng_b(2024);
  core::EventId seq = 1;
  for (int i = 0; i < 97; ++i) {
    const double t = rng_a.uniform(0, 50);
    rng_b.uniform(0, 50);
    q->push({t, seq, nullptr});
    ref->push({t, seq, nullptr});
    ++seq;
  }
  for (int i = 0; i < 5000; ++i) {
    auto a = q->pop();
    auto b = ref->pop();
    ASSERT_DOUBLE_EQ(a.time, b.time) << "step " << i;
    ASSERT_EQ(a.seq, b.seq) << "step " << i;
    const double nt = a.time + rng_a.exponential(3.0);
    rng_b.exponential(3.0);
    q->push({nt, seq, nullptr});
    ref->push({nt, seq, nullptr});
    ++seq;
  }
}

TEST_P(QueueTest, NonMonotonePushAfterPop) {
  // The windowed-run idiom: pop an event past a horizon, requeue it, then
  // schedule events EARLIER than the requeued one (e.g. cross-LP deliveries
  // at the next window boundary). The calendar queue's dequeue cursor used
  // to stay anchored on the far-future day and return events in bucket
  // order instead of time order.
  auto q = make();
  q->push({100.0, 0, nullptr});
  auto far = q->pop();
  q->push(std::move(far));      // requeue beyond the horizon
  q->push({30.0, 2, nullptr});  // earlier than the last popped priority
  q->push({21.0, 3, nullptr});
  EXPECT_DOUBLE_EQ(q->min_time(), 21.0);
  EXPECT_DOUBLE_EQ(q->pop().time, 21.0);
  EXPECT_DOUBLE_EQ(q->pop().time, 30.0);
  EXPECT_DOUBLE_EQ(q->pop().time, 100.0);
  EXPECT_TRUE(q->empty());
}

TEST_P(QueueTest, NameIsStable) {
  auto q = make();
  EXPECT_STREQ(q->name(), core::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllStructures, QueueTest, ::testing::ValuesIn(core::kAllQueueKinds),
                         [](const ::testing::TestParamInfo<core::QueueKind>& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// --- ladder queue against a std::set reference -------------------------------

namespace {

// Drives a ladder queue and a std::set of the keys it holds in lockstep and
// checks size(), min_time() and every pop against the set after each step.
class LadderRef {
 public:
  LadderRef() : q_(core::make_event_queue(core::QueueKind::kLadderQueue)) {}

  const std::set<core::EventKey>& held() const { return held_; }
  const std::vector<core::EventKey>& popped() const { return popped_; }

  core::EventKey push(core::SimTime t) {
    const core::EventKey k{t, next_seq_++};
    q_->push({k.time, k.seq, nullptr});
    held_.insert(k);
    check();
    return k;
  }

  /// Pop the minimum; with `requeue` push the same record straight back
  /// (the engine's pop/inspect/requeue pattern).
  core::EventKey pop(bool requeue = false) {
    if (q_->empty()) {  // pop() on an empty queue would not return
      ADD_FAILURE() << "queue empty while the reference holds " << held_.size();
      return {};
    }
    EXPECT_FALSE(held_.empty());
    core::EventRecord ev = q_->pop();
    const core::EventKey got = core::key_of(ev);
    EXPECT_EQ(got, *held_.begin()) << "popped " << got.time << "/" << got.seq;
    if (requeue) {
      q_->push(std::move(ev));
    } else {
      held_.erase(got);
      popped_.push_back(got);
    }
    check();
    return got;
  }

  void drain() {
    while (!held_.empty() && !q_->empty()) pop();
    EXPECT_TRUE(held_.empty());
    EXPECT_TRUE(q_->empty());
  }

 private:
  void check() {
    ASSERT_EQ(q_->size(), held_.size());
    EXPECT_EQ(q_->min_time(), held_.empty() ? core::kInfTime : held_.begin()->time);
  }

  std::unique_ptr<core::EventQueue> q_;
  std::set<core::EventKey> held_;
  std::vector<core::EventKey> popped_;
  core::EventId next_seq_ = 1;
};

}  // namespace

TEST(LadderQueue, RandomProgramsMatchReferenceMinTime) {
  // Random push/pop/requeue programs: min_time() must equal the reference
  // minimum after every operation, whichever region (Bottom, a rung, Top)
  // holds it.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    LadderRef m;
    core::RngStream rng(seed);
    core::SimTime floor = 0;
    for (int op = 0; op < 8000; ++op) {
      const double u = rng.uniform(0, 1);
      if (u < 0.6 || m.held().empty()) {
        const double v = rng.uniform(0, 1);
        const core::SimTime dt = v < 0.2 ? 0.0 : v < 0.8 ? rng.exponential(1.0) : 1e3 * v;
        m.push(floor + dt);
      } else {
        const bool requeue = rng.bernoulli(0.1);
        const core::EventKey k = m.pop(requeue);
        if (!requeue) floor = k.time;
      }
      if (HasFatalFailure()) return;
    }
    m.drain();
  }
}

TEST(LadderQueue, ManyTopEpochsReuseRecycledBuckets) {
  // Successors are scheduled 10-20 time units ahead, mostly past the
  // current epoch's maximum and so into Top: the ladder drains, Top is
  // transferred again (about 50 times), and each new rung takes the buffers
  // the last one gave back. Populations vary between epochs so rungs grow
  // and shrink.
  LadderRef m;
  core::RngStream rng(77);
  for (int i = 0; i < 300; ++i) m.push(rng.uniform(0, 10));
  core::SimTime now = 0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    const int pops = static_cast<int>(m.held().size());
    for (int i = 0; i < pops; ++i) {
      now = m.pop().time;
      const int children = epoch % 3 == 0 ? 2 : epoch % 3 == 1 ? 1 : (i % 2);
      for (int c = 0; c < children; ++c) m.push(now + 10.0 + rng.uniform(0, 10));
      if (HasFatalFailure()) return;
    }
    if (m.held().empty()) m.push(now + 1.0);
  }
  m.drain();
}

TEST(LadderQueue, RungDepthReachesMaximum) {
  // A cluster of distinct times 1e-13 apart under a span of 1e6: every rung
  // puts the whole cluster into one bucket of more than 50 events, so rungs
  // spawn down to the depth limit and the last bucket is sorted straight
  // into Bottom. Pushes land in the deep rungs meanwhile.
  LadderRef m;
  for (int i = 0; i < 100; ++i) m.push(1.0 + 1e-13 * i);
  m.push(1e6);
  m.pop();
  for (int i = 0; i < 40; ++i) m.push(1.0 + 1e-13 * (i + 0.5));
  for (int i = 0; i < 40; ++i) m.push(1.0 + 1e-6 * i);  // shallower rungs
  for (int n = 0; n < 30; ++n) m.pop();
  m.push(m.popped().back().time);  // ties the last popped time, larger seq
  m.drain();
}

TEST(LadderQueue, BucketOfOneTimestamp) {
  // 500 simultaneous events form an all-simultaneous bucket that goes to
  // Bottom whole. Zero-delay successors (same time, larger seq) must queue
  // behind every one of them.
  LadderRef m;
  for (int i = 0; i < 500; ++i) m.push(5.0);
  for (int i = 0; i < 50; ++i) m.push(5.0 + 0.01 * i);
  for (int i = 0; i < 600; ++i) {
    const core::EventKey k = m.pop();
    if (k.time == 5.0 && i % 2 == 0) m.push(5.0);
    if (HasFatalFailure()) return;
  }
  m.drain();
}

TEST(LadderQueue, PushBelowBottomMinimumAfterRequeue) {
  // Fill Bottom from a bucket, pop-and-requeue its minimum, then push times
  // below everything Bottom holds (and below the requeued record): the
  // windowed-run idiom of cross-LP deliveries at the next window boundary.
  LadderRef m;
  for (int i = 0; i < 40; ++i) m.push(100.0 + i);
  m.push(1000.0);
  m.pop(/*requeue=*/true);
  m.push(99.5);
  m.push(50.0);
  m.push(50.0);
  m.pop(/*requeue=*/true);
  m.push(49.0);
  for (int i = 0; i < 10; ++i) m.pop();
  m.push(m.popped().back().time);  // below the rest of Bottom
  m.drain();
}
