#include "core/queues/ladder_queue.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace lsds::core {

LadderQueue::LadderQueue() = default;

std::size_t LadderQueue::Rung::bucket_of(SimTime t) const {
  if (t <= start) return 0;
  auto i = static_cast<std::size_t>((t - start) / width);
  return std::min(i, buckets.size() - 1);
}

void LadderQueue::push(EventRecord ev) {
  ++size_;
  const SimTime t = ev.time;
  // 1) Far future -> Top.
  if (ladder_.empty() && bottom_.empty()) {
    // Everything funnels through Top when the rest is empty.
    top_.push_back(std::move(ev));
    top_min_ = std::min(top_min_, t);
    top_max_ = std::max(top_max_, t);
    return;
  }
  if (t >= top_start_) {
    top_.push_back(std::move(ev));
    top_min_ = std::min(top_min_, t);
    top_max_ = std::max(top_max_, t);
    return;
  }
  // 2) Within the ladder's active range -> deepest rung that covers t,
  //    but never into a bucket that has already been drained.
  for (auto& rung : ladder_) {
    const double cur_edge = rung.start + rung.width * static_cast<double>(rung.cur);
    if (t >= cur_edge) {
      auto idx = rung.bucket_of(t);
      if (idx >= rung.cur) {
        rung.buckets[idx].push_back(std::move(ev));
        ++rung.count;
        return;
      }
    }
  }
  // 3) Near future -> Bottom (sorted insert).
  auto it = bottom_.end();
  while (it != bottom_.begin()) {
    auto prev = std::prev(it);
    if (!(ev < *prev)) break;
    it = prev;
  }
  bottom_.insert(it, std::move(ev));
}

void LadderQueue::spawn_rung(std::vector<EventRecord> events, double start, double end) {
  Rung rung;
  rung.start = start;
  const std::size_t n = std::max<std::size_t>(events.size(), 1);
  double span = end - start;
  if (span <= 0) span = 1e-9;
  rung.width = span / static_cast<double>(n);
  if (rung.width <= 0 || !std::isfinite(rung.width)) rung.width = 1e-9;
  rung.buckets.resize(n);
  rung.cur = 0;
  for (EventRecord& ev : events) {
    rung.buckets[rung.bucket_of(ev.time)].push_back(std::move(ev));
  }
  rung.count = events.size();
  ladder_.push_back(std::move(rung));
}

void LadderQueue::transfer_top_to_ladder() {
  if (top_.empty()) return;
  // New epoch: events later pushed beyond the old max spill into Top again.
  top_start_ = top_max_ + 1e-12;
  std::vector<EventRecord> events = std::move(top_);
  top_.clear();
  const double start = top_min_;
  const double end = top_max_;
  top_min_ = kInfTime;
  top_max_ = -kInfTime;
  spawn_rung(std::move(events), start, end == start ? start + 1e-9 : end);
}

void LadderQueue::sort_into_bottom(std::vector<EventRecord> events) {
  std::sort(events.begin(), events.end(),
            [](const EventRecord& a, const EventRecord& b) { return a < b; });
  // Merge into (usually empty) bottom_.
  auto it = bottom_.begin();
  for (EventRecord& ev : events) {
    while (it != bottom_.end() && *it < ev) ++it;
    bottom_.insert(it, std::move(ev));
  }
}

bool LadderQueue::advance_ladder() {
  while (!ladder_.empty()) {
    Rung& rung = ladder_.back();
    if (rung.count == 0) {
      ladder_.pop_back();
      continue;
    }
    while (rung.cur < rung.buckets.size() && rung.buckets[rung.cur].empty()) ++rung.cur;
    if (rung.cur >= rung.buckets.size()) {
      ladder_.pop_back();
      continue;
    }
    std::vector<EventRecord> bucket = std::move(rung.buckets[rung.cur]);
    rung.buckets[rung.cur].clear();
    rung.count -= bucket.size();
    const double b_start = rung.start + rung.width * static_cast<double>(rung.cur);
    const double b_end = b_start + rung.width;
    ++rung.cur;

    const bool all_simultaneous = [&] {
      for (const auto& ev : bucket) {
        if (std::fabs(ev.time - bucket.front().time) > 1e-15) return false;
      }
      return true;
    }();

    if (bucket.size() > kBottomThreshold && ladder_.size() < kMaxRungs && !all_simultaneous) {
      spawn_rung(std::move(bucket), b_start, b_end);
      continue;  // drain the finer rung next
    }
    sort_into_bottom(std::move(bucket));
    return true;
  }
  return false;
}

EventRecord LadderQueue::pop() {
  // Precondition: !empty(). The loop below would spin otherwise.
  while (bottom_.empty()) {
    if (!advance_ladder()) {
      transfer_top_to_ladder();
      // After a transfer the ladder is non-empty iff there were Top events.
    }
  }
  EventRecord ev = std::move(bottom_.front());
  bottom_.pop_front();
  --size_;
  return ev;
}

bool LadderQueue::erase(EventKey key) {
  // A rung holds an event in the bucket its time maps to, until that bucket
  // is drained into a finer rung or Bottom.
  for (Rung& rung : ladder_) {
    const std::size_t idx = rung.bucket_of(key.time);
    if (idx < rung.cur) continue;
    std::vector<EventRecord>& b = rung.buckets[idx];
    for (EventRecord& ev : b) {
      if (key_of(ev) == key) {
        ev = std::move(b.back());  // buckets are unsorted
        b.pop_back();
        --rung.count;
        --size_;
        return true;
      }
    }
  }
  for (auto it = bottom_.begin(); it != bottom_.end() && !(key < key_of(*it)); ++it) {
    if (key_of(*it) == key) {
      bottom_.erase(it);
      --size_;
      return true;
    }
  }
  return false;
}

SimTime LadderQueue::min_time() const {
  SimTime best = kInfTime;
  if (!bottom_.empty()) best = bottom_.front().time;
  for (const auto& rung : ladder_) {
    for (std::size_t i = rung.cur; i < rung.buckets.size(); ++i) {
      for (const auto& ev : rung.buckets[i]) best = std::min(best, ev.time);
    }
  }
  for (const auto& ev : top_) best = std::min(best, ev.time);
  return best;
}

}  // namespace lsds::core
