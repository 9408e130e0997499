#include "core/queues/ladder_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace lsds::core {

LadderQueue::LadderQueue() = default;

std::size_t LadderQueue::Rung::bucket_of(SimTime t) const {
  if (t <= start) return 0;
  auto i = static_cast<std::size_t>((t - start) / width);
  return std::min(i, nbuckets - 1);
}

void LadderQueue::push(EventRecord&& ev) {
  ++size_;
  const SimTime t = ev.time;
  // 1) Far future -> Top. Everything funnels through Top when the rest is
  //    empty.
  if ((depth_ == 0 && bottom_empty()) || t >= top_start_) {
    top_.push_back(std::move(ev));
    top_min_ = std::min(top_min_, t);
    top_max_ = std::max(top_max_, t);
    return;
  }
  // 2) Within the ladder's active range -> outermost rung that covers t,
  //    but never into a bucket that has already been drained.
  for (std::size_t d = 0; d < depth_; ++d) {
    Rung& rung = rungs_[d];
    const double cur_edge = rung.start + rung.width * static_cast<double>(rung.cur);
    if (t >= cur_edge) {
      auto idx = rung.bucket_of(t);
      if (idx >= rung.cur) {
        bucket_push(rung.buckets[idx], std::move(ev));
        ++rung.count;
        return;
      }
    }
  }
  // 3) Near future -> Bottom (sorted insert).
  insert_into_bottom(std::move(ev));
}

void LadderQueue::bucket_push(Bucket& b, EventRecord&& ev) {
  if (b.capacity() == 0 && !spare_.empty()) {
    b.swap(spare_.back());
    spare_.pop_back();
    spare_records_ -= b.capacity();
  }
  b.push_back(std::move(ev));
}

void LadderQueue::release(Bucket& b) {
  b.clear();
  const std::size_t cap = b.capacity();
  if (cap == 0) return;
  if (cap <= kSpareCapacity && spare_records_ + cap <= kSpareRecords) {
    spare_.emplace_back().swap(b);
    spare_records_ += cap;
  } else {
    Bucket().swap(b);  // free it
  }
}

void LadderQueue::insert_into_bottom(EventRecord&& ev) {
  const auto first = bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_);
  const auto pos = std::upper_bound(first, bottom_.end(), ev);
  if (bottom_head_ > 0 && pos - first <= bottom_.end() - pos) {
    // Shift the smaller records one slot down, into the popped prefix.
    std::move(first, pos, first - 1);
    *(pos - 1) = std::move(ev);
    --bottom_head_;
    return;
  }
  auto at = pos - bottom_.begin();
  if (bottom_.size() == bottom_.capacity() && 2 * bottom_head_ >= bottom_.size()) {
    // Reclaim the popped prefix instead of growing.
    bottom_.erase(bottom_.begin(), first);
    at -= static_cast<std::ptrdiff_t>(bottom_head_);
    bottom_head_ = 0;
  }
  bottom_.insert(bottom_.begin() + at, std::move(ev));
}

void LadderQueue::spawn_rung(std::vector<EventRecord>& events, double start, double end) {
  assert(depth_ < kMaxRungs);
  Rung& rung = rungs_[depth_++];
  rung.start = start;
  const std::size_t n = std::max<std::size_t>(events.size(), 1);
  double span = end - start;
  if (span <= 0) span = 1e-9;
  rung.width = span / static_cast<double>(n);
  if (rung.width <= 0 || !std::isfinite(rung.width)) rung.width = 1e-9;
  if (rung.buckets.size() < n) rung.buckets.resize(n);
  rung.nbuckets = n;
  rung.cur = 0;
  for (EventRecord& ev : events) {
    bucket_push(rung.buckets[rung.bucket_of(ev.time)], std::move(ev));
  }
  rung.count = events.size();
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
  spawn_rung(events, start, end == start ? start + 1e-9 : end);
}

bool LadderQueue::advance_ladder() {
  while (depth_ > 0) {
    Rung& rung = rungs_[depth_ - 1];
    if (rung.count == 0) {
      --depth_;
      continue;
    }
    while (rung.cur < rung.nbuckets && rung.buckets[rung.cur].empty()) ++rung.cur;
    if (rung.cur >= rung.nbuckets) {
      --depth_;
      continue;
    }
    Bucket& bucket = rung.buckets[rung.cur];
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

    if (bucket.size() > kBottomThreshold && depth_ < kMaxRungs && !all_simultaneous) {
      spawn_rung(bucket, b_start, b_end);
      release(bucket);
      continue;  // drain the finer rung next
    }
    // Bottom is empty here: pop() only advances the ladder then. It takes
    // the bucket's buffer, records and all, and its own empty buffer goes
    // the way of any drained bucket's.
    assert(bottom_.empty() && bottom_head_ == 0);
    bottom_.swap(bucket);
    release(bucket);
    std::sort(bottom_.begin(), bottom_.end());
    return true;
  }
  return false;
}

EventRecord LadderQueue::pop() {
  // Precondition: !empty(). The loop below would spin otherwise.
  while (bottom_empty()) {
    if (!advance_ladder()) {
      transfer_top_to_ladder();
      // After a transfer the ladder is non-empty iff there were Top events.
    }
  }
  EventRecord ev = std::move(bottom_[bottom_head_++]);
  if (bottom_empty()) {  // drop the popped prefix
    bottom_.clear();
    bottom_head_ = 0;
  }
  --size_;
  return ev;
}

SimTime LadderQueue::min_time() const {
  if (!bottom_empty()) return bottom_[bottom_head_].time;
  // pop() drains the innermost non-empty rung's next non-empty bucket
  // first; each rung's buckets are in time order.
  for (std::size_t d = depth_; d-- > 0;) {
    const Rung& rung = rungs_[d];
    if (rung.count == 0) continue;
    for (std::size_t i = rung.cur; i < rung.nbuckets; ++i) {
      const Bucket& b = rung.buckets[i];
      if (b.empty()) continue;
      SimTime best = kInfTime;
      for (const auto& ev : b) best = std::min(best, ev.time);
      return best;
    }
  }
  return top_min_;
}

}  // namespace lsds::core
