// O(n)-insert doubly linked sorted list — the naive pending-set baseline.
//
// Insertion scans from the tail because DES workloads usually schedule into
// the near future relative to existing events, so the right position tends
// to be near the end. Pop is O(1).
#pragma once

#include <list>

#include "core/event_queue.hpp"

namespace lsds::core {

class SortedListQueue final : public EventQueue {
 public:
  void push(EventRecord&& ev) override;
  EventRecord pop() override;
  SimTime min_time() const override;
  std::size_t size() const override { return list_.size(); }
  const char* name() const override { return "sorted-list"; }

 private:
  std::list<EventRecord> list_;  // ascending (time, seq)
};

}  // namespace lsds::core
