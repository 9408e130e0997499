#include "core/queues/sorted_list.hpp"

#include <utility>

namespace lsds::core {

void SortedListQueue::push(EventRecord&& ev) {
  // Scan from the back: new events usually belong near the tail.
  auto it = list_.end();
  while (it != list_.begin()) {
    auto prev = std::prev(it);
    if (!(ev < *prev)) break;
    it = prev;
  }
  list_.insert(it, std::move(ev));
}

EventRecord SortedListQueue::pop() {
  EventRecord ev = std::move(list_.front());
  list_.pop_front();
  return ev;
}

SimTime SortedListQueue::min_time() const {
  return list_.empty() ? kInfTime : list_.front().time;
}

}  // namespace lsds::core
