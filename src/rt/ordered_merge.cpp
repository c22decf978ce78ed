#include "rt/ordered_merge.h"

#include <algorithm>
#include <limits>

namespace mdn::rt {

std::uint32_t OrderedMerge::add_source() {
  common::MutexLock lock(mu_);
  done_through_.push_back(0);
  closed_.push_back(false);
  return static_cast<std::uint32_t>(done_through_.size() - 1);
}

void OrderedMerge::push(const StreamEvent& event) {
  common::MutexLock lock(mu_);
  pending_.push_back(event);
}

void OrderedMerge::advance(std::uint32_t source, std::uint64_t through_seq) {
  common::MutexLock lock(mu_);
  if (through_seq > done_through_[source]) {
    done_through_[source] = through_seq;
  }
}

void OrderedMerge::close(std::uint32_t source) {
  common::MutexLock lock(mu_);
  closed_[source] = true;
}

std::uint64_t OrderedMerge::watermark_locked() const {
  std::uint64_t w = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < done_through_.size(); ++i) {
    if (!closed_[i]) w = std::min(w, done_through_[i]);
  }
  return w;
}

std::uint64_t OrderedMerge::watermark() const {
  common::MutexLock lock(mu_);
  return watermark_locked();
}

std::size_t OrderedMerge::pending() const {
  common::MutexLock lock(mu_);
  return pending_.size();
}

std::size_t OrderedMerge::drain_ready(std::vector<StreamEvent>& out) {
  common::MutexLock lock(mu_);
  const std::uint64_t w = watermark_locked();
  // std::partition (not stable_partition, which may allocate): the ready
  // prefix is sorted below and the kept suffix is sorted on a later
  // drain, so relative order inside either group is irrelevant.
  const auto mid =
      std::partition(pending_.begin(), pending_.end(),
                     [w](const StreamEvent& e) { return e.seq < w; });
  std::sort(pending_.begin(), mid, stream_event_before);
  const std::size_t released =
      static_cast<std::size_t>(mid - pending_.begin());
  out.insert(out.end(), pending_.begin(), mid);
  pending_.erase(pending_.begin(), mid);  // shift, capacity retained
  return released;
}

}  // namespace mdn::rt
