#include "model/disk.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "common/check.h"

namespace rtq::model {

namespace {
/// Cache-hit service time: one bus transfer, no mechanical movement. The
/// paper does not give a figure; 0.5 ms per request is negligible against
/// a ~12 ms access, which is all that matters for the model.
constexpr SimTime kCacheHitTime = 0.5e-3;

/// Lowest set bit index >= `from`, or -1 when none.
int64_t FindSetAtOrAbove(const uint64_t* bits, size_t words, int64_t from) {
  size_t w = static_cast<size_t>(from) >> 6;
  if (w >= words) return -1;
  uint64_t word = bits[w] & (~uint64_t{0} << (from & 63));
  while (true) {
    if (word != 0)
      return static_cast<int64_t>((w << 6) + __builtin_ctzll(word));
    if (++w == words) return -1;
    word = bits[w];
  }
}

/// Highest set bit index <= `from`, or -1 when none.
int64_t FindSetAtOrBelow(const uint64_t* bits, int64_t from) {
  size_t w = static_cast<size_t>(from) >> 6;
  uint64_t word = bits[w] & (~uint64_t{0} >> (63 - (from & 63)));
  while (true) {
    if (word != 0)
      return static_cast<int64_t>((w << 6) + 63 - __builtin_clzll(word));
    if (w == 0) return -1;
    word = bits[--w];
  }
}
}  // namespace

Disk::Disk(sim::Simulator* sim, const DiskParams& params, DiskId id)
    : sim_(sim),
      geometry_(params),
      cache_(params.cache_pages),
      id_(id),
      bitmap_words_(
          (static_cast<size_t>(params.num_cylinders) + 63) / 64) {
  RTQ_CHECK(sim != nullptr);
  RTQ_CHECK_MSG(params.num_cylinders <= std::numeric_limits<uint32_t>::max(),
                "num_cylinders must fit in 32 bits");
  // One disk's live groups peak at 3-24 on the rtqbench workloads.
  // 32 groups (768 B) stay within the 1,032 B blocks that glibc's
  // per-thread cache serves; a larger reservation misses that cache
  // and slows building a disk.
  groups_.reserve(32);
  busy_.Start(sim->Now(), 0.0);
}

template <typename T, int Shift, uint32_t T::*Link>
uint32_t Disk::Pool<T, Shift, Link>::New() {
  if (free_ != kNil) {
    const uint32_t i = free_;
    free_ = (*this)[i].*Link;
    return i;
  }
  RTQ_CHECK_MSG(size_ < kNil, "disk queue index space exhausted");
  if ((size_ & ((uint32_t{1} << Shift) - 1)) == 0) {
    blocks_.emplace_back(new T[size_t{1} << Shift]);
  }
  return size_++;
}

void Disk::Submit(DiskRequest request) {
  RTQ_CHECK_MSG(request.pages > 0, "disk request must transfer >= 1 page");
  RTQ_CHECK_MSG(request.pages <= std::numeric_limits<uint32_t>::max(),
                "disk request pages must fit in 32 bits");
  RTQ_CHECK_MSG(
      request.start_page >= 0 &&
          request.start_page + request.pages <= geometry_.params().capacity(),
      "disk request outside disk capacity");
  const Cylinder cyl = geometry_.CylinderOf(request.start_page);
  if (!in_service_) {
    // Every completion starts the next queued request, so an idle disk
    // has an empty queue and the elevator would pick this request.
    RTQ_DCHECK(queued_count_ == 0);
    SweepToward(cyl);
    current_ = std::move(request);
    StartService();
    return;
  }

  const uint32_t n = nodes_.New();
  Node& node = nodes_[n];
  node.query = request.query;
  node.start_page = request.start_page;
  node.pages = static_cast<uint32_t>(request.pages);
  node.cyl = static_cast<uint32_t>(cyl);
  node.is_write = request.is_write;
  node.callback = kNil;
  if (request.on_complete) {
    node.callback = callbacks_.New();
    callbacks_[node.callback].fn = std::move(request.on_complete);
  }

  auto it = std::lower_bound(
      groups_.begin(), groups_.end(), request.deadline,
      [](const Group& g, SimTime d) { return g.deadline < d; });
  if (it != groups_.end() && it->deadline == request.deadline) {
    if (it->arrays == kNil) Spread(*it);
    Link(arrays_[it->arrays], n);
    ++it->count;
  } else {
    groups_.insert(it, Group{request.deadline, 1, n, kNil});
  }
  ++queued_count_;
}

void Disk::Spread(Group& g) {
  g.arrays = arrays_.New();
  ElevatorArrays& a = arrays_[g.arrays];
  if (!a.bits) {
    // Bits start clear; heads stay unwritten until their bit is set.
    a.bits.reset(new uint64_t[bitmap_words_]());
    a.heads.reset(new uint32_t[static_cast<size_t>(
        geometry_.params().num_cylinders)]);
  }
  Link(a, g.single);
}

void Disk::Link(ElevatorArrays& a, uint32_t n) {
  Node& node = nodes_[n];
  const uint32_t cyl = node.cyl;
  uint64_t& word = a.bits[cyl >> 6];
  const uint64_t bit = uint64_t{1} << (cyl & 63);
  if ((word & bit) == 0) {
    word |= bit;
    a.heads[cyl] = n;
    node.prev = n;
    node.next = n;
  } else {
    const uint32_t head = a.heads[cyl];
    const uint32_t tail = nodes_[head].prev;
    nodes_[tail].next = n;
    node.prev = tail;
    node.next = head;
    nodes_[head].prev = n;
  }
}

void Disk::Remove(Group& g, uint32_t n) {
  Node& node = nodes_[n];
  if (g.arrays != kNil) {
    ElevatorArrays& a = arrays_[g.arrays];
    const uint32_t cyl = node.cyl;
    if (node.next == n) {
      a.bits[cyl >> 6] &= ~(uint64_t{1} << (cyl & 63));
    } else {
      nodes_[node.prev].next = node.next;
      nodes_[node.next].prev = node.prev;
      if (a.heads[cyl] == n) a.heads[cyl] = node.next;
    }
  }
  --g.count;
  --queued_count_;
  if (node.callback != kNil) {
    callbacks_[node.callback].fn = nullptr;
    callbacks_.Free(node.callback);
  }
  nodes_.Free(n);
}

void Disk::RetireGroup(size_t index) {
  const Group& g = groups_[index];
  RTQ_DCHECK(g.count == 0);
  if (g.arrays != kNil) {
    [[maybe_unused]] const uint64_t* bits = arrays_[g.arrays].bits.get();
    RTQ_DCHECK(std::all_of(bits, bits + bitmap_words_,
                           [](uint64_t word) { return word == 0; }));
    arrays_.Free(g.arrays);
  }
  groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(index));
}

int64_t Disk::CancelQuery(QueryId query) {
  int64_t removed = 0;
  // Back to front, so retiring a drained group leaves the indices still
  // to visit in place.
  for (size_t gi = groups_.size(); gi-- > 0;) {
    Group& g = groups_[gi];
    if (g.arrays == kNil) {
      if (nodes_[g.single].query == query) {
        Remove(g, g.single);
        ++removed;
      }
    } else {
      const ElevatorArrays& a = arrays_[g.arrays];
      for (size_t w = 0; w < bitmap_words_; ++w) {
        for (uint64_t word = a.bits[w]; word != 0; word &= word - 1) {
          const auto cyl =
              static_cast<uint32_t>((w << 6) + __builtin_ctzll(word));
          uint32_t n = a.heads[cyl];
          const uint32_t tail = nodes_[n].prev;
          while (true) {
            const uint32_t next = nodes_[n].next;
            const bool at_tail = n == tail;
            if (nodes_[n].query == query) {
              Remove(g, n);
              ++removed;
            }
            if (at_tail) break;
            n = next;
          }
        }
      }
    }
    if (g.count == 0) RetireGroup(gi);
  }
  if (in_service_ && current_.query == query) current_cancelled_ = true;
  return removed;
}

uint32_t Disk::PickByElevator(const ElevatorArrays& a) {
  // Among requests tied at the earliest deadline, continue the current
  // sweep direction from the head position, reversing when no request
  // lies ahead: the nearest non-empty cylinder at-or-ahead of the head,
  // FIFO within a cylinder.
  Cylinder cyl = sweep_up_
                     ? FindSetAtOrAbove(a.bits.get(), bitmap_words_, head_)
                     : FindSetAtOrBelow(a.bits.get(), head_);
  if (cyl < 0) {
    sweep_up_ = !sweep_up_;
    cyl = sweep_up_ ? FindSetAtOrAbove(a.bits.get(), bitmap_words_, head_)
                    : FindSetAtOrBelow(a.bits.get(), head_);
  }
  RTQ_DCHECK(cyl >= 0);
  return a.heads[cyl];
}

void Disk::StartNext() {
  if (queued_count_ == 0) return;
  // The earliest-deadline group sits at the front of the deadline order.
  Group& g = groups_.front();
  uint32_t n = g.single;
  if (g.arrays == kNil) {
    SweepToward(nodes_[n].cyl);
  } else {
    n = PickByElevator(arrays_[g.arrays]);
  }
  const Node& node = nodes_[n];
  current_.query = node.query;
  current_.deadline = g.deadline;
  current_.start_page = node.start_page;
  current_.pages = node.pages;
  current_.is_write = node.is_write;
  if (node.callback != kNil) {
    current_.on_complete = std::move(callbacks_[node.callback].fn);
  } else {
    current_.on_complete = nullptr;
  }
  Remove(g, n);
  if (g.count == 0) RetireGroup(0);
  StartService();
}

void Disk::StartService() {
  current_cancelled_ = false;
  in_service_ = true;
  busy_.Update(sim_->Now(), 1.0);

  SimTime service;
  if (!current_.is_write && cache_.Contains(current_.start_page,
                                            current_.pages)) {
    service = kCacheHitTime;
    ++cache_hits_;
  } else {
    service = geometry_.AccessTime(head_, current_.start_page,
                                   current_.pages);
    head_ = geometry_.CylinderOf(current_.start_page + current_.pages - 1);
    if (current_.is_write) {
      // Conservative write-through model: a media write may overlap any
      // cached extent; drop the cache rather than track overlaps.
      cache_.Invalidate();
    } else {
      cache_.Insert(current_.start_page, current_.pages);
    }
  }
  sim_->ScheduleAfter(service, [this] { OnServiceComplete(); });
}

void Disk::OnServiceComplete() {
  RTQ_DCHECK(in_service_);
  ++completed_requests_;
  completed_pages_ += current_.pages;
  in_service_ = false;
  busy_.Update(sim_->Now(), 0.0);

  // Take the callback out before starting the next access so a callback
  // that submits new requests sees a consistent disk state.
  auto callback = std::move(current_.on_complete);
  bool deliver = !current_cancelled_ && static_cast<bool>(callback);
  StartNext();
  if (deliver) callback();
}

}  // namespace rtq::model
