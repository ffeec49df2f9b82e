#include "model/disk.h"

#include <algorithm>
#include <cstring>
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
  groups_.reserve(64);
  busy_.Start(sim->Now(), 0.0);
}

Disk::DeadlineGroup* Disk::GroupFor(SimTime deadline) {
  auto it = std::lower_bound(
      groups_.begin(), groups_.end(), deadline,
      [](const std::pair<SimTime, DeadlineGroup*>& a, SimTime b) {
        return a.first < b;
      });
  if (it != groups_.end() && it->first == deadline) return it->second;
  DeadlineGroup* g = free_groups_;
  if (g != nullptr) {
    free_groups_ = g->next_free;
  } else {
    group_storage_.push_back(std::make_unique<DeadlineGroup>());
    g = group_storage_.back().get();
    // Default-initialised, not zeroed: see DeadlineGroup.
    g->bits.reset(new uint64_t[bitmap_words_]);
    g->heads.reset(new RequestNode*[static_cast<size_t>(
        geometry_.params().num_cylinders)]);
  }
  std::memset(g->bits.get(), 0, bitmap_words_ * sizeof(uint64_t));
  g->count = 0;
  g->next_free = nullptr;
  groups_.insert(it, {deadline, g});
  return g;
}

Disk::RequestNode* Disk::NewNode() {
  if (RequestNode* n = free_nodes_) {
    free_nodes_ = n->fifo_next;
    return n;
  }
  if (node_blocks_.empty() || node_blocks_.back().size() == kNodesPerBlock) {
    node_blocks_.emplace_back().reserve(kNodesPerBlock);
  }
  return &node_blocks_.back().emplace_back();
}

void Disk::Submit(DiskRequest request) {
  RTQ_CHECK_MSG(request.pages > 0, "disk request must transfer >= 1 page");
  RTQ_CHECK_MSG(
      request.start_page >= 0 &&
          request.start_page + request.pages <= geometry_.params().capacity(),
      "disk request outside disk capacity");
  const Cylinder cyl = geometry_.CylinderOf(request.start_page);
  if (!in_service_) {
    // Every completion starts the next queued request, so an idle disk
    // has an empty queue and the elevator would pick this request. Replay
    // its sweep: a request behind the head reverses the direction.
    RTQ_DCHECK(queued_count_ == 0);
    if (sweep_up_ ? cyl < head_ : cyl > head_) sweep_up_ = !sweep_up_;
    current_ = std::move(request);
    StartService();
    return;
  }

  DeadlineGroup* g = GroupFor(request.deadline);
  RequestNode* node = NewNode();
  node->req = std::move(request);
  node->group = g;
  node->cyl = cyl;
  const size_t w = static_cast<size_t>(cyl) >> 6;
  const uint64_t bit = uint64_t{1} << (cyl & 63);
  if ((g->bits[w] & bit) == 0) {
    g->bits[w] |= bit;
    g->heads[cyl] = node;
    node->fifo_prev = node;
    node->fifo_next = node;
  } else {
    RequestNode* head = g->heads[cyl];
    RequestNode* tail = head->fifo_prev;
    tail->fifo_next = node;
    node->fifo_prev = tail;
    node->fifo_next = head;
    head->fifo_prev = node;
  }
  ++g->count;
  ++queued_count_;
}

void Disk::RemoveFromQueue(RequestNode* node) {
  DeadlineGroup* g = node->group;
  const Cylinder cyl = node->cyl;
  if (node->fifo_next == node) {
    g->bits[static_cast<size_t>(cyl) >> 6] &= ~(uint64_t{1} << (cyl & 63));
  } else {
    node->fifo_prev->fifo_next = node->fifo_next;
    node->fifo_next->fifo_prev = node->fifo_prev;
    if (g->heads[cyl] == node) g->heads[cyl] = node->fifo_next;
  }
  --g->count;
  --queued_count_;
  node->req.on_complete = nullptr;
  node->fifo_next = free_nodes_;
  free_nodes_ = node;
}

void Disk::RetireGroup(size_t index) {
  DeadlineGroup* g = groups_[index].second;
  RTQ_DCHECK(g->count == 0);
  groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(index));
  g->next_free = free_groups_;
  free_groups_ = g;
}

int64_t Disk::CancelQuery(QueryId query) {
  int64_t removed = 0;
  // Back to front, so retiring a drained group leaves the indices still
  // to visit in place.
  for (size_t gi = groups_.size(); gi-- > 0;) {
    DeadlineGroup* g = groups_[gi].second;
    for (size_t w = 0; w < bitmap_words_; ++w) {
      for (uint64_t word = g->bits[w]; word != 0; word &= word - 1) {
        const Cylinder cyl =
            static_cast<Cylinder>((w << 6) + __builtin_ctzll(word));
        RequestNode* n = g->heads[cyl];
        RequestNode* const tail = n->fifo_prev;
        while (true) {
          RequestNode* next = n->fifo_next;
          const bool at_tail = n == tail;
          if (n->req.query == query) {
            RemoveFromQueue(n);
            ++removed;
          }
          if (at_tail) break;
          n = next;
        }
      }
    }
    if (g->count == 0) RetireGroup(gi);
  }
  if (in_service_ && current_.query == query) current_cancelled_ = true;
  return removed;
}

Disk::RequestNode* Disk::PickByElevator() {
  RTQ_DCHECK(!groups_.empty());
  // The earliest-deadline group sits at the front of the deadline order.
  DeadlineGroup* g = groups_.front().second;
  // Among requests tied at the earliest deadline, continue the current
  // sweep direction from the head position, reversing when no request
  // lies ahead: the nearest non-empty cylinder at-or-ahead of the head,
  // FIFO within a cylinder.
  Cylinder cyl = sweep_up_
                     ? FindSetAtOrAbove(g->bits.get(), bitmap_words_, head_)
                     : FindSetAtOrBelow(g->bits.get(), head_);
  if (cyl < 0) {
    sweep_up_ = !sweep_up_;
    cyl = sweep_up_ ? FindSetAtOrAbove(g->bits.get(), bitmap_words_, head_)
                    : FindSetAtOrBelow(g->bits.get(), head_);
  }
  RTQ_DCHECK(cyl >= 0);
  return g->heads[cyl];
}

void Disk::StartNext() {
  if (queued_count_ == 0) return;
  RequestNode* node = PickByElevator();
  current_ = std::move(node->req);
  RemoveFromQueue(node);
  // The pick comes from the earliest-deadline group, at the front.
  if (groups_.front().second->count == 0) RetireGroup(0);
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
