#include "buffer/buffer_pool.h"

#include <string>

#include "common/check.h"

namespace rtq::buffer {

BufferPool::BufferPool(PageCount total_pages)
    : total_(total_pages), cache_(total_pages) {
  RTQ_CHECK_MSG(total_pages > 0, "buffer pool must have > 0 pages");
}

Status BufferPool::Resize(PageCount from, PageCount to) {
  if (from < 0 || to < 0)
    return Status::InvalidArgument("reservation must be >= 0 pages");
  if (reserved_ + to - from > total_) {
    return Status::OutOfRange(
        "reservation of " + std::to_string(to) + " pages exceeds pool (" +
        std::to_string(total_ - reserved_ + from) + " available)");
  }
  reserved_ += to - from;
  RTQ_DCHECK(reserved_ >= 0 && reserved_ <= total_);
  cache_.SetCapacity(unreserved());
  return Status::Ok();
}

}  // namespace rtq::buffer
