#include "core/strategy.h"

#include <algorithm>

#include "common/check.h"

namespace rtq::core {

void AllocateThroughFilter(
    const AllocationStrategy& inner, const std::vector<MemRequest>& ed_sorted,
    PageCount total, const std::function<bool(const MemRequest&)>& keep,
    AllocationVector* out, StableTailHint* hint) {
  // Record rejects only: `keep` may be stateful, so it runs exactly once
  // per request, and the common everything-kept reallocation pays no
  // copy of the request vector.
  std::vector<size_t> rejected;
  for (size_t i = 0; i < ed_sorted.size(); ++i) {
    if (!keep(ed_sorted[i])) rejected.push_back(i);
  }
  if (rejected.empty()) {
    inner.AllocateInto(ed_sorted, total, out, hint);
    return;
  }
  std::vector<MemRequest> kept;
  std::vector<size_t> position;  // kept index -> ed_sorted index
  kept.reserve(ed_sorted.size() - rejected.size());
  position.reserve(ed_sorted.size() - rejected.size());
  size_t next_reject = 0;
  for (size_t i = 0; i < ed_sorted.size(); ++i) {
    if (next_reject < rejected.size() && rejected[next_reject] == i) {
      ++next_reject;
      continue;
    }
    kept.push_back(ed_sorted[i]);
    position.push_back(i);
  }
  AllocationVector inner_out = inner.Allocate(kept, total);
  out->assign(ed_sorted.size(), 0);
  for (size_t i = 0; i < position.size(); ++i) {
    (*out)[position[i]] = inner_out[i];
  }
}

void MaxStrategy::AllocateInto(const std::vector<MemRequest>& ed_sorted,
                               PageCount total, AllocationVector* out_vec,
                               StableTailHint* hint) const {
  out_vec->assign(ed_sorted.size(), 0);
  AllocationVector& out = *out_vec;
  PageCount remaining = total;
  size_t frontier = ed_sorted.size();
  for (size_t i = 0; i < ed_sorted.size(); ++i) {
    const MemRequest& q = ed_sorted[i];
    RTQ_DCHECK(q.max_memory >= q.min_memory && q.min_memory >= 0);
    if (q.max_memory <= remaining) {
      out[i] = q.max_memory;
      remaining -= q.max_memory;
    } else if (!bypass_blocked_) {
      // Strict ED: nobody may jump over a blocked higher-priority query.
      frontier = i;
      break;
    }
  }
  // Bypass mode considers every request, so only an insert sorting after
  // the whole list is provably ignorable; strict mode stops at the first
  // blocked request, so anything behind that block is. Either way a
  // request whose maximum exceeds the leftover at the stop point gets
  // nothing and changes nothing.
  hint->valid = true;
  hint->from = frontier;
  hint->spare_min = -1;
  hint->spare_max = remaining;
}

std::string MaxStrategy::name() const {
  return bypass_blocked_ ? "Max" : "Max(strict)";
}

void MinMaxStrategy::AllocateInto(const std::vector<MemRequest>& ed_sorted,
                                  PageCount total, AllocationVector* out_vec,
                                  StableTailHint* hint) const {
  out_vec->assign(ed_sorted.size(), 0);
  AllocationVector& out = *out_vec;
  size_t limit = mpl_limit_ < 0
                     ? ed_sorted.size()
                     : std::min<size_t>(ed_sorted.size(),
                                        static_cast<size_t>(mpl_limit_));
  // Pass 1: minimum allocations in ED order, until memory or the MPL
  // limit runs out. Strict priority: stop at the first query whose
  // minimum does not fit.
  PageCount remaining = total;
  size_t admitted = 0;
  for (size_t i = 0; i < limit; ++i) {
    const MemRequest& q = ed_sorted[i];
    if (q.min_memory > remaining) break;
    out[i] = q.min_memory;
    remaining -= q.min_memory;
    admitted = i + 1;
  }
  // A request behind the admission frontier is never reached when the
  // MPL cap closed admission (spare_min = -1: deny all), and otherwise
  // is denied — becoming the new pass-1 breaker — iff its minimum
  // exceeds the pass-1 leftover.
  hint->valid = true;
  hint->from = admitted;
  hint->spare_min =
      (mpl_limit_ >= 0 && admitted == static_cast<size_t>(mpl_limit_))
          ? -1
          : remaining;
  hint->spare_max = -1;
  // Pass 2: top up to maximum in ED order. The last query topped up may
  // land between its minimum and maximum ("the query that gets the last
  // few memory pages", Section 3.2).
  for (size_t i = 0; i < admitted && remaining > 0; ++i) {
    PageCount want = ed_sorted[i].max_memory - out[i];
    PageCount grant = std::min(want, remaining);
    out[i] += grant;
    remaining -= grant;
  }
}

std::string MinMaxStrategy::name() const {
  if (mpl_limit_ < 0) return "MinMax";
  return "MinMax-" + std::to_string(mpl_limit_);
}

void ProportionalStrategy::AllocateInto(
    const std::vector<MemRequest>& ed_sorted, PageCount total,
    AllocationVector* out_vec, StableTailHint* hint) const {
  out_vec->assign(ed_sorted.size(), 0);
  AllocationVector& out = *out_vec;
  size_t limit = mpl_limit_ < 0
                     ? ed_sorted.size()
                     : std::min<size_t>(ed_sorted.size(),
                                        static_cast<size_t>(mpl_limit_));
  // Admit the longest ED prefix whose minimum demands fit.
  PageCount min_sum = 0;
  size_t admitted = 0;
  for (size_t i = 0; i < limit; ++i) {
    if (min_sum + ed_sorted[i].min_memory > total) break;
    min_sum += ed_sorted[i].min_memory;
    admitted = i + 1;
  }
  // Same frontier reasoning as MinMax: a denied insert at/behind the
  // frontier leaves the admitted prefix — and hence the fitted fraction
  // below — untouched.
  hint->valid = true;
  hint->from = admitted;
  hint->spare_min =
      (mpl_limit_ >= 0 && admitted == static_cast<size_t>(mpl_limit_))
          ? -1
          : total - min_sum;
  hint->spare_max = -1;
  if (admitted == 0) return;

  // Find the largest fraction f in [0, 1] such that
  //   sum_i max(min_i, f * max_i) <= total.
  // The left side is piecewise-linear and nondecreasing in f; binary
  // search converges well below one page of slack in 50 iterations.
  auto need = [&](double f) {
    double sum = 0.0;
    for (size_t i = 0; i < admitted; ++i) {
      const MemRequest& q = ed_sorted[i];
      sum += std::max(static_cast<double>(q.min_memory),
                      f * static_cast<double>(q.max_memory));
    }
    return sum;
  };
  double lo = 0.0, hi = 1.0;
  if (need(1.0) <= static_cast<double>(total)) {
    lo = 1.0;
  } else {
    for (int iter = 0; iter < 50; ++iter) {
      double mid = (lo + hi) / 2.0;
      if (need(mid) <= static_cast<double>(total)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }
  for (size_t i = 0; i < admitted; ++i) {
    const MemRequest& q = ed_sorted[i];
    PageCount alloc = std::max(
        q.min_memory, static_cast<PageCount>(
                          lo * static_cast<double>(q.max_memory)));
    out[i] = std::min(alloc, q.max_memory);
  }
}

std::string ProportionalStrategy::name() const {
  if (mpl_limit_ < 0) return "Proportional";
  return "Proportional-" + std::to_string(mpl_limit_);
}

}  // namespace rtq::core
