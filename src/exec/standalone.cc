#include "exec/standalone.h"

#include <cmath>

#include "common/check.h"

namespace rtq::exec {

namespace {

/// Expected disk time for a sequential scan of `pages` pages read in
/// blocks of `block` pages: every request pays half a rotation, the media
/// transfer, and a single-cylinder seek amortized over the requests that
/// cross a cylinder boundary.
SimTime SequentialScanTime(const model::DiskParams& disk, PageCount pages,
                           PageCount block) {
  model::DiskGeometry geom(disk);
  int64_t requests = CeilDiv(pages, block);
  double boundary_fraction =
      static_cast<double>(block) / static_cast<double>(disk.cylinder_size);
  SimTime positioning =
      geom.RotationalDelay() + geom.SeekTime(0, 1) * boundary_fraction;
  return static_cast<double>(requests) * positioning +
         geom.TransferTime(pages);
}

}  // namespace

StandaloneEstimate EstimateHashJoin(const ExecParams& exec,
                                    const model::DiskParams& disk,
                                    double mips, PageCount r_pages,
                                    PageCount s_pages) {
  RTQ_CHECK_MSG(mips > 0.0, "mips must be positive");
  RTQ_CHECK_MSG(r_pages > 0 && s_pages > 0, "empty join operand");
  const CpuCosts& c = exec.costs;
  const int64_t tpp = exec.tuples.tuples_per_page();

  StandaloneEstimate est;
  est.io_requests = CeilDiv(r_pages, exec.block_size) +
                    CeilDiv(s_pages, exec.block_size);
  est.io_time = SequentialScanTime(disk, r_pages, exec.block_size) +
                SequentialScanTime(disk, s_pages, exec.block_size);

  Instructions instr =
      c.initiate_op + c.terminate_op + c.start_io * est.io_requests +
      r_pages * tpp * c.hash_insert +
      s_pages * tpp * (c.hash_probe + c.hash_copy);
  est.cpu_time = static_cast<double>(instr) / (mips * 1e6);
  return est;
}

StandaloneEstimate EstimateExternalSort(const ExecParams& exec,
                                        const model::DiskParams& disk,
                                        double mips, PageCount pages) {
  RTQ_CHECK_MSG(mips > 0.0, "mips must be positive");
  RTQ_CHECK_MSG(pages > 0, "empty sort operand");
  const CpuCosts& c = exec.costs;
  const int64_t tpp = exec.tuples.tuples_per_page();

  StandaloneEstimate est;
  est.io_requests = CeilDiv(pages, exec.block_size);
  est.io_time = SequentialScanTime(disk, pages, exec.block_size);

  int64_t tuples = pages * tpp;
  Instructions per_tuple =
      Log2Ceil(tuples < 2 ? 2 : tuples) * c.key_compare + c.sort_copy;
  Instructions instr = c.initiate_op + c.terminate_op +
                       c.start_io * est.io_requests + tuples * per_tuple;
  est.cpu_time = static_cast<double>(instr) / (mips * 1e6);
  return est;
}

}  // namespace rtq::exec
