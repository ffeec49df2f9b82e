// CPU cost model (paper Table 4) and tuple geometry.
//
// All CPU work in the simulation is expressed as instruction counts drawn
// from this table and divided by the CPU's MIPS rating. The figures are
// the paper's defaults, verbatim.

#ifndef RTQ_EXEC_COST_MODEL_H_
#define RTQ_EXEC_COST_MODEL_H_

#include "common/status.h"
#include "common/types.h"

namespace rtq::exec {

/// ceil(a / b) for a >= 0, b > 0: blocks needed for `a` pages.
inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// ceil(log2(n)), at least 1: key comparisons per tuple in a heap or
/// merge over n entries.
inline int64_t Log2Ceil(int64_t n) {
  int64_t bits = 0;
  for (int64_t v = 1; v < n; v <<= 1) ++bits;
  return bits < 1 ? 1 : bits;
}

struct CpuCosts {
  // Common operations.
  Instructions start_io = 1000;        ///< Start an I/O operation.
  Instructions initiate_op = 40000;    ///< Initiate a sort or join.
  Instructions terminate_op = 10000;   ///< Terminate a sort or join.
  // Hash joins.
  Instructions hash_insert = 100;      ///< Hash tuple and insert into table.
  Instructions hash_probe = 200;       ///< Hash tuple and probe table.
  Instructions hash_copy = 100;        ///< Hash tuple and copy to output buf.
  // External sorts.
  Instructions sort_copy = 64;         ///< Copy a tuple to output buffer.
  Instructions key_compare = 50;       ///< Compare two keys.

  Status Validate() const {
    if (start_io < 0 || initiate_op < 0 || terminate_op < 0 ||
        hash_insert < 0 || hash_probe < 0 || hash_copy < 0 ||
        sort_copy < 0 || key_compare < 0) {
      return Status::InvalidArgument("CPU costs must be non-negative");
    }
    return Status::Ok();
  }
};

struct TupleParams {
  int64_t tuple_bytes = 128;   ///< Table 2 TupleSize.
  int64_t page_bytes = 8192;   ///< Table 3 PageSize.

  int64_t tuples_per_page() const { return page_bytes / tuple_bytes; }

  Status Validate() const {
    if (tuple_bytes <= 0 || page_bytes <= 0 || tuple_bytes > page_bytes) {
      return Status::InvalidArgument("invalid tuple/page sizes");
    }
    return Status::Ok();
  }
};

/// Everything an operator needs to translate logical work into simulated
/// CPU instructions and I/O requests.
struct ExecParams {
  CpuCosts costs;
  TupleParams tuples;
  /// Pages fetched per sequential I/O (Table 3 BlockSize).
  PageCount block_size = 6;
  /// Hash-table space overhead F [Shap86]; 1.1 reproduces the paper's
  /// "average of 1321 buffers" for a 1200-page inner relation.
  double fudge_factor = 1.1;

  Status Validate() const {
    RTQ_RETURN_IF_ERROR(costs.Validate());
    RTQ_RETURN_IF_ERROR(tuples.Validate());
    if (block_size <= 0)
      return Status::InvalidArgument("block_size must be > 0");
    if (fudge_factor < 1.0)
      return Status::InvalidArgument("fudge_factor must be >= 1");
    return Status::Ok();
  }
};

}  // namespace rtq::exec

#endif  // RTQ_EXEC_COST_MODEL_H_
