// CFG construction and live-interval computation over VIR kernels, feeding
// the ptxas-sim linear-scan allocator.
#pragma once

#include <cstdint>
#include <vector>

#include "vir/vir.hpp"

namespace safara::vir {

struct BasicBlock {
  std::int32_t begin = 0;  // first instruction index
  std::int32_t end = 0;    // one past the last instruction
  std::vector<std::int32_t> succs;
};

/// Partitions the kernel into basic blocks and records successor edges.
std::vector<BasicBlock> build_cfg(const Kernel& k);

/// Conservative (hole-free) live interval of a virtual register, in
/// instruction indices: the register is considered occupied on [start, end].
struct LiveInterval {
  std::uint32_t vreg = 0;
  std::int32_t start = 0;
  std::int32_t end = 0;
};

/// Per vreg, the first and last instruction index of its hole-free live range
/// (compute_block_liveness over build_cfg's blocks; registers live across a
/// backedge span the whole loop). Both are -1 for a vreg nothing references.
struct LiveRanges {
  std::vector<std::int32_t> start;
  std::vector<std::int32_t> end;
};
LiveRanges compute_live_ranges(const Kernel& k);

/// compute_live_ranges as one interval per referenced vreg, sorted by start.
std::vector<LiveInterval> compute_live_intervals(const Kernel& k);

}  // namespace safara::vir
