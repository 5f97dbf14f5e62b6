// Output checks of the benchmark, made apart from the simulator.
//
// Every expected number here is derived by the benchmark itself from the
// generated trace (or is a property any correct run must have), never from
// a stored copy of an earlier run: a change that alters behaviour fails the
// checks only when it breaks one of these properties.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "system/system.hpp"
#include "trace/trace.hpp"

namespace perfbench {

/// Wire facts the checks assume, written out here rather than read from the
/// simulator: 64 B cache lines, 256 B HMC blocks, and 32 B of control per
/// HMC transaction (16 B request header/tail + 16 B response; paper Eq. 1).
inline constexpr std::uint64_t kLineBytes = 64;
inline constexpr std::uint64_t kBlockBytes = 256;
inline constexpr std::uint64_t kControlBytesPerPacket = 32;

/// What the benchmark computes from a trace without running the simulator.
struct TraceExpect {
  std::uint64_t records = 0;
  /// CPU accesses the cores must retire: one per cache line an access
  /// record touches (the core splits line-straddling records).
  std::uint64_t accesses = 0;
  std::uint64_t distinct_lines = 0;   ///< distinct 64 B lines touched
  std::uint64_t distinct_blocks = 0;  ///< distinct 256 B blocks touched
};

[[nodiscard]] TraceExpect expect_from_trace(const hmcc::trace::MultiTrace& t);

/// The figures of one simulation point that the checks read.
struct PointFigures {
  bool drained = false;
  std::uint64_t cpu_accesses = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t memory_requests = 0;  ///< packets issued by the coalescer
  std::uint64_t size_64 = 0;
  std::uint64_t size_128 = 0;
  std::uint64_t size_256 = 0;
  std::uint64_t hmc_bytes = 0;  ///< payload + control on the HMC wire
  std::uint64_t fast_hits = 0;
  std::uint64_t slow_accesses = 0;
};

[[nodiscard]] PointFigures figures_of(const hmcc::system::SystemReport& r);

/// Which memory the point ran on; selects the backend-specific check.
enum class MemKind : std::uint8_t { kHmc, kHybrid };

/// Every check @p p fails, one short message each; empty when it passes.
[[nodiscard]] std::vector<std::string> check_point(const TraceExpect& expect,
                                                   const PointFigures& p,
                                                   MemKind mem);

/// The two modes of one trace must retire the same number of accesses;
/// returns the failure message for both points, or an empty string.
[[nodiscard]] std::string check_same_retired(const PointFigures& conventional,
                                             const PointFigures& coalescer);

}  // namespace perfbench
