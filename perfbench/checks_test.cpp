// Self-test of the benchmark's output checks: a correct point passes, and a
// point with one access missing, an undrained run, or a byte count that
// breaks Eq. 1 is each reported as failed. Exit code 0 iff every case holds.
#include <cstdio>
#include <string>

#include "checks.hpp"

namespace {

using perfbench::MemKind;
using perfbench::PointFigures;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

hmcc::trace::MultiTrace small_trace() {
  using hmcc::trace::TraceRecord;
  hmcc::trace::MultiTrace t;
  t.per_core.resize(2);
  // Core 0: two loads in one line, one 16 B load straddling lines 1 and 2,
  // a fence, and a store to block 1.
  t.per_core[0] = {TraceRecord::load(0x1000), TraceRecord::load(0x1008),
                   TraceRecord::load(0x1078, 16), TraceRecord::make_fence(),
                   TraceRecord::store(0x1100)};
  // Core 1: a barrier and a load to the line core 0 also reads.
  t.per_core[1] = {TraceRecord::make_barrier(), TraceRecord::load(0x1000)};
  return t;
}

// A point a correct simulator could produce for small_trace() on mem=hmc:
// every line missed once, one 256 B packet for block 0, one 64 B packet for
// block 1.
PointFigures good_hmc_point() {
  PointFigures p;
  p.drained = true;
  p.cpu_accesses = 6;
  p.llc_misses = 4;
  p.memory_requests = 2;
  p.size_64 = 1;
  p.size_256 = 1;
  p.hmc_bytes = 64 + 256 + 2 * 32;
  return p;
}

}  // namespace

int main() {
  const perfbench::TraceExpect e = perfbench::expect_from_trace(small_trace());
  expect(e.records == 7, "records counted (7)");
  expect(e.accesses == 6, "straddling access counted once per line (6)");
  expect(e.distinct_lines == 4, "distinct 64 B lines (4)");
  expect(e.distinct_blocks == 2, "distinct 256 B blocks (2)");

  const PointFigures good = good_hmc_point();
  expect(perfbench::check_point(e, good, MemKind::kHmc).empty(),
         "correct point passes");

  PointFigures missing = good;
  missing.cpu_accesses -= 1;
  expect(!perfbench::check_point(e, missing, MemKind::kHmc).empty(),
         "one access missing fails");
  expect(!perfbench::check_same_retired(good, missing).empty(),
         "modes retiring different counts fail");

  PointFigures undrained = good;
  undrained.drained = false;
  expect(!perfbench::check_point(e, undrained, MemKind::kHmc).empty(),
         "undrained run fails");

  PointFigures bytes = good;
  bytes.hmc_bytes += 16;
  expect(!perfbench::check_point(e, bytes, MemKind::kHmc).empty(),
         "byte count off Eq. 1 fails");

  PointFigures few_misses = good;
  few_misses.llc_misses = 3;
  expect(!perfbench::check_point(e, few_misses, MemKind::kHmc).empty(),
         "fewer LLC misses than distinct lines fails");

  PointFigures few_packets = good;
  few_packets.memory_requests = 1;
  few_packets.size_64 = 0;
  few_packets.hmc_bytes = 256 + 32;
  expect(!perfbench::check_point(e, few_packets, MemKind::kHmc).empty(),
         "fewer packets than distinct blocks fails");

  PointFigures hybrid = good;
  hybrid.hmc_bytes = 0;  // Eq. 1 is not checked off the bare cube
  hybrid.fast_hits = 1;
  hybrid.slow_accesses = 1;
  expect(perfbench::check_point(e, hybrid, MemKind::kHybrid).empty(),
         "hybrid point with a consistent tier split passes");
  hybrid.slow_accesses = 0;
  expect(!perfbench::check_point(e, hybrid, MemKind::kHybrid).empty(),
         "hybrid tier split not summing to the requests fails");

  std::printf("%s\n", g_failures == 0 ? "all checks behave" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
