#include "checks.hpp"

#include <algorithm>

namespace perfbench {

TraceExpect expect_from_trace(const hmcc::trace::MultiTrace& t) {
  TraceExpect e;
  std::vector<std::uint64_t> lines;
  for (const auto& stream : t.per_core) {
    e.records += stream.size();
    for (const auto& rec : stream) {
      if (!rec.is_access()) continue;
      const std::uint64_t first = rec.addr / kLineBytes;
      const std::uint64_t last =
          rec.size == 0 ? first : (rec.addr + rec.size - 1) / kLineBytes;
      e.accesses += last - first + 1;
      for (std::uint64_t l = first; l <= last; ++l) lines.push_back(l);
    }
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  e.distinct_lines = lines.size();
  constexpr std::uint64_t kLinesPerBlock = kBlockBytes / kLineBytes;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i == 0 || lines[i] / kLinesPerBlock != lines[i - 1] / kLinesPerBlock) {
      ++e.distinct_blocks;
    }
  }
  return e;
}

PointFigures figures_of(const hmcc::system::SystemReport& r) {
  PointFigures p;
  p.drained = r.drained;
  p.cpu_accesses = r.cpu_accesses;
  p.llc_misses = r.llc_misses;
  p.memory_requests = r.memory_requests;
  p.size_64 = r.coalescer.size_64;
  p.size_128 = r.coalescer.size_128;
  p.size_256 = r.coalescer.size_256;
  p.hmc_bytes = r.hmc.transferred_bytes;
  p.fast_hits = r.mem_tier.fast_hits;
  p.slow_accesses = r.mem_tier.slow_accesses;
  return p;
}

std::vector<std::string> check_point(const TraceExpect& expect,
                                     const PointFigures& p, MemKind mem) {
  std::vector<std::string> fails;
  auto num = [](std::uint64_t v) { return std::to_string(v); };
  if (!p.drained) fails.push_back("run did not drain");
  if (p.cpu_accesses != expect.accesses) {
    fails.push_back("retired " + num(p.cpu_accesses) + " accesses, trace has " +
                    num(expect.accesses));
  }
  // Caches start cold, so every line touched misses the LLC at least once,
  // and a packet never crosses a 256 B block.
  if (p.llc_misses < expect.distinct_lines) {
    fails.push_back(num(p.llc_misses) + " LLC misses < " +
                    num(expect.distinct_lines) + " distinct lines");
  }
  if (p.memory_requests < expect.distinct_blocks) {
    fails.push_back(num(p.memory_requests) + " HMC requests < " +
                    num(expect.distinct_blocks) + " distinct blocks");
  }
  if (p.size_64 + p.size_128 + p.size_256 != p.memory_requests) {
    fails.push_back("packet sizes sum to " +
                    num(p.size_64 + p.size_128 + p.size_256) + ", not " +
                    num(p.memory_requests) + " requests");
  }
  if (mem == MemKind::kHmc) {
    const std::uint64_t eq1 = kLineBytes * p.size_64 +
                              2 * kLineBytes * p.size_128 +
                              4 * kLineBytes * p.size_256 +
                              kControlBytesPerPacket * p.memory_requests;
    if (p.hmc_bytes != eq1) {
      fails.push_back("HMC bytes " + num(p.hmc_bytes) + " != Eq. 1 count " +
                      num(eq1));
    }
  } else if (p.fast_hits + p.slow_accesses != p.memory_requests) {
    fails.push_back("fast hits + slow accesses = " +
                    num(p.fast_hits + p.slow_accesses) + ", not " +
                    num(p.memory_requests) + " requests");
  }
  return fails;
}

std::string check_same_retired(const PointFigures& conventional,
                               const PointFigures& coalescer) {
  if (conventional.cpu_accesses == coalescer.cpu_accesses) return {};
  return "modes retired different counts (" +
         std::to_string(conventional.cpu_accesses) + " vs " +
         std::to_string(coalescer.cpu_accesses) + ")";
}

}  // namespace perfbench
