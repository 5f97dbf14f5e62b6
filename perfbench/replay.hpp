// Standalone layer replays for the traced benchmark run.
//
// Each replay drives one layer alone through its public API, fed with what
// the layer above it produced in the previous replay:
//
//   trace --replay_cache--> miss stream --replay_coalescer--> packets
//         --replay_mem--> completions;  replay_kernel fires synthetic events.
//
// The replays are approximations of the full System run, not copies of it:
// the cache replay fills the LLC at once instead of after the memory
// response, so a line re-touched while its miss is in flight hits, and the
// coalescer replay's cores skip the cache latencies. Each replay reports its
// own request and packet counts so they can be printed beside the full
// run's, which shows how faithful the split is.
#pragma once

#include <cstdint>
#include <vector>

#include "coalescer/coalescer.hpp"
#include "mem/backend.hpp"
#include "system/config.hpp"
#include "trace/trace.hpp"

namespace perfbench {

/// One event leaving a core below the LLC: a demand miss, a dirty
/// write-back, or a barrier (a join the core waits at with no miss
/// outstanding until every running core has reached it).
struct MissRecord {
  enum class Kind : std::uint8_t { kMiss, kWriteback, kBarrier };
  std::uint32_t core = 0;
  /// CPU accesses this core made since its previous record: the cycles its
  /// front end spends (one access per cycle) before issuing this one.
  std::uint32_t gap = 0;
  Kind kind = Kind::kMiss;
  hmcc::Addr addr = 0;
  std::uint32_t bytes = 0;
  hmcc::ReqType type = hmcc::ReqType::kLoad;
};

struct CacheReplay {
  std::uint64_t accesses = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t writebacks = 0;
  std::vector<MissRecord> misses;  ///< per core in program order
};

/// Replay @p t's accesses (cores round-robin, one record per turn) through
/// a fresh cache::Hierarchy with Hierarchy::access / fill_llc. Barrier
/// records pass through; the generators emit no fences.
[[nodiscard]] CacheReplay replay_cache(const hmcc::system::SystemConfig& cfg,
                                       const hmcc::trace::MultiTrace& t);

/// A packet as the coalescer issued it to memory.
struct IssuedPacket {
  hmcc::Cycle at = 0;
  hmcc::Addr addr = 0;
  std::uint32_t bytes = 0;
  hmcc::ReqType type = hmcc::ReqType::kLoad;
};

struct CoalescerReplay {
  bool drained = false;
  std::uint64_t completions = 0;
  hmcc::coalescer::CoalescerStats stats;
  std::vector<IssuedPacket> packets;
};

/// Feed @p misses through MemoryCoalescer::submit / on_memory_response,
/// wired to mem::make_backend. Each core issues its records MissRecord::gap
/// cycles apart, stalls while it has the configured number of demand misses
/// outstanding, and joins barriers, as the System's cores do.
[[nodiscard]] CoalescerReplay replay_coalescer(
    const hmcc::system::SystemConfig& cfg,
    const std::vector<MissRecord>& misses);

struct MemReplay {
  bool drained = false;
  std::uint64_t packets = 0;
  std::uint64_t completions = 0;
  hmcc::hmc::HmcStats hmc;
  hmcc::mem::MemTierStats tier;
};

/// Submit @p packets to a fresh backend (MemoryBackend::submit) at the
/// cycles the coalescer replay issued them.
[[nodiscard]] MemReplay replay_mem(const hmcc::system::SystemConfig& cfg,
                                   const std::vector<IssuedPacket>& packets);

/// Fire @p events trivial events on a fresh Kernel sized for @p cfg, from 12
/// self-rescheduling chains with delays of 1..64 cycles; returns
/// Kernel::events_fired(). Measures the event kernel's own cost per event.
[[nodiscard]] std::uint64_t replay_kernel(const hmcc::system::SystemConfig& cfg,
                                          std::uint64_t events);

}  // namespace perfbench
