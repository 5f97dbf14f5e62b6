#include "replay.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "cache/hierarchy.hpp"
#include "common/bits.hpp"
#include "sim/kernel.hpp"

namespace perfbench {

using hmcc::Addr;
using hmcc::Cycle;
using hmcc::Kernel;

namespace {

Kernel make_kernel(const hmcc::system::SystemConfig& cfg) {
  return Kernel(Kernel::ring_size_for(hmcc::system::worst_case_event_delay(cfg)));
}

}  // namespace

CacheReplay replay_cache(const hmcc::system::SystemConfig& cfg,
                         const hmcc::trace::MultiTrace& t) {
  CacheReplay out;
  hmcc::cache::Hierarchy h(cfg.hierarchy);
  const std::uint32_t line = cfg.coalescer.line_bytes;
  const auto ncores = static_cast<std::uint32_t>(
      std::min<std::size_t>(t.per_core.size(), cfg.hierarchy.num_cores));

  std::vector<std::size_t> pc(ncores, 0);
  std::vector<std::uint32_t> since(ncores, 0);  // accesses since last record
  auto emit = [&](MissRecord m) {
    m.gap = since[m.core];
    since[m.core] = 0;
    out.misses.push_back(m);
  };
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (std::uint32_t core = 0; core < ncores; ++core) {
      const auto& stream = t.per_core[core];
      if (pc[core] >= stream.size()) continue;
      progressed = true;
      const hmcc::trace::TraceRecord& rec = stream[pc[core]++];
      if (rec.is_barrier()) emit({core, 0, MissRecord::Kind::kBarrier});
      if (!rec.is_access()) continue;
      std::uint32_t offset = 0;
      do {
        const Addr addr = rec.addr + offset;
        const Addr line_end = hmcc::align_down(addr, line) + line;
        const auto chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(rec.size - offset, line_end - addr));
        auto res = h.access(core, addr, rec.type);
        ++out.accesses;
        ++since[core];
        for (Addr wb : res.memory_writebacks) {
          ++out.writebacks;
          emit({core, 0, MissRecord::Kind::kWriteback, wb, line,
                hmcc::ReqType::kStore});
        }
        if (res.level == hmcc::cache::HitLevel::kMemory) {
          ++out.llc_misses;
          emit({core, 0, MissRecord::Kind::kMiss, addr, chunk, rec.type});
          if (auto victim = h.fill_llc(res.line_addr, /*dirty=*/false)) {
            ++out.writebacks;
            emit({core, 0, MissRecord::Kind::kWriteback, *victim, line,
                  hmcc::ReqType::kStore});
          }
        }
        offset += chunk;
      } while (offset < rec.size);
    }
  }
  return out;
}

CoalescerReplay replay_coalescer(const hmcc::system::SystemConfig& cfg,
                                 const std::vector<MissRecord>& misses) {
  CoalescerReplay out;
  const std::uint32_t ncores = cfg.hierarchy.num_cores;
  const std::uint32_t mlp = cfg.core.max_outstanding_misses;
  std::vector<std::vector<std::uint32_t>> queue(ncores);
  for (std::size_t i = 0; i < misses.size(); ++i) {
    queue[misses[i].core].push_back(static_cast<std::uint32_t>(i));
  }
  struct CoreFeed {
    std::size_t head = 0;
    std::uint32_t outstanding = 0;
    bool stalled = false;     ///< blocked on a full miss-slot file
    bool draining = false;    ///< at a barrier, waiting for its misses
    bool at_barrier = false;  ///< joined, waiting for the other cores
    Cycle resume = 1;  ///< cycles from the unblocking completion to the head
  };
  std::vector<CoreFeed> feeds(ncores);

  Kernel kernel = make_kernel(cfg);
  hmcc::coalescer::MemoryCoalescer* coal = nullptr;
  auto mem = hmcc::mem::make_backend(
      kernel, cfg.hmc, cfg.mem,
      [&coal](hmcc::ReqId id) { coal->on_memory_response(id); });

  std::function<void(std::uint32_t)> step;
  auto wake = [&](std::uint32_t core, Cycle delay) {
    kernel.schedule(delay, [&step, core] { step(core); });
  };
  // Release a barrier once every core still running has joined it.
  auto maybe_release = [&] {
    for (std::uint32_t core = 0; core < ncores; ++core) {
      const CoreFeed& f = feeds[core];
      if (f.head < queue[core].size() && !f.at_barrier) return;
    }
    for (std::uint32_t core = 0; core < ncores; ++core) {
      if (feeds[core].at_barrier) {
        feeds[core].at_barrier = false;
        wake(core, 1);
      }
    }
  };
  hmcc::coalescer::MemoryCoalescer c(
      kernel, cfg.coalescer,
      [&](const hmcc::coalescer::CoalescedPacket& p) {
        out.packets.push_back({kernel.now(), p.addr, p.bytes, p.type});
        mem->submit(p);
      },
      [&](Addr, std::uint64_t token) {
        ++out.completions;
        if (token == 0) return;  // write-back committed
        const auto core = static_cast<std::uint32_t>(token - 1);
        CoreFeed& f = feeds[core];
        --f.outstanding;
        if (f.stalled) {
          f.stalled = false;
          wake(core, f.resume);
        } else if (f.draining && f.outstanding == 0) {
          f.draining = false;
          wake(core, 0);
        }
      });
  coal = &c;

  // Issue this core's records until the next one is due later. As in the
  // System, a full miss-slot file blocks the front end before its next
  // access, hit or miss, until a completion frees a slot.
  step = [&](std::uint32_t core) {
    CoreFeed& f = feeds[core];
    const auto& q = queue[core];
    while (f.head < q.size()) {
      const MissRecord& m = misses[q[f.head]];
      if (m.kind == MissRecord::Kind::kBarrier) {
        if (f.outstanding > 0) {
          f.draining = true;
          return;
        }
        ++f.head;
        f.at_barrier = true;
        maybe_release();
        return;
      }
      if (m.kind == MissRecord::Kind::kMiss && f.outstanding >= mlp) {
        f.stalled = true;
        f.resume = 1;
        return;
      }
      hmcc::coalescer::CoalescerRequest r{};
      r.addr = m.addr;
      r.payload_bytes = m.bytes;
      r.type = m.type;
      if (m.kind == MissRecord::Kind::kMiss) {
        r.token = core + 1;
        ++f.outstanding;
      }
      c.submit(r);
      if (++f.head == q.size()) {
        maybe_release();  // a finished core no longer gates barriers
        return;
      }
      const Cycle gap = misses[q[f.head]].gap;
      if (gap == 0) continue;  // same access, e.g. a miss's victim
      if (f.outstanding >= mlp) {
        f.stalled = true;
        f.resume = gap;
        return;
      }
      wake(core, gap);
      return;
    }
  };
  for (std::uint32_t core = 0; core < ncores; ++core) {
    if (!queue[core].empty()) wake(core, misses[queue[core].front()].gap);
  }
  kernel.run();

  out.drained = c.idle() && mem->outstanding() == 0;
  for (std::uint32_t core = 0; core < ncores; ++core) {
    out.drained = out.drained && feeds[core].head == queue[core].size();
  }
  out.stats = c.stats();
  return out;
}

MemReplay replay_mem(const hmcc::system::SystemConfig& cfg,
                     const std::vector<IssuedPacket>& packets) {
  MemReplay out;
  Kernel kernel = make_kernel(cfg);
  auto mem = hmcc::mem::make_backend(
      kernel, cfg.hmc, cfg.mem, [&out](hmcc::ReqId) { ++out.completions; });
  std::size_t next = 0;
  std::function<void()> feed = [&] {
    while (next < packets.size() && packets[next].at <= kernel.now()) {
      const IssuedPacket& ip = packets[next];
      hmcc::coalescer::CoalescedPacket p{};
      p.id = next + 1;
      p.addr = ip.addr;
      p.bytes = ip.bytes;
      p.type = ip.type;
      mem->submit(p);
      ++out.packets;
      ++next;
    }
    if (next < packets.size()) {
      kernel.schedule_at(packets[next].at, [&feed] { feed(); });
    }
  };
  if (!packets.empty()) {
    kernel.schedule_at(packets.front().at, [&feed] { feed(); });
  }
  kernel.run();
  out.drained = mem->outstanding() == 0 && out.completions == out.packets;
  out.hmc = mem->hmc_stats();
  out.tier = mem->tier_stats();
  return out;
}

std::uint64_t replay_kernel(const hmcc::system::SystemConfig& cfg,
                            std::uint64_t events) {
  struct Chains {
    Kernel kernel;
    std::uint64_t budget;
    std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
    void step() {
      if (budget == 0) return;
      --budget;
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      kernel.schedule(1 + (rng >> 58), [this] { step(); });
    }
  };
  Chains chains{make_kernel(cfg), events};
  for (int c = 0; c < 12; ++c) chains.step();
  chains.kernel.run();
  return chains.kernel.events_fired();
}

}  // namespace perfbench
