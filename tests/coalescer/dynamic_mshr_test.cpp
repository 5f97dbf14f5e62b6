#include "coalescer/dynamic_mshr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"

namespace hmcc::coalescer {
namespace {

CoalescerConfig cfg4() {
  CoalescerConfig cfg;
  cfg.num_mshrs = 4;
  return cfg;
}

CoalescedPacket packet(Addr addr, std::uint32_t bytes,
                       ReqType type = ReqType::kLoad,
                       std::uint64_t first_token = 1) {
  CoalescedPacket p{};
  p.addr = addr;
  p.bytes = bytes;
  p.type = type;
  std::uint64_t token = first_token;
  for (Addr line = addr; line < addr + bytes; line += 64) {
    CoalescerRequest r{};
    r.addr = line;
    r.type = type;
    r.payload_bytes = 8;
    r.token = token++;
    p.constituents.push_back(r);
  }
  return p;
}

/// Linear-scan reference of the dynamic MSHR file: every probe walks every
/// entry for every constituent with freshly allocated planning vectors. It
/// defines the decisions the production file must reproduce: the lowest
/// entry that covers a line and has room takes it, the lowest free slot is
/// allocated, issue ids count up from 1, and fills return subentries in
/// attach order.
class OracleMshrFile {
 public:
  explicit OracleMshrFile(const CoalescerConfig& cfg)
      : cfg_(cfg), entries_(cfg.num_mshrs) {}

  DynamicMshrFile::InsertResult try_insert(const CoalescedPacket& pkt) {
    DynamicMshrFile::InsertResult result;
    std::vector<Entry*> hit;
    const std::size_t covered = plan(pkt, hit);
    std::vector<CoalescerRequest> remainder;
    for (std::size_t c = 0; c < pkt.constituents.size(); ++c) {
      if (!hit[c]) remainder.push_back(pkt.constituents[c]);
    }
    std::vector<CoalescedPacket> fresh;
    if (covered == 0) {
      fresh.push_back(pkt);
    } else if (!remainder.empty()) {
      fresh = repacketize(remainder, pkt.type, pkt.ready_at);
    }
    if (fresh.size() > cfg_.num_mshrs - used_) {
      ++stats_.rejects_full;
      return result;
    }
    if (covered == pkt.constituents.size()) {
      ++stats_.full_merges;
    } else if (covered > 0) {
      ++stats_.partial_merges;
    }
    attach(pkt, hit);
    for (CoalescedPacket& np : fresh) {
      Entry* slot = nullptr;
      for (Entry& e : entries_) {
        if (!e.valid) {
          slot = &e;
          break;
        }
      }
      slot->valid = true;
      slot->type = np.type;
      slot->base = np.addr;
      slot->lines = np.bytes / cfg_.line_bytes;
      slot->issue_id = next_issue_id_++;
      slot->targets.clear();
      for (const CoalescerRequest& r : np.constituents) {
        slot->targets.push_back(
            DynMshrTarget{align_down(r.addr, cfg_.line_bytes), r.token});
      }
      ++used_;
      ++stats_.allocations;
      np.id = slot->issue_id;
      result.to_issue.push_back(std::move(np));
    }
    result.accepted = true;
    return result;
  }

  bool try_merge_only(const CoalescedPacket& pkt) {
    std::vector<Entry*> hit;
    if (plan(pkt, hit) != pkt.constituents.size()) return false;
    attach(pkt, hit);
    ++stats_.full_merges;
    return true;
  }

  std::optional<DynamicMshrFile::FillResult> on_fill(ReqId id) {
    for (Entry& e : entries_) {
      if (!e.valid || e.issue_id != id) continue;
      DynamicMshrFile::FillResult r;
      r.base = e.base;
      r.bytes = e.lines * cfg_.line_bytes;
      r.type = e.type;
      r.targets = std::move(e.targets);
      e.targets.clear();
      e.valid = false;
      --used_;
      ++stats_.frees;
      return r;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::uint32_t in_use() const { return used_; }
  [[nodiscard]] const DynMshrStats& stats() const { return stats_; }

 private:
  struct Entry {
    bool valid = false;
    ReqType type = ReqType::kLoad;
    Addr base = 0;
    std::uint32_t lines = 1;
    ReqId issue_id = 0;
    std::vector<DynMshrTarget> targets;
  };

  std::size_t plan(const CoalescedPacket& pkt, std::vector<Entry*>& hit) {
    hit.assign(pkt.constituents.size(), nullptr);
    if (!cfg_.enable_mshr_merge) return 0;
    std::vector<std::size_t> planned(entries_.size(), 0);
    std::size_t covered = 0;
    for (std::size_t c = 0; c < pkt.constituents.size(); ++c) {
      const Addr line = align_down(pkt.constituents[c].addr, cfg_.line_bytes);
      for (std::size_t e = 0; e < entries_.size(); ++e) {
        Entry& entry = entries_[e];
        if (entry.valid && entry.type == pkt.type && line >= entry.base &&
            line < entry.base + entry.lines * cfg_.line_bytes &&
            entry.targets.size() + planned[e] < cfg_.max_subentries) {
          hit[c] = &entry;
          ++planned[e];
          ++covered;
          break;
        }
      }
    }
    return covered;
  }

  void attach(const CoalescedPacket& pkt, const std::vector<Entry*>& hit) {
    for (std::size_t c = 0; c < pkt.constituents.size(); ++c) {
      if (hit[c] == nullptr) continue;
      const CoalescerRequest& r = pkt.constituents[c];
      hit[c]->targets.push_back(
          DynMshrTarget{align_down(r.addr, cfg_.line_bytes), r.token});
      ++stats_.merged_constituents;
    }
  }

  /// Sorted leftovers, split into runs of consecutive lines inside one
  /// max-packet block, each run cut into largest-first power-of-two packets.
  std::vector<CoalescedPacket> repacketize(std::vector<CoalescerRequest> left,
                                           ReqType type, Cycle ready_at) const {
    const Addr line = cfg_.line_bytes;
    std::sort(left.begin(), left.end(),
              [](const CoalescerRequest& a, const CoalescerRequest& b) {
                return a.addr < b.addr;
              });
    std::vector<CoalescedPacket> out;
    std::size_t i = 0;
    while (i < left.size()) {
      const Addr first = align_down(left[i].addr, line);
      const Addr block = align_down(first, cfg_.max_packet_bytes);
      Addr last = first;
      std::size_t j = i;
      for (; j < left.size(); ++j) {
        const Addr l = align_down(left[j].addr, line);
        if (l == last) continue;
        if (l != last + line || align_down(l, cfg_.max_packet_bytes) != block) {
          break;
        }
        last = l;
      }
      Addr at = first;
      std::size_t k = i;
      auto remaining = static_cast<std::uint32_t>((last - first) / line + 1);
      while (remaining > 0) {
        std::uint32_t chunk = 1;
        while (chunk * 2 <= std::min(remaining, cfg_.max_lines_per_packet())) {
          chunk *= 2;
        }
        CoalescedPacket pkt{};
        pkt.addr = at;
        pkt.bytes = chunk * cfg_.line_bytes;
        pkt.type = type;
        pkt.ready_at = ready_at;
        while (k < j && align_down(left[k].addr, line) < at + pkt.bytes) {
          pkt.constituents.push_back(left[k++]);
        }
        out.push_back(std::move(pkt));
        at += pkt.bytes;
        remaining -= chunk;
      }
      i = j;
    }
    return out;
  }

  CoalescerConfig cfg_;
  std::vector<Entry> entries_;
  std::uint32_t used_ = 0;
  ReqId next_issue_id_ = 1;
  DynMshrStats stats_;
};

/// A random line-granularity packet inside one of @p blocks 256 B blocks:
/// 1, 2 or 4 aligned lines, some lines requested twice, some not at all
/// (but never none), loads and stores mixed.
CoalescedPacket random_packet(Xoshiro256& rng, std::uint64_t blocks,
                              std::uint64_t& next_token) {
  const std::uint32_t lines = 1u << rng.below(3);
  CoalescedPacket p{};
  p.addr =
      0x40000 + rng.below(blocks) * 256 + rng.below(4 / lines) * lines * 64;
  p.bytes = lines * 64;
  p.type = rng.chance(0.3) ? ReqType::kStore : ReqType::kLoad;
  p.ready_at = rng.below(1000);
  for (Addr line = p.addr; line < p.end(); line += 64) {
    const std::uint64_t copies =
        p.constituents.empty() && line + 64 == p.end() ? 1 + rng.below(2)
                                                       : rng.below(3);
    for (std::uint64_t k = 0; k < copies; ++k) {
      CoalescerRequest r{};
      r.addr = line;
      r.type = p.type;
      r.payload_bytes = 8;
      r.token = next_token++;
      p.constituents.push_back(r);
    }
  }
  return p;
}

void expect_same_stats(const DynMshrStats& a, const DynMshrStats& b) {
  EXPECT_EQ(a.allocations, b.allocations);
  EXPECT_EQ(a.full_merges, b.full_merges);
  EXPECT_EQ(a.partial_merges, b.partial_merges);
  EXPECT_EQ(a.merged_constituents, b.merged_constituents);
  EXPECT_EQ(a.rejects_full, b.rejects_full);
  EXPECT_EQ(a.frees, b.frees);
}

void expect_same_insert(const DynamicMshrFile::InsertResult& got,
                        const DynamicMshrFile::InsertResult& want) {
  ASSERT_EQ(got.accepted, want.accepted);
  ASSERT_EQ(got.to_issue.size(), want.to_issue.size());
  for (std::size_t i = 0; i < got.to_issue.size(); ++i) {
    const CoalescedPacket& g = got.to_issue[i];
    const CoalescedPacket& w = want.to_issue[i];
    EXPECT_EQ(g.id, w.id);
    EXPECT_EQ(g.addr, w.addr);
    EXPECT_EQ(g.bytes, w.bytes);
    EXPECT_EQ(g.type, w.type);
    EXPECT_EQ(g.ready_at, w.ready_at);
    ASSERT_EQ(g.constituents.size(), w.constituents.size());
    for (std::size_t c = 0; c < g.constituents.size(); ++c) {
      EXPECT_EQ(g.constituents[c].addr, w.constituents[c].addr);
      EXPECT_EQ(g.constituents[c].token, w.constituents[c].token);
    }
  }
}

void expect_same_fill(const std::optional<DynamicMshrFile::FillResult>& got,
                      const std::optional<DynamicMshrFile::FillResult>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->base, want->base);
  EXPECT_EQ(got->bytes, want->bytes);
  EXPECT_EQ(got->type, want->type);
  ASSERT_EQ(got->targets.size(), want->targets.size());
  for (std::size_t t = 0; t < got->targets.size(); ++t) {
    EXPECT_EQ(got->targets[t].line_addr, want->targets[t].line_addr);
    EXPECT_EQ(got->targets[t].token, want->targets[t].token);
  }
}

TEST(DynMshr, AllocateAndFill) {
  DynamicMshrFile mshr(cfg4());
  const auto res = mshr.try_insert(packet(0x1000, 256));
  ASSERT_TRUE(res.accepted);
  ASSERT_EQ(res.to_issue.size(), 1u);
  EXPECT_EQ(mshr.in_use(), 1u);

  const auto fill = mshr.on_fill(res.to_issue[0].id);
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->base, 0x1000u);
  EXPECT_EQ(fill->bytes, 256u);
  ASSERT_EQ(fill->targets.size(), 4u);
  // Equation (2): subentry addresses derive from base + lineID * 64.
  std::set<Addr> lines;
  for (const auto& t : fill->targets) lines.insert(t.line_addr);
  EXPECT_EQ(lines, (std::set<Addr>{0x1000, 0x1040, 0x1080, 0x10C0}));
  EXPECT_EQ(mshr.in_use(), 0u);
}

TEST(DynMshr, Figure6CaseA_SubsetMergesAsSubentries) {
  // MSHR 1 holds a 256 B load; request 1 asks for a 128 B subset.
  DynamicMshrFile mshr(cfg4());
  const auto big = mshr.try_insert(packet(0xA8 * 64, 256, ReqType::kLoad, 1));
  ASSERT_EQ(big.to_issue.size(), 1u);

  const auto sub = mshr.try_insert(packet(0xA8 * 64, 128, ReqType::kLoad, 10));
  ASSERT_TRUE(sub.accepted);
  EXPECT_TRUE(sub.to_issue.empty());  // fully absorbed, no memory request
  EXPECT_EQ(mshr.in_use(), 1u);
  EXPECT_EQ(mshr.stats().full_merges, 1u);

  const auto fill = mshr.on_fill(big.to_issue[0].id);
  ASSERT_TRUE(fill.has_value());
  // 4 original + 2 merged subentries, line IDs 00 and 01 for the merge.
  EXPECT_EQ(fill->targets.size(), 6u);
  const auto merged0 = std::count_if(
      fill->targets.begin(), fill->targets.end(),
      [](const DynMshrTarget& t) { return t.token == 10; });
  const auto merged1 = std::count_if(
      fill->targets.begin(), fill->targets.end(),
      [](const DynMshrTarget& t) { return t.token == 11; });
  EXPECT_EQ(merged0, 1);
  EXPECT_EQ(merged1, 1);
}

TEST(DynMshr, Figure6CaseB_PartialOverlapSplits) {
  // MSHR 1 holds one 64 B line; request 2 spans that line plus the next.
  DynamicMshrFile mshr(cfg4());
  const auto one = mshr.try_insert(packet(0xA8 * 64, 64, ReqType::kLoad, 1));
  ASSERT_EQ(one.to_issue.size(), 1u);

  const auto two = mshr.try_insert(packet(0xA8 * 64, 128, ReqType::kLoad, 20));
  ASSERT_TRUE(two.accepted);
  ASSERT_EQ(two.to_issue.size(), 1u);  // only the non-overlapped remainder
  EXPECT_EQ(two.to_issue[0].addr, 0xA9u * 64);
  EXPECT_EQ(two.to_issue[0].bytes, 64u);
  EXPECT_EQ(mshr.in_use(), 2u);
  EXPECT_EQ(mshr.stats().partial_merges, 1u);

  // The overlapped line (token 20) rides on entry 1.
  const auto fill1 = mshr.on_fill(one.to_issue[0].id);
  ASSERT_TRUE(fill1.has_value());
  EXPECT_EQ(fill1->targets.size(), 2u);
  // The remainder (token 21) completes with entry 2.
  const auto fill2 = mshr.on_fill(two.to_issue[0].id);
  ASSERT_TRUE(fill2.has_value());
  ASSERT_EQ(fill2->targets.size(), 1u);
  EXPECT_EQ(fill2->targets[0].token, 21u);
  EXPECT_EQ(fill2->targets[0].line_addr, 0xA9u * 64);
}

TEST(DynMshr, TypesNeverMerge) {
  DynamicMshrFile mshr(cfg4());
  const auto load = mshr.try_insert(packet(0x1000, 256, ReqType::kLoad));
  ASSERT_EQ(load.to_issue.size(), 1u);
  const auto store = mshr.try_insert(packet(0x1000, 128, ReqType::kStore));
  ASSERT_TRUE(store.accepted);
  EXPECT_EQ(store.to_issue.size(), 1u);  // allocated, not merged
  EXPECT_EQ(mshr.in_use(), 2u);
  EXPECT_EQ(mshr.stats().full_merges, 0u);
}

TEST(DynMshr, FullFileRejectsWithoutSideEffects) {
  DynamicMshrFile mshr(cfg4());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        mshr.try_insert(packet(0x10000u * static_cast<Addr>(i + 1), 64))
            .accepted);
  }
  EXPECT_TRUE(mshr.full());
  const auto rej = mshr.try_insert(packet(0x90000, 64));
  EXPECT_FALSE(rej.accepted);
  EXPECT_TRUE(rej.to_issue.empty());
  EXPECT_EQ(mshr.stats().rejects_full, 1u);
  // Merging into an existing entry still works while full.
  const auto merged = mshr.try_insert(packet(0x10000, 64, ReqType::kLoad, 9));
  EXPECT_TRUE(merged.accepted);
  EXPECT_TRUE(merged.to_issue.empty());
}

TEST(DynMshr, PartialRejectedWhenRemainderNeedsTooManyEntries) {
  CoalescerConfig cfg = cfg4();
  cfg.num_mshrs = 1;
  DynamicMshrFile mshr(cfg);
  ASSERT_TRUE(mshr.try_insert(packet(0x1000, 64)).accepted);
  // Packet overlapping the entry plus a remainder: needs one new entry but
  // none is free -> atomic reject, no subentries attached.
  const auto before = mshr.stats().merged_constituents;
  const auto res = mshr.try_insert(packet(0x1000, 128));
  EXPECT_FALSE(res.accepted);
  EXPECT_EQ(mshr.stats().merged_constituents, before);
}

TEST(DynMshr, NonContiguousRemainderSplitsIntoMultiplePackets) {
  DynamicMshrFile mshr(cfg4());
  // In-flight entry covers the two middle lines of a block.
  const auto mid = mshr.try_insert(packet(0x1040, 128, ReqType::kLoad, 1));
  ASSERT_EQ(mid.to_issue.size(), 1u);
  // A 256 B packet over the whole block: lines 0 and 3 remain, and they are
  // not contiguous -> two 64 B remainder packets.
  const auto res = mshr.try_insert(packet(0x1000, 256, ReqType::kLoad, 10));
  ASSERT_TRUE(res.accepted);
  ASSERT_EQ(res.to_issue.size(), 2u);
  std::set<Addr> addrs{res.to_issue[0].addr, res.to_issue[1].addr};
  EXPECT_EQ(addrs, (std::set<Addr>{0x1000, 0x10C0}));
  EXPECT_EQ(res.to_issue[0].bytes, 64u);
  EXPECT_EQ(res.to_issue[1].bytes, 64u);
}

TEST(DynMshr, MergeOnlyAcceptsOnlyFullCoverage) {
  DynamicMshrFile mshr(cfg4());
  const auto big = mshr.try_insert(packet(0x1000, 128, ReqType::kLoad, 1));
  ASSERT_EQ(big.to_issue.size(), 1u);
  EXPECT_TRUE(mshr.try_merge_only(packet(0x1000, 64, ReqType::kLoad, 5)));
  EXPECT_FALSE(mshr.try_merge_only(packet(0x1000, 256, ReqType::kLoad, 6)));
  EXPECT_FALSE(mshr.try_merge_only(packet(0x4000, 64, ReqType::kLoad, 7)));
  EXPECT_EQ(mshr.in_use(), 1u);
}

TEST(DynMshr, MergeDisabledByConfig) {
  CoalescerConfig cfg = cfg4();
  cfg.enable_mshr_merge = false;
  DynamicMshrFile mshr(cfg);
  ASSERT_TRUE(mshr.try_insert(packet(0x1000, 256)).accepted);
  const auto res = mshr.try_insert(packet(0x1000, 64));
  ASSERT_TRUE(res.accepted);
  EXPECT_EQ(res.to_issue.size(), 1u);  // duplicate fetch instead of merge
  EXPECT_FALSE(mshr.try_merge_only(packet(0x1000, 64)));
}

TEST(DynMshr, SubentryCapacityBoundsMerging) {
  CoalescerConfig cfg = cfg4();
  cfg.max_subentries = 5;  // entry starts with 4 subentries for 256 B
  DynamicMshrFile mshr(cfg);
  ASSERT_TRUE(mshr.try_insert(packet(0x1000, 256)).accepted);
  // One more subentry fits...
  EXPECT_TRUE(mshr.try_merge_only(packet(0x1000, 64, ReqType::kLoad, 9)));
  // ...but the next does not.
  EXPECT_FALSE(mshr.try_merge_only(packet(0x1000, 64, ReqType::kLoad, 10)));
}

TEST(DynMshr, FillUnknownIdReturnsNothing) {
  DynamicMshrFile mshr(cfg4());
  EXPECT_FALSE(mshr.on_fill(12345).has_value());
}

TEST(DynMshr, DifferentialMatchesLinearScanOracle) {
  // Seeded random traffic through the production file and the oracle in
  // lockstep: every accept/reject, attached entry (seen through the fill
  // that returns each token), issue id, fill-target order and counter must
  // agree. Few blocks and small subentry caps keep entries overlapping and
  // saturated, so first-fit order and the room checks decide most probes.
  struct Shape {
    std::uint32_t mshrs;
    std::uint32_t subentries;
    std::uint64_t blocks;
    bool merge;
  };
  const Shape shapes[] = {{4, 4, 3, true},   {8, 5, 6, true},
                          {16, 6, 12, true}, {16, 16, 4, true},
                          {8, 6, 4, false}};
  for (const Shape& shape : shapes) {
    CoalescerConfig cfg;
    cfg.num_mshrs = shape.mshrs;
    cfg.max_subentries = shape.subentries;
    cfg.enable_mshr_merge = shape.merge;
    DynamicMshrFile mshr(cfg);
    OracleMshrFile oracle(cfg);
    Xoshiro256 rng(1000 + shape.mshrs * 31 + shape.subentries);
    std::uint64_t next_token = 1;
    std::vector<ReqId> inflight;
    for (int step = 0; step < 4000; ++step) {
      SCOPED_TRACE(::testing::Message()
                   << "mshrs " << shape.mshrs << " step " << step);
      const std::uint64_t op = rng.below(20);
      if (op < 9) {
        const CoalescedPacket p = random_packet(rng, shape.blocks, next_token);
        const auto got = mshr.try_insert(p);
        const auto want = oracle.try_insert(p);
        expect_same_insert(got, want);
        for (const CoalescedPacket& np : got.to_issue) {
          inflight.push_back(np.id);
        }
      } else if (op < 13) {
        const CoalescedPacket p = random_packet(rng, shape.blocks, next_token);
        EXPECT_EQ(mshr.try_merge_only(p), oracle.try_merge_only(p));
      } else if (!inflight.empty()) {
        // Fills complete in random order; now and then an id that is not
        // in flight (never issued, or already filled) must miss in both.
        const std::size_t idx = rng.below(inflight.size());
        const ReqId id = rng.chance(0.05) ? inflight[idx] + 100000
                                          : inflight[idx];
        expect_same_fill(mshr.on_fill(id), oracle.on_fill(id));
        if (id == inflight[idx]) {
          inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(idx));
        }
      }
      ASSERT_EQ(mshr.in_use(), oracle.in_use());
    }
    for (ReqId id : inflight) {
      expect_same_fill(mshr.on_fill(id), oracle.on_fill(id));
    }
    EXPECT_EQ(mshr.in_use(), 0u);
    expect_same_stats(mshr.stats(), oracle.stats());
    EXPECT_GT(mshr.stats().rejects_full, 0u);
    if (shape.merge) {
      EXPECT_GT(mshr.stats().full_merges, 0u);
      EXPECT_GT(mshr.stats().partial_merges, 0u);
    }
  }
}

TEST(DynMshr, RejectedMergeStaysRejectedUntilAnAllocation) {
  // The lemma behind the coalescer's sweep skip: once try_merge_only
  // refuses a packet, fills (which remove entries) and merges of other
  // packets that allocate nothing (which use up subentry room) can never
  // make it succeed. Only a new entry can.
  CoalescerConfig cfg;
  cfg.num_mshrs = 6;
  cfg.max_subentries = 5;
  DynamicMshrFile mshr(cfg);
  Xoshiro256 rng(2024);
  std::uint64_t next_token = 1;
  std::vector<ReqId> inflight;
  int checked = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Build up some in-flight state.
    for (int k = 0; k < 4; ++k) {
      const auto res = mshr.try_insert(random_packet(rng, 4, next_token));
      for (const CoalescedPacket& np : res.to_issue) inflight.push_back(np.id);
    }
    const CoalescedPacket blocked = random_packet(rng, 4, next_token);
    if (mshr.try_merge_only(blocked)) continue;
    for (int step = 0; step < 12; ++step) {
      const std::uint64_t allocations = mshr.stats().allocations;
      if (rng.chance(0.3) && !inflight.empty()) {
        const std::size_t idx = rng.below(inflight.size());
        ASSERT_TRUE(mshr.on_fill(inflight[idx]).has_value());
        inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(idx));
      } else if (rng.chance(0.5)) {
        (void)mshr.try_merge_only(random_packet(rng, 4, next_token));
      } else {
        const auto res = mshr.try_insert(random_packet(rng, 4, next_token));
        for (const CoalescedPacket& np : res.to_issue) {
          inflight.push_back(np.id);
        }
        if (mshr.stats().allocations != allocations) break;  // lemma ends
      }
      ASSERT_FALSE(mshr.try_merge_only(blocked)) << "trial " << trial;
      ++checked;
    }
    // Keep the file from filling up for good.
    while (inflight.size() > 3) {
      ASSERT_TRUE(mshr.on_fill(inflight.front()).has_value());
      inflight.erase(inflight.begin());
    }
  }
  EXPECT_GT(checked, 500);
}

TEST(DynMshr, PropertyTokensNeverLostAcrossRandomTraffic) {
  CoalescerConfig cfg;
  cfg.num_mshrs = 8;
  DynamicMshrFile mshr(cfg);
  Xoshiro256 rng(41);
  std::multiset<std::uint64_t> outstanding_tokens;
  std::multiset<std::uint64_t> completed_tokens;
  std::vector<ReqId> inflight;
  std::uint64_t next_token = 1;

  for (int step = 0; step < 3000; ++step) {
    if (rng.chance(0.55) || inflight.empty()) {
      const std::uint32_t lines = 1u << rng.below(3);
      const Addr addr =
          rng.below(256) * 256 + rng.below(4 / lines + 1) * lines * 64;
      CoalescedPacket p =
          packet(addr, lines * 64,
                 rng.chance(0.25) ? ReqType::kStore : ReqType::kLoad,
                 next_token);
      const auto res = mshr.try_insert(p);
      if (res.accepted) {
        for (const auto& c : p.constituents) {
          outstanding_tokens.insert(c.token);
        }
        next_token += lines;
        for (const auto& np : res.to_issue) inflight.push_back(np.id);
      }
    } else {
      const auto idx = rng.below(inflight.size());
      const auto fill = mshr.on_fill(inflight[idx]);
      ASSERT_TRUE(fill.has_value());
      for (const auto& t : fill->targets) completed_tokens.insert(t.token);
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    EXPECT_LE(mshr.in_use(), mshr.capacity());
  }
  // Drain.
  for (ReqId id : inflight) {
    const auto fill = mshr.on_fill(id);
    ASSERT_TRUE(fill.has_value());
    for (const auto& t : fill->targets) completed_tokens.insert(t.token);
  }
  EXPECT_EQ(mshr.in_use(), 0u);
  EXPECT_EQ(outstanding_tokens, completed_tokens);
}

}  // namespace
}  // namespace hmcc::coalescer
