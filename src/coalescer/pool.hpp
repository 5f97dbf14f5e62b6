// Free-list arena for the DMC -> CRQ -> MSHR hot path (enable_pool knob).
//
// The coalescer's steady state churns three allocation families per
// request/batch: the per-packet constituent vectors, the per-batch window /
// key buffers, and the DMC unit's per-run line groups. All of them die
// within a bounded pipeline depth of where they were born, so instead of a
// general allocator the pool keeps type-segregated free lists of
// capacity-retaining vectors plus two flat scratch buffers (the SoA
// sort-key window and the line-group table). Acquire pops a cleared vector
// with warmed-up capacity; recycle clears and stows it. After a few batches
// the hot path performs no heap allocation at all. The dynamic MSHR file's
// planning scratch is not part of the arena: the file owns it and reuses it
// on every probe whether or not the knob is set.
//
// The pool is a pure execution-strategy optimization: with enable_pool off
// the coalescer's allocation behavior is exactly the historical one, and
// results are byte-identical either way (pooling only changes WHERE the
// bytes live, never what is computed).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "coalescer/request.hpp"

namespace hmcc::coalescer {

/// Reuse accounting, exposed for tests and the bench harness: `fresh` counts
/// acquires served by a new allocation, `reused` those served from the free
/// list. A warmed-up pool's fresh counters stop moving.
struct PoolCounters {
  std::uint64_t request_vectors_fresh = 0;
  std::uint64_t request_vectors_reused = 0;
  std::uint64_t packet_vectors_fresh = 0;
  std::uint64_t packet_vectors_reused = 0;
};

class PacketPool {
 public:
  /// A cleared constituent vector, with capacity if the free list has one.
  [[nodiscard]] std::vector<CoalescerRequest> acquire_requests() {
    if (free_requests_.empty()) {
      ++counters_.request_vectors_fresh;
      return {};
    }
    ++counters_.request_vectors_reused;
    std::vector<CoalescerRequest> v = std::move(free_requests_.back());
    free_requests_.pop_back();
    return v;
  }

  /// Return a constituent vector; contents are discarded, capacity kept.
  /// Capacity-less vectors (e.g. moved-from shells) are dropped — stowing
  /// them would hand out useless entries.
  void recycle_requests(std::vector<CoalescerRequest>&& v) {
    if (v.capacity() == 0) return;
    v.clear();
    free_requests_.push_back(std::move(v));
  }

  /// A cleared packet vector, with capacity if the free list has one.
  [[nodiscard]] std::vector<CoalescedPacket> acquire_packets() {
    if (free_packets_.empty()) {
      ++counters_.packet_vectors_fresh;
      return {};
    }
    ++counters_.packet_vectors_reused;
    std::vector<CoalescedPacket> v = std::move(free_packets_.back());
    free_packets_.pop_back();
    return v;
  }

  /// Return a packet vector. Any packet still holding constituents donates
  /// them to the request free list first (packets are normally moved out
  /// before the carrier is recycled, so this is usually a no-op).
  void recycle_packets(std::vector<CoalescedPacket>&& v) {
    for (CoalescedPacket& p : v) {
      recycle_requests(std::move(p.constituents));
    }
    if (v.capacity() == 0) return;
    v.clear();
    free_packets_.push_back(std::move(v));
  }

  /// SoA sort-key window scratch (flush_window overwrites it per batch).
  [[nodiscard]] std::vector<std::uint64_t>& keys_scratch() noexcept {
    return keys_;
  }

  /// Line-group table scratch for DmcUnit::coalesce_lines: inner vectors
  /// keep their capacity across runs and batches.
  [[nodiscard]] std::vector<std::vector<CoalescerRequest>>&
  groups_scratch() noexcept {
    return groups_;
  }

  [[nodiscard]] const PoolCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] std::size_t free_request_vectors() const noexcept {
    return free_requests_.size();
  }
  [[nodiscard]] std::size_t free_packet_vectors() const noexcept {
    return free_packets_.size();
  }

  /// Drop every cached buffer and zero the counters (between runs).
  void reset() {
    free_requests_.clear();
    free_requests_.shrink_to_fit();
    free_packets_.clear();
    free_packets_.shrink_to_fit();
    keys_.clear();
    keys_.shrink_to_fit();
    groups_.clear();
    groups_.shrink_to_fit();
    counters_ = PoolCounters{};
  }

 private:
  std::vector<std::vector<CoalescerRequest>> free_requests_;
  std::vector<std::vector<CoalescedPacket>> free_packets_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::vector<CoalescerRequest>> groups_;
  PoolCounters counters_;
};

}  // namespace hmcc::coalescer
