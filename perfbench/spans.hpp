// In-memory span recorder for the traced benchmark run.
//
// Spans are opened by the benchmark's own code around calls into the
// simulator's public functions (the simulator itself is not instrumented).
// They stay in memory and are written out once, when the run ends, through
// obs::TraceWriter (a chrome://tracing file, one track per host thread). The
// recorder itself only adds the parent links and the self times: a span's
// self time is its duration minus the part of it that its child spans
// cover; children may run on other threads (sweep points), so coverage is
// the union of the children's intervals, clipped to the parent.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr int kNoParent = -1;

  struct Span {
    std::string name;
    int parent = kNoParent;
    double start_s = 0.0;  ///< seconds since the recorder was created
    double end_s = 0.0;
    std::uint32_t tid = 0;  ///< host thread, numbered in order of first span
  };

  /// Open a span; safe to call from several threads.
  int begin(std::string name, int parent);
  void end(int id);

  [[nodiscard]] std::vector<Span> spans() const;

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Per span name: how often it ran, its summed duration and self time.
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Write every span as a chrome://tracing file (host nanoseconds since
  /// the recorder was created); returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] double now_s() const;

  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::map<std::thread::id, std::uint32_t> tids_;  // guarded by mu_
};

/// Opens a span for its lifetime; does nothing when the recorder is null
/// (the untraced run), so traced and untraced rounds share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, int parent)
      : rec_(rec),
        id_(rec ? rec->begin(std::move(name), parent)
                : SpanRecorder::kNoParent) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench
