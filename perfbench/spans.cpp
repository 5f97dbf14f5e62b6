#include "spans.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace_writer.hpp"

namespace perfbench {

double SpanRecorder::now_s() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int SpanRecorder::begin(std::string name, int parent) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  const auto tid = tids_.try_emplace(std::this_thread::get_id(),
                                     static_cast<std::uint32_t>(tids_.size()))
                       .first->second;
  spans_.push_back(Span{std::move(name), parent, t, t, tid});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::end(int id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = t;
}

std::vector<SpanRecorder::Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all) {
    if (s.parent != kNoParent) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_s;  // children's union is covered up to here
    for (const auto& [lo, hi] : kids) {
      const double from = std::max(lo, reach);
      const double to = std::min(hi, s.end_s);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(hi, s.end_s));
    }
    Totals& t = out[s.name];
    ++t.count;
    t.total_s += s.end_s - s.start_s;
    t.self_s += s.end_s - s.start_s - covered;
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  hmcc::obs::TraceWriter writer(all.size());
  for (const Span& s : all) {
    // The layer ("system", "workloads", ...) is the span name's prefix.
    const std::string_view name = s.name;
    writer.complete(name, name.substr(0, name.find('.')), s.start_s * 1e9,
                    (s.end_s - s.start_s) * 1e9, s.tid);
  }
  return writer.write_json(path);
}

}  // namespace perfbench
