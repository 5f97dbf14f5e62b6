// perfbench: the simulator's end-to-end benchmark harness.
//
//   perfbench --workload cg|stream|sg_hybrid|paper12 --seed N --seconds S
//             --trace 0|1 [--spans-out PATH] [--git-sha SHA]
//             [--source-sha SHA]
//
// A round generates the workload's traces once (Workload::generate), builds
// one System per (trace, mode) pair for mode=conventional and
// mode=coalescer, and runs every pair through system::SweepRunner::map.
// Rounds repeat until --seconds have passed; timings are the median over
// the run's rounds. Each point is checked against counts the benchmark
// derives from the trace itself (checks.hpp); a point that throws, does
// not drain or fails a check counts as failed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// rounds with traced ones, which record spans around each call into the
// simulator and then replay every layer on its own (replay.hpp), and prints
// the per-layer metrics. The last stdout line is always one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_writer.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "system/runner.hpp"
#include "system/sweep_runner.hpp"
#include "workloads/workload.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using hmcc::obs::json_escape;
using hmcc::system::CoalescerMode;
using hmcc::system::SystemConfig;
using hmcc::system::SystemReport;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads. Input sizes are chosen so one round takes one to two seconds on
// a 4-core x86 host: long enough that a round's timing is mostly simulation,
// short enough that a run holds a dozen or more rounds to take the median of.

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> generators;  ///< traces generated per round
  std::uint64_t accesses_per_core;
  bool hybrid;       ///< mem=hybrid scheme=migrate instead of mem=hmc
  unsigned threads;  ///< SweepRunner threads
};

std::vector<WorkloadSpec> workload_specs() {
  return {
      {"cg", {"cg"}, 20000, false, 1},
      {"stream", {"stream"}, 40000, false, 1},
      {"sg_hybrid", {"sg"}, 40000, true, 1},
      {"paper12", hmcc::workloads::workload_names(), 4000, false, 2},
  };
}

SystemConfig base_config(const WorkloadSpec& spec) {
  SystemConfig cfg = hmcc::system::paper_system_config();
  if (spec.hybrid) {
    // The bench_ablation_hybrid tier: 512 fast pages (2 MiB), 8-way tag
    // table, promotion at 4 accesses per 20 000-cycle epoch.
    cfg.mem.backend = hmcc::mem::BackendKind::kHybrid;
    cfg.mem.scheme = hmcc::mem::HybridScheme::kMigrate;
    cfg.mem.fast_pages = 512;
    cfg.mem.tag_ways = 8;
    cfg.mem.hot_threshold = 4;
    cfg.mem.migrate_epoch = 20000;
  }
  return cfg;
}

/// Set-up (generation + System construction) is a few milliseconds per
/// round, so each round repeats it this many times and keeps the last; the
/// reported set-up time is the median over every repetition of the run.
constexpr int kSetupSamples = 5;

constexpr CoalescerMode kModes[] = {CoalescerMode::kConventional,
                                    CoalescerMode::kFull};

// ---------------------------------------------------------------------------
// One round.

struct PointResult {
  SystemReport report;
  double run_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t mshr_full_merges = 0;
  std::uint64_t mshr_partial_merges = 0;
  std::string error;  ///< set when the point threw or could not be built
  std::vector<std::string> failures;
};

/// Standalone layer replays of one round, summed over its traces.
struct ReplayTotals {
  double cache_s = 0.0, coalescer_s = 0.0, mem_s = 0.0, kernel_s = 0.0;
  std::uint64_t cache_accesses = 0, cache_misses = 0, cache_writebacks = 0;
  std::uint64_t coal_raw = 0, coal_packets = 0;
  std::uint64_t mem_packets = 0, mem_fast_hits = 0, mem_slow = 0;
  std::uint64_t kernel_events = 0;
  bool drained = true;
};

struct RoundResult {
  double wall_s = 0.0;
  struct SetupSample {
    double gen_s;
    double ctor_s;
  };
  std::vector<SetupSample> setup_samples;
  double sweep_wall_s = 0.0;
  double run_sum_s = 0.0;  ///< summed System::run seconds of all points
  std::uint64_t records = 0;
  std::vector<PointResult> points;  ///< index 2*trace + mode
  std::uint64_t failed = 0;
  std::uint64_t retired = 0;  ///< CPU accesses retired by passing points
  std::uint64_t events = 0;
  // Coalescer-mode figures summed over traces.
  std::uint64_t sim_cycles = 0;
  double sim_speedup = 0.0;
  std::uint64_t hmc_requests = 0;
  std::uint64_t hmc_bytes = 0;
  ReplayTotals replay;

  [[nodiscard]] double accesses_per_s() const {
    return sweep_wall_s > 0 ? static_cast<double>(retired) / sweep_wall_s
                            : 0.0;
  }
};

ReplayTotals replay_layers(const SystemConfig& full_cfg,
                           const hmcc::trace::MultiTrace& trace,
                           std::uint64_t events, SpanRecorder* rec,
                           int parent) {
  ReplayTotals t;
  auto timed = [&](const char* name, double& acc, auto&& fn) {
    ScopedSpan span(rec, name, parent);
    const auto t0 = Clock::now();
    auto result = fn();
    acc += seconds_since(t0);
    return result;
  };
  const perfbench::CacheReplay cr = timed("cache.replay", t.cache_s, [&] {
    return perfbench::replay_cache(full_cfg, trace);
  });
  const perfbench::CoalescerReplay co =
      timed("coalescer.replay", t.coalescer_s, [&] {
        return perfbench::replay_coalescer(full_cfg, cr.misses);
      });
  const perfbench::MemReplay mr = timed("mem.replay", t.mem_s, [&] {
    return perfbench::replay_mem(full_cfg, co.packets);
  });
  t.kernel_events = timed("sim.kernel_replay", t.kernel_s, [&] {
    return perfbench::replay_kernel(full_cfg, events);
  });
  t.cache_accesses = cr.accesses;
  t.cache_misses = cr.llc_misses;
  t.cache_writebacks = cr.writebacks;
  t.coal_raw = co.stats.raw_requests;
  t.coal_packets = co.stats.memory_requests;
  t.mem_packets = mr.packets;
  t.mem_fast_hits = mr.tier.fast_hits;
  t.mem_slow = mr.tier.slow_accesses;
  t.drained = co.drained && mr.drained && t.kernel_events == events;
  return t;
}

void add(ReplayTotals& a, const ReplayTotals& b) {
  a.cache_s += b.cache_s;
  a.coalescer_s += b.coalescer_s;
  a.mem_s += b.mem_s;
  a.kernel_s += b.kernel_s;
  a.cache_accesses += b.cache_accesses;
  a.cache_misses += b.cache_misses;
  a.cache_writebacks += b.cache_writebacks;
  a.coal_raw += b.coal_raw;
  a.coal_packets += b.coal_packets;
  a.mem_packets += b.mem_packets;
  a.mem_fast_hits += b.mem_fast_hits;
  a.mem_slow += b.mem_slow;
  a.kernel_events += b.kernel_events;
  a.drained = a.drained && b.drained;
}

/// Everything a round builds before it simulates: the traces and one
/// System per (trace, mode) point.
struct Setup {
  std::vector<hmcc::trace::MultiTrace> traces;
  std::vector<std::unique_ptr<hmcc::system::System>> systems;
  std::vector<std::string> error;  ///< per point; set when it cannot run
  double gen_s = 0.0;
  double ctor_s = 0.0;
};

Setup set_up(const WorkloadSpec& spec, const SystemConfig& base,
             const hmcc::workloads::WorkloadParams& params, SpanRecorder* rec,
             int parent) {
  Setup s;
  const std::size_t ntraces = spec.generators.size();
  s.traces.resize(ntraces);
  s.systems.resize(2 * ntraces);
  s.error.resize(2 * ntraces);
  {
    ScopedSpan span(rec, "workloads.generate", parent);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ntraces; ++i) {
      try {
        auto gen = hmcc::workloads::make_workload(spec.generators[i]);
        if (!gen) throw std::invalid_argument("unknown generator");
        s.traces[i] = gen->generate(params);
      } catch (const std::exception& e) {
        s.error[2 * i] = s.error[2 * i + 1] =
            std::string("generate threw: ") + e.what();
      }
    }
    s.gen_s = seconds_since(t0);
  }
  {
    ScopedSpan span(rec, "system.ctor", parent);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < s.systems.size(); ++i) {
      if (!s.error[i].empty()) continue;
      try {
        SystemConfig cfg = base;
        hmcc::system::apply_mode(cfg, kModes[i % 2]);
        s.systems[i] = std::make_unique<hmcc::system::System>(cfg);
      } catch (const std::exception& e) {
        s.error[i] = std::string("System() threw: ") + e.what();
      }
    }
    s.ctor_s = seconds_since(t0);
  }
  return s;
}

RoundResult run_round(const WorkloadSpec& spec, std::uint64_t seed,
                      const hmcc::system::SweepRunner& runner,
                      SpanRecorder* rec) {
  RoundResult r;
  const auto round_start = Clock::now();
  ScopedSpan round(rec, "round", SpanRecorder::kNoParent);
  const SystemConfig base = base_config(spec);
  hmcc::workloads::WorkloadParams params;
  params.num_cores = base.hierarchy.num_cores;
  params.accesses_per_core = spec.accesses_per_core;
  params.seed = seed;

  const std::size_t ntraces = spec.generators.size();
  Setup setup;
  for (int k = 0; k < kSetupSamples; ++k) {
    setup = Setup{};  // free the previous sample first, untimed
    setup = set_up(spec, base, params, rec, round.id());
    r.setup_samples.push_back({setup.gen_s, setup.ctor_s});
  }
  const std::vector<hmcc::trace::MultiTrace>& traces = setup.traces;
  auto& systems = setup.systems;
  const std::vector<std::string>& setup_error = setup.error;

  {
    ScopedSpan sweep(rec, "system.sweep", round.id());
    const auto t0 = Clock::now();
    r.points = runner.map<PointResult>(systems.size(), [&](std::size_t i) {
      PointResult p;
      if (!systems[i]) {
        p.error = setup_error[i];
        return p;
      }
      try {
        {
          ScopedSpan span(rec, "system.run", sweep.id());
          const auto t1 = Clock::now();
          p.report = systems[i]->run(traces[i / 2]);
          p.run_s = seconds_since(t1);
        }
        p.events = systems[i]->kernel().events_fired();
        if (rec != nullptr) {
          ScopedSpan publish(rec, "system.publish_metrics", sweep.id());
          hmcc::obs::MetricsRegistry reg;
          systems[i]->publish_metrics(reg);
          p.mshr_full_merges =
              reg.counter_value("hmcc_mshr_full_merges_total");
          p.mshr_partial_merges =
              reg.counter_value("hmcc_mshr_partial_merges_total");
        }
      } catch (const std::exception& e) {
        p.error = std::string("run threw: ") + e.what();
      }
      systems[i].reset();
      return p;
    });
    r.sweep_wall_s = seconds_since(t0);
  }

  {
    ScopedSpan span(rec, "bench.checks", round.id());
    const auto mem_kind =
        spec.hybrid ? perfbench::MemKind::kHybrid : perfbench::MemKind::kHmc;
    double log_speedup = 0.0;
    std::size_t speedups = 0;
    for (std::size_t i = 0; i < ntraces; ++i) {
      const perfbench::TraceExpect expect =
          perfbench::expect_from_trace(traces[i]);
      r.records += expect.records;
      PointResult& conv = r.points[2 * i];
      PointResult& coal = r.points[2 * i + 1];
      for (PointResult* p : {&conv, &coal}) {
        if (!p->error.empty()) {
          p->failures.push_back(p->error);
          continue;
        }
        p->failures = perfbench::check_point(
            expect, perfbench::figures_of(p->report), mem_kind);
      }
      if (conv.error.empty() && coal.error.empty()) {
        const std::string same = perfbench::check_same_retired(
            perfbench::figures_of(conv.report),
            perfbench::figures_of(coal.report));
        if (!same.empty()) {
          conv.failures.push_back(same);
          coal.failures.push_back(same);
        }
      }
      for (const PointResult* p : {&conv, &coal}) {
        r.run_sum_s += p->run_s;
        r.events += p->events;
        if (p->failures.empty()) {
          r.retired += p->report.cpu_accesses;
        } else {
          ++r.failed;
        }
      }
      if (coal.failures.empty()) {
        r.sim_cycles += coal.report.runtime;
        r.hmc_requests += coal.report.memory_requests;
        r.hmc_bytes += coal.report.hmc.transferred_bytes;
      }
      if (conv.failures.empty() && coal.failures.empty() &&
          coal.report.runtime > 0) {
        log_speedup += std::log(static_cast<double>(conv.report.runtime) /
                                static_cast<double>(coal.report.runtime));
        ++speedups;
      }
    }
    r.sim_speedup =
        speedups ? std::exp(log_speedup / static_cast<double>(speedups)) : 0.0;
  }

  if (rec != nullptr) {
    SystemConfig full = base;
    hmcc::system::apply_mode(full, CoalescerMode::kFull);
    for (std::size_t i = 0; i < ntraces; ++i) {
      if (!setup_error[2 * i].empty()) continue;
      const std::uint64_t events =
          r.points[2 * i].events + r.points[2 * i + 1].events;
      add(r.replay, replay_layers(full, traces[i], events, rec, round.id()));
    }
  }
  r.wall_s = seconds_since(round_start);
  return r;
}

// ---------------------------------------------------------------------------
// Reporting.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename Fn>
double median_of(const std::vector<RoundResult>& rounds, Fn&& fn) {
  std::vector<double> v;
  v.reserve(rounds.size());
  for (const RoundResult& r : rounds) v.push_back(fn(r));
  return median(v);
}

template <typename Fn>
double median_of_setups(const std::vector<RoundResult>& rounds, Fn&& fn) {
  std::vector<double> v;
  for (const RoundResult& r : rounds) {
    for (const auto& sample : r.setup_samples) v.push_back(fn(sample));
  }
  return median(v);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_value(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 9e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
};

void print_provenance(const Options& o, const WorkloadSpec& spec,
                      const SystemConfig& cfg) {
#ifdef NDEBUG
  const char* asserts = "off";
#else
  const char* asserts = "on";
#endif
  std::printf(
      "provenance: {\"git_sha\": \"%s\", \"source_sha256\": \"%s\", "
      "\"nproc\": %u, \"cpu_model\": \"%s\", \"compiler\": \"g++ %s\", "
      "\"build_type\": \"%s\", \"asserts\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"accesses_per_core\": %llu, \"cores\": %u, \"traces\": %zu, "
      "\"sweep_threads\": %u, \"mem\": \"%s\"}\n",
      json_escape(o.git_sha).c_str(), json_escape(o.source_sha).c_str(),
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE, asserts,
      spec.name.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, static_cast<unsigned long long>(spec.accesses_per_core),
      cfg.hierarchy.num_cores, spec.generators.size(), spec.threads,
      spec.hybrid ? "hybrid scheme=migrate fast_pages=512 tag_ways=8 "
                    "hot_threshold=4 migrate_epoch=20000"
                  : "hmc");
}

void print_failures(const std::vector<RoundResult>& rounds,
                    const WorkloadSpec& spec) {
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    const auto& pts = rounds[k].points;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      for (const std::string& f : pts[i].failures) {
        std::fprintf(stderr, "FAILED round %zu point %s/%s: %s\n", k,
                     spec.generators[i / 2].c_str(),
                     hmcc::system::to_string(kModes[i % 2]), f.c_str());
      }
    }
  }
}

/// Deterministic figures must repeat exactly in every round of a run.
bool rounds_agree(const std::vector<RoundResult>& rounds) {
  for (const RoundResult& r : rounds) {
    const RoundResult& a = rounds.front();
    if (r.sim_cycles != a.sim_cycles || r.hmc_requests != a.hmc_requests ||
        r.hmc_bytes != a.hmc_bytes || r.sim_speedup != a.sim_speedup ||
        r.retired != a.retired || r.failed != a.failed) {
      std::fprintf(stderr,
                   "NONDETERMINISTIC: round figures differ between rounds\n");
      return false;
    }
  }
  return true;
}

std::vector<Metric> end_to_end(const std::vector<RoundResult>& rounds) {
  const RoundResult& first = rounds.front();
  return {
      {"setup_s",
       median_of_setups(rounds,
                        [](auto& s) { return s.gen_s + s.ctor_s; }),
       "s"},
      {"sim_accesses_per_s",
       median_of(rounds, [](auto& r) { return r.accesses_per_s(); }),
       "accesses/s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"sim_cycles", static_cast<double>(first.sim_cycles), "cycles"},
      {"sim_speedup", first.sim_speedup, "ratio"},
      {"hmc_requests", static_cast<double>(first.hmc_requests), "count"},
      {"hmc_bytes", static_cast<double>(first.hmc_bytes), "bytes"},
  };
}

std::vector<Metric> per_layer(const std::vector<RoundResult>& traced,
                              const std::vector<RoundResult>& untraced,
                              unsigned threads) {
  // Counts are deterministic: read them from the first traced round's
  // coalescer-mode points, summed over traces.
  const RoundResult& r0 = traced.front();
  SystemReport coal;
  hmcc::Accumulator front, demand, hmc_lat;
  std::uint64_t full_merges = 0, partial_merges = 0;
  for (std::size_t i = 1; i < r0.points.size(); i += 2) {
    const SystemReport& c = r0.points[i].report;
    coal.llc_misses += c.llc_misses;
    coal.writebacks += c.writebacks;
    coal.memory_requests += c.memory_requests;
    coal.coalescer.raw_requests += c.coalescer.raw_requests;
    coal.coalescer.bypassed += c.coalescer.bypassed;
    coal.coalescer.crq_merges += c.coalescer.crq_merges;
    coal.coalescer.size_256 += c.coalescer.size_256;
    coal.coalescer.timeout_flushes += c.coalescer.timeout_flushes;
    coal.mem_tier.fast_hits += c.mem_tier.fast_hits;
    coal.mem_tier.slow_accesses += c.mem_tier.slow_accesses;
    coal.mem_tier.migration_packets += c.mem_tier.migration_packets;
    coal.mem_tier.dirty_writebacks += c.mem_tier.dirty_writebacks;
    coal.hmc.row_hits += c.hmc.row_hits;
    coal.hmc.bank_conflicts += c.hmc.bank_conflicts;
    coal.hmc.control_bytes += c.hmc.control_bytes;
    front += c.coalescer.front_latency;
    demand += c.mem_tier.demand_latency;
    hmc_lat += c.hmc.latency;
    full_merges += r0.points[i].mshr_full_merges;
    partial_merges += r0.points[i].mshr_partial_merges;
  }
  auto med = [&](auto fn) { return median_of(traced, fn); };
  const double run_s = med([](auto& r) { return r.run_sum_s; });
  const double coal_s = med([](auto& r) { return r.replay.coalescer_s; });
  const double mem_s = med([](auto& r) { return r.replay.mem_s; });
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"workloads.generate_s",
       median_of_setups(traced, [](auto& s) { return s.gen_s; }), "s"},
      {"workloads.records", n(r0.records), "count"},
      {"system.ctor_s",
       median_of_setups(traced, [](auto& s) { return s.ctor_s; }), "s"},
      {"system.run_s", run_s, "s"},
      {"system.sweep_efficiency",
       med([&](auto& r) {
         return r.run_sum_s / (threads * r.sweep_wall_s);
       }),
       "ratio"},
      {"sim.events", n(r0.events), "count"},
      {"sim.ns_per_event", r0.events ? run_s * 1e9 / n(r0.events) : 0.0, "ns"},
      {"sim.kernel_replay_s", med([](auto& r) { return r.replay.kernel_s; }),
       "s"},
      {"cache.replay_s", med([](auto& r) { return r.replay.cache_s; }), "s"},
      {"cache.llc_misses", n(coal.llc_misses), "count"},
      {"cache.writebacks", n(coal.writebacks), "count"},
      {"cache.replay_llc_misses", n(r0.replay.cache_misses), "count"},
      {"coalescer.replay_s", coal_s, "s"},
      {"coalescer.self_s", coal_s - mem_s, "s"},
      {"coalescer.raw_requests", n(coal.coalescer.raw_requests), "count"},
      {"coalescer.packets", n(coal.memory_requests), "count"},
      {"coalescer.requests_per_packet",
       coal.memory_requests
           ? n(coal.coalescer.raw_requests) / n(coal.memory_requests)
           : 0.0,
       "ratio"},
      {"coalescer.bypassed", n(coal.coalescer.bypassed), "count"},
      {"coalescer.crq_merges", n(coal.coalescer.crq_merges), "count"},
      {"coalescer.mshr_full_merges", n(full_merges), "count"},
      {"coalescer.mshr_partial_merges", n(partial_merges), "count"},
      {"coalescer.packets_256", n(coal.coalescer.size_256), "count"},
      {"coalescer.timeout_flushes", n(coal.coalescer.timeout_flushes),
       "count"},
      {"coalescer.front_latency_cycles", front.mean(), "cycles"},
      {"coalescer.replay_packets", n(r0.replay.coal_packets), "count"},
      {"mem.replay_s", mem_s, "s"},
      {"mem.fast_hits", n(coal.mem_tier.fast_hits), "count"},
      {"mem.slow_accesses", n(coal.mem_tier.slow_accesses), "count"},
      {"mem.migration_packets", n(coal.mem_tier.migration_packets), "count"},
      {"mem.dirty_writebacks", n(coal.mem_tier.dirty_writebacks), "count"},
      {"mem.demand_latency_cycles", demand.mean(), "cycles"},
      {"hmc.latency_cycles", hmc_lat.mean(), "cycles"},
      {"hmc.row_hits", n(coal.hmc.row_hits), "count"},
      {"hmc.bank_conflicts", n(coal.hmc.bank_conflicts), "count"},
      {"hmc.control_bytes", n(coal.hmc.control_bytes), "bytes"},
      {"bench.trace_overhead_s",
       med([](auto& r) { return r.wall_s; }) -
           median_of(untraced, [](auto& r) { return r.wall_s; }),
       "s"},
  };
}

/// Each standalone replay's own counts beside the full run's (coalescer
/// mode, summed over traces), and the span tree's self times.
void print_layer_split(const RoundResult& r0, const SpanRecorder& rec) {
  std::uint64_t accesses = 0, misses = 0, wbs = 0, raw = 0, packets = 0,
                fast = 0, slow = 0;
  for (std::size_t i = 1; i < r0.points.size(); i += 2) {
    const SystemReport& c = r0.points[i].report;
    accesses += c.cpu_accesses;
    misses += c.llc_misses;
    wbs += c.writebacks;
    raw += c.coalescer.raw_requests;
    packets += c.memory_requests;
    fast += c.mem_tier.fast_hits;
    slow += c.mem_tier.slow_accesses;
  }
  const ReplayTotals& t = r0.replay;
  auto row = [](const char* what, std::uint64_t replay, std::uint64_t full) {
    std::printf("  %-34s %14llu %14llu\n", what,
                static_cast<unsigned long long>(replay),
                static_cast<unsigned long long>(full));
  };
  std::printf("layer replays vs the full run (coalescer mode):\n");
  std::printf("  %-34s %14s %14s\n", "count", "replay", "full run");
  row("cache: accesses", t.cache_accesses, accesses);
  row("cache: LLC misses", t.cache_misses, misses);
  row("cache: write-backs", t.cache_writebacks, wbs);
  row("coalescer: raw requests", t.coal_raw, raw);
  row("coalescer: packets issued", t.coal_packets, packets);
  row("mem: packets served", t.mem_packets, packets);
  row("mem: fast-tier hits", t.mem_fast_hits, fast);
  row("mem: slow-tier accesses", t.mem_slow, slow);
  row("kernel: events (both modes)", t.kernel_events, r0.events);
  std::printf("  replays drained: %s\n", t.drained ? "yes" : "NO");
  std::printf("span totals over all traced rounds:\n");
  std::printf("  %-24s %6s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, tot] : rec.totals()) {
    std::printf("  %-24s %6llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(tot.count), tot.total_s,
                tot.self_s);
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_value(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cg|stream|sg_hybrid|paper12 --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH] [--git-sha SHA] [--source-sha SHA]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = val;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        o.trace = val == "1";
      } else if (key == "--spans-out") {
        o.spans_out = val;
      } else if (key == "--git-sha") {
        o.git_sha = val;
      } else if (key == "--source-sha") {
        o.source_sha = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds out of range");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::vector<WorkloadSpec> specs = workload_specs();
  const auto it = std::find_if(specs.begin(), specs.end(), [&](auto& s) {
    return s.name == opt.workload;
  });
  if (it == specs.end()) usage("unknown workload '" + opt.workload + "'");
  const WorkloadSpec& spec = *it;
  print_provenance(opt, spec, base_config(spec));
  std::fflush(stdout);

  const hmcc::system::SweepRunner runner(spec.threads);
  const auto start = Clock::now();
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  SpanRecorder rec;
  do {
    untraced.push_back(run_round(spec, opt.seed, runner, nullptr));
    if (opt.trace) {
      traced.push_back(run_round(spec, opt.seed, runner, &rec));
    }
  } while (seconds_since(start) < opt.seconds);

  std::vector<RoundResult> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  std::uint64_t attempted = 0, failed = 0;
  for (const RoundResult& r : all) {
    attempted += r.points.size();
    failed += r.failed;
  }
  print_failures(all, spec);
  for (std::size_t k = 0; k < untraced.size(); ++k) {
    const RoundResult& r = untraced[k];
    std::fprintf(stderr,
                 "round %zu: setup %.6f s, sweep %.6f s, %.0f accesses/s\n", k,
                 median_of_setups({r}, [](auto& s) { return s.gen_s + s.ctor_s; }),
                 r.sweep_wall_s, r.accesses_per_s());
  }
  // A failed point makes the run incorrect too, so it cannot pass unseen.
  bool correct = rounds_agree(all) && failed == 0;
  std::printf("rounds: %zu untraced, %zu traced; points attempted %llu, "
              "failed %llu\n",
              untraced.size(), traced.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  if (opt.trace) {
    print_layer_split(traced.front(), rec);
    correct = correct && traced.front().replay.drained;
    if (!opt.spans_out.empty() && !rec.write_json(opt.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.spans_out.c_str());
      return 1;
    }
    print_result(correct, attempted, failed,
                 per_layer(traced, untraced, spec.threads));
  } else {
    print_result(correct, attempted, failed, end_to_end(untraced));
  }
  return 0;
}
