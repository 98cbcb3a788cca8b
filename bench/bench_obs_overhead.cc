// Observability overhead guard: the instrumented hot path must stay
// within a few percent of an uninstrumented twin.
//
// The migration to obs:: cells left instruments compiled
// unconditionally into the serving hot paths — a cache-hit read now
// costs its map lookup + payload copy PLUS two CounterCell bumps and
// one disabled-ScopedSpan check. There is deliberately no build-time
// off switch, so this bench is the guard that the "off" cost (registry
// wired or not, trace log disabled — the production default) stays
// noise-level: it measures a synthetic twin of the block-cache hit path
// with and without exactly the instrumentation the real path carries, in
// many short back-to-back pairs of rounds over the same cache state, and
// ABORTS when the median paired relative overhead exceeds the budget.
// Running under `ctest -L bench_smoke` makes the regression
// un-mergeable rather than merely visible.
//
// Why paired medians: under `ctest -j` the guard shares the host with
// other suites. A preemption or frequency step lands inside one short
// round, so it skews one pair, which the median ignores; drift slower
// than a pair hits both of its rounds alike. Min-of-rounds per side over
// a few long rounds let one unlucky window on either side set the
// verdict.
//
// Wall-clock is the measured quantity here — the one bench where that
// is correct: instrument cost is real CPU, invisible to the virtual
// disk clock.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"

namespace steghide::bench {
namespace {

// Sanitizers inflate atomic ops by an order of magnitude; the guard
// then checks only that instrumentation is not catastrophically slow.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr double kMaxOverhead = 0.50;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr double kMaxOverhead = 0.50;
#else
constexpr double kMaxOverhead = 0.05;
#endif
#else
constexpr double kMaxOverhead = 0.05;
#endif

constexpr size_t kPayload = 4096;
constexpr size_t kBlocks = 64;
// Short rounds, many pairs: ~0.2 ms per round on a 4-core x86 host.
constexpr int kIters = 2000;
constexpr int kPairs = 201;

// The shared "service" work of one cache-hit read, mirroring
// BlockCache::ReadBlock's hit branch: shard mutex, map lookup, payload
// copy out of the cached entry, LRU touch. Both twins run exactly this.
struct HitPath {
  struct Entry {
    uint64_t id;
    std::vector<uint8_t> data;
  };
  std::mutex mu;
  std::list<Entry> lru;
  std::unordered_map<uint64_t, std::list<Entry>::iterator> cache;
  std::vector<uint8_t> out = std::vector<uint8_t>(kPayload);

  HitPath() {
    for (uint64_t id = 0; id < kBlocks; ++id) {
      lru.push_front(Entry{id, std::vector<uint8_t>(
                                   kPayload, static_cast<uint8_t>(id))});
      cache.emplace(id, lru.begin());
    }
  }

  void Serve(uint64_t id) {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = cache.find(id);
    std::memcpy(out.data(), it->second->data.data(), kPayload);
    lru.splice(lru.begin(), lru, it->second);
    benchmark::DoNotOptimize(out.data());
  }
};

// One timed burst of the uninstrumented twin.
double PlainRoundMs(HitPath& path) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    path.Serve(static_cast<uint64_t>(i) % kBlocks);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// One timed burst of the instrumented twin: the same serve plus exactly
// what the real hit path carries — cache-hit + user-read counter bumps
// and the disabled-span pointer check (spans live at group granularity
// in the real funnel; the per-hit cost is the inert ScopedSpan).
double InstrumentedRoundMs(HitPath& path, obs::CounterCell& hits,
                           obs::CounterCell& reads, obs::TraceLog* log) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    obs::ScopedSpan span(log, "cache.hit", 0);
    path.Serve(static_cast<uint64_t>(i) % kBlocks);
    hits.Increment();
    reads.Increment();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

void ObsOverheadGuard(benchmark::State& state) {
  for (auto _ : state) {
    // One path for both twins: the same entries, LRU state and memory
    // layout, so the only difference between them is the instruments.
    HitPath path;
    obs::Registry registry;
    obs::CounterCell hits, reads;
    obs::Registration reg(&registry);
    reg.Counter("cache.hits", &hits);
    reg.Counter("store.user_reads", &reads);
    obs::TraceLog log;  // wired but disabled: the production default
    log.set_enabled(false);

    // Warm both twins, then time back-to-back pairs, alternating which
    // twin goes first so neither always runs on the warmer cache.
    PlainRoundMs(path);
    InstrumentedRoundMs(path, hits, reads, &log);
    hits.Reset();
    std::vector<double> plain_ms, instr_ms, paired;
    for (int pair = 0; pair < kPairs; ++pair) {
      double plain = 0.0, instr = 0.0;
      if (pair % 2 == 0) {
        plain = PlainRoundMs(path);
        instr = InstrumentedRoundMs(path, hits, reads, &log);
      } else {
        instr = InstrumentedRoundMs(path, hits, reads, &log);
        plain = PlainRoundMs(path);
      }
      plain_ms.push_back(plain);
      instr_ms.push_back(instr);
      paired.push_back((instr - plain) / plain);
    }

    const double overhead = Median(paired);
    const double plain_ns = Median(plain_ms) * 1e6 / kIters;
    const double instr_ns = Median(instr_ms) * 1e6 / kIters;
    state.counters["plain_ns_per_op"] = plain_ns;
    state.counters["instrumented_ns_per_op"] = instr_ns;
    state.counters["overhead_pct"] = overhead * 100.0;
    state.counters["max_overhead_pct"] = kMaxOverhead * 100.0;

    if (overhead > kMaxOverhead) {
      std::fprintf(stderr,
                   "obs overhead guard FAILED: instrumented hot path is "
                   "%.2f%% slower than the uninstrumented twin (median of "
                   "%d paired rounds; budget %.0f%%; plain %.1f ns/op, "
                   "instrumented %.1f ns/op)\n",
                   overhead * 100.0, kPairs, kMaxOverhead * 100.0, plain_ns,
                   instr_ns);
      std::abort();
    }
    // The counters must actually have counted — a twin that optimized
    // the instruments away would make the guard vacuous.
    if (hits.value() != static_cast<uint64_t>(kIters) * kPairs) {
      std::abort();
    }
  }
}

BENCHMARK(ObsOverheadGuard)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace steghide::bench

int main(int argc, char** argv) {
  return steghide::bench::RunBenchmarks(argc, argv);
}
