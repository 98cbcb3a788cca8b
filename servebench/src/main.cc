// servebench_driver: one run of the serving benchmark.
//
//   servebench_driver --workload <read_hot|update_cold|read_sharded_rpc>
//                     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// A run's work is --seconds times the workload's nominal request rate,
// a fixed request count. --trace 0 sets the stack up several times
// (setup_s is their median), then serves that count in the closed loop
// and reports the end-to-end metrics. --trace 1 serves half of it
// untraced, then the same count (at most kTracedRequests) again on a
// fresh, identically seeded stack with the trace log, registries and
// timing decorators armed, and reports the per-layer metrics. The result
// is one JSON line on stdout; a readable report goes to stderr. Exit code
// 2 means a configuration guard failed (the run measured a different
// program than the benchmark defines).

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "serve.h"
#include "spans.h"
#include "stack.h"
#include "stegfs/block_codec.h"

namespace servebench {
namespace {

using Metrics = std::vector<std::pair<std::string, double>>;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "servebench_driver: %s\nusage: servebench_driver --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> [--tiny]\n",
               why);
  std::exit(64);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

/// Counters of every device and layer, taken before and after serving.
struct Snapshot {
  steghide::storage::IoStats steg;
  std::vector<steghide::storage::IoStats> cache;  // per spindle
  double cache_clock = 0.0;
  steghide::oblivious::StegPartitionReader::Stats reader;
  steghide::agent::UpdateStats update;
  steghide::stegfs::CryptoTrafficSnapshot crypto;
  steghide::storage::IoSchedulerStats io;
  std::vector<steghide::storage::ReplicationStats> replicas;  // per shard
  steghide::storage::remote::RemoteStats rpc;
  uint64_t partitioned_frames = 0;

  static Snapshot Take(Stack& s) {
    Snapshot snap;
    snap.steg = s.steg_sim->stats();
    for (auto* sim : s.cache_sims()) snap.cache.push_back(sim->stats());
    snap.cache_clock =
        s.volumes ? s.volumes->clock_ms() : s.cache_sim->clock_ms();
    snap.reader = s.agent->reader().stats();
    snap.update = s.agent->volatile_agent().update_stats();
    snap.crypto = steghide::stegfs::GlobalCryptoTraffic();
    snap.io = s.agent->store().io_stats();
    if (s.volumes && s.volumes->replica_count() > 1) {
      for (size_t k = 0; k < s.volumes->shard_count(); ++k) {
        snap.replicas.push_back(s.volumes->replicated(k)->stats());
      }
    }
    if (s.spec.link_faults) {
      snap.rpc = s.volumes->remote_device(0, 1)->stats();
      snap.partitioned_frames =
          s.volumes->transport_fault(0, 1)->stats().partitioned_frames;
    }
    return snap;
  }
};

uint64_t Ops(const steghide::storage::IoStats& s) { return s.reads + s.writes; }

uint64_t StaleReads(const Snapshot& before, const Snapshot& after) {
  uint64_t stale = 0;
  for (size_t k = 0; k < after.replicas.size(); ++k) {
    stale += after.replicas[k].quorum_stale_reads -
             before.replicas[k].quorum_stale_reads;
  }
  return stale;
}

/// The configuration guards: a run that fails one measured another
/// program than the benchmark defines, so it aborts instead of reporting.
void CheckGuards(Stack& s, const ServeResult& r, const Snapshot& before,
                 const Snapshot& after) {
  std::vector<std::string> failures;
  if (!s.agent->store().deamortized()) {
    failures.push_back("store is not deamortized");
  }
  if (s.spec.shards > 0 && s.agent->store().io_shard_count() != s.spec.shards) {
    failures.push_back("store does not fan out over every cache shard");
  }
  if (s.spec.link_faults) {
    if (after.partitioned_frames == before.partitioned_frames) {
      failures.push_back("no frame hit the partitioned link");
    }
    if (!r.repair_completed) failures.push_back("mirror repair not completed");
  }
  if (s.spec.write_share > 0.0 && !s.spec.prewarm &&
      after.reader.real_fetches == before.reader.real_fetches) {
    failures.push_back("no first-touch fetch from the StegFS partition");
  }
  if (r.completed == 0) failures.push_back("no request completed");
  if (failures.empty()) return;
  for (const auto& f : failures) {
    std::fprintf(stderr, "servebench: guard failed: %s\n", f.c_str());
  }
  std::exit(2);
}

struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong_reads = 0;
  uint64_t stale_reads = 0;
  /// Exact p50 virtual latency against the dispatcher's histogram
  /// (log-linear buckets, <1% error): both must describe the same run.
  double vlat_p50_ms = 0.0;
  double dispatcher_p50_ms = 0.0;

  bool vlat_consistent() const {
    return std::abs(vlat_p50_ms - dispatcher_p50_ms) <=
           0.03 * std::max(vlat_p50_ms, dispatcher_p50_ms);
  }
};

Checks MakeChecks(const ServeResult& r, const Snapshot& before,
                  const Snapshot& after) {
  Checks c;
  c.attempted = r.attempted;
  c.failed = r.failed;
  c.wrong_reads = r.wrong_reads;
  c.stale_reads = StaleReads(before, after);
  c.vlat_p50_ms = Percentile(r.vlat_ms, 50);
  c.dispatcher_p50_ms = r.dstats.p50_latency_ms;
  return c;
}

/// The run's fixed amount of work: --seconds at the workload's nominal
/// request rate.
uint64_t Requests(const Args& args, const WorkloadSpec& spec) {
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(args.seconds *
                               static_cast<double>(spec.requests_per_second)));
}

Metrics EndToEnd(const Args& args, const WorkloadSpec& spec, size_t payload,
                 Checks* checks) {
  // Set up several times; setup_s is the median. Only the last stack
  // serves. Content generation is the generator's work, not setup, and
  // set-up only reads it.
  const int setups = args.tiny ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  Content content(spec, args.seed, payload);
  for (int i = 0; i < setups; ++i) {
    stack.reset();
    // Hand the torn-down stack's heap back, so peak RSS measures one
    // stack rather than the allocator's history.
    malloc_trim(0);
    const auto t0 = std::chrono::steady_clock::now();
    stack = BuildStack(spec, args.seed, content, /*timed=*/false, nullptr,
                       nullptr);
    setup_s.push_back(SecondsSince(t0));
  }

  // The program's peak memory: the process's peak RSS less what the
  // benchmark itself held resident (the simulated disks' images and the
  // expected content throughout, the per-request records while serving),
  // whichever of set-up and serving peaked higher. The serving peak is
  // read before the results below copy any sample array.
  constexpr double kMiB = 1024.0 * 1024.0;
  const double held_mb =
      static_cast<double>(stack->provisioned_bytes + content.bytes.size()) /
      kMiB;
  const double setup_peak_mb = PeakRssMb() - held_mb;
  ServeOptions options;
  options.requests = Requests(args, spec);
  const Snapshot before = Snapshot::Take(*stack);
  const ServeResult r = Serve(*stack, content, args.seed, options);
  const double serving_peak_mb =
      PeakRssMb() - held_mb - static_cast<double>(r.sample_bytes) / kMiB;
  const double peak_rss_mb = std::max(setup_peak_mb, serving_peak_mb);
  const Snapshot after = Snapshot::Take(*stack);
  CheckGuards(*stack, r, before, after);
  *checks = MakeChecks(r, before, after);

  const double n = static_cast<double>(r.completed);
  uint64_t dev_ops = Ops(after.steg) - Ops(before.steg);
  for (size_t i = 0; i < after.cache.size(); ++i) {
    dev_ops += Ops(after.cache[i]) - Ops(before.cache[i]);
  }
  const double user_bytes = static_cast<double>(content.bytes.size());
  std::fprintf(stderr,
               "servebench: %s seed=%llu requests=%llu reads=%zu writes=%zu "
               "wall=%.2fs virtual=%.1fs\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(r.completed), r.read_us.size(),
               r.write_us.size(), r.wall_s, (r.v_end - r.v_start) / 1e3);
  std::fprintf(stderr, "servebench: window req/s:");
  for (double w : r.window_req_per_s) std::fprintf(stderr, " %.0f", w);
  std::fprintf(stderr, "\nservebench: setup s:");
  for (double t : setup_s) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, "\nservebench: program peak RSS MB: set-up %.2f, "
               "serving %.2f (benchmark held %.2f + %.2f for samples)\n",
               setup_peak_mb, serving_peak_mb, held_mb,
               static_cast<double>(r.sample_bytes) / kMiB);
  if (spec.link_faults) {
    std::fprintf(stderr, "servebench: link partitioned at request %llu, "
                 "revived at %llu\n",
                 static_cast<unsigned long long>(r.partition_step),
                 static_cast<unsigned long long>(r.revive_step));
  }
  return {
      {"setup_s", Median(setup_s)},
      {"vreq_per_s", n / ((r.v_end - r.v_start) / 1e3)},
      {"vlat_p50_ms", Percentile(r.vlat_ms, 50)},
      {"vlat_p99_ms", Percentile(r.vlat_ms, 99)},
      {"dev_io_per_req", static_cast<double>(dev_ops) / n},
      {"space_per_user_byte",
       static_cast<double>(stack->OccupiedBytes()) / user_bytes},
      {"peak_rss_mb", peak_rss_mb},
  };
}

/// Span names with a per-layer row in BENCHMARK.json (the report on
/// stderr lists every name the trace holds).
const char* const kSpanRows[] = {
    "bench.request",     "bench.device.steg",  "bench.device.cache",
    "dispatch.commit",   "dispatch.pump",      "agent.read_group",
    "agent.write_group", "store.scan",         "store.reorder_step",
    "io.drain",          "io.drain_all",
};

/// Requests in the traced pass at most (~8 trace events each at worst).
constexpr uint64_t kTracedRequests = 60000;

Metrics PerLayer(const Args& args, const WorkloadSpec& spec, size_t payload,
                 Checks* checks) {
  // Untraced pass: the client-side wall-clock numbers and the baseline of
  // the trace overhead. Its outputs are checked and its guards enforced
  // like the traced pass's.
  ServeOptions untraced;
  untraced.requests = Requests(args, spec) / 2;
  ServeResult base;
  Checks base_checks;
  {
    Content content(spec, args.seed, payload);
    auto stack = BuildStack(spec, args.seed, content, false, nullptr, nullptr);
    const Snapshot before = Snapshot::Take(*stack);
    base = Serve(*stack, content, args.seed, untraced);
    const Snapshot after = Snapshot::Take(*stack);
    CheckGuards(*stack, base, before, after);
    base_checks = MakeChecks(base, before, after);
  }

  // Traced pass: same seed, the same request count up to a cap that keeps
  // the in-memory trace within its capacity. The dispatcher gets a
  // registry of its own: it is sampled while serving, and a snapshot of
  // the store's registry would wait on the store lock mid-group.
  steghide::obs::Registry registry;
  steghide::obs::Registry dispatch_registry;
  steghide::obs::TraceLog log(1u << 19);
  Content content(spec, args.seed, payload);
  auto stack = BuildStack(spec, args.seed, content, /*timed=*/true, &registry,
                          &log);
  ServeOptions traced = untraced;
  traced.requests = std::min<uint64_t>(untraced.requests, kTracedRequests);
  traced.registry = &dispatch_registry;
  traced.trace = &log;
  const Snapshot before = Snapshot::Take(*stack);
  const ServeResult r = Serve(*stack, content, args.seed, traced);
  const Snapshot after = Snapshot::Take(*stack);
  CheckGuards(*stack, r, before, after);
  // A full trace log drops events, and the span rows would undercount.
  if (log.dropped() > 0) {
    std::fprintf(stderr, "servebench: guard failed: trace log dropped %llu "
                 "events\n", static_cast<unsigned long long>(log.dropped()));
    std::exit(2);
  }
  *checks = MakeChecks(r, before, after);
  checks->attempted += base_checks.attempted;
  checks->failed += base_checks.failed;
  checks->wrong_reads += base_checks.wrong_reads;
  checks->stale_reads += base_checks.stale_reads;
  if (!base_checks.vlat_consistent()) {  // report the pass that disagrees
    checks->vlat_p50_ms = base_checks.vlat_p50_ms;
    checks->dispatcher_p50_ms = base_checks.dispatcher_p50_ms;
  }

  const SpanSummary spans = SummarizeSpans(log);
  auto row = [&](const char* name) {
    auto it = spans.rows.find(name);
    return it == spans.rows.end() ? SpanRow{} : it->second;
  };
  const double n = static_cast<double>(r.completed);
  const double kreq = n / 1e3;
  const steghide::agent::DispatcherStats& d = r.dstats;
  const steghide::oblivious::ObliviousStats st = stack->agent->store().stats();

  Metrics m;
  auto add = [&m](std::string name, double v) {
    m.emplace_back(std::move(name), std::isfinite(v) ? v : 0.0);
  };

  // Client side (untraced pass): wall-clock and CPU cost as the clients
  // see them. They follow the host's speed, so they are recorded rows,
  // not bounded end-to-end metrics.
  add("client.wall_req_per_s", Median(base.window_req_per_s));
  add("client.cpu_us_per_req", Median(base.window_cpu_us_per_req));
  add("client.wall_read_p50_us",
      WindowedPercentile(base.read_us, base.read_done_s, base.wall_s, 50));
  add("client.wall_read_p90_us",
      WindowedPercentile(base.read_us, base.read_done_s, base.wall_s, 90));
  add("client.wall_write_p50_us",
      WindowedPercentile(base.write_us, base.write_done_s, base.wall_s, 50));
  add("client.wall_write_p99_us",
      WindowedPercentile(base.write_us, base.write_done_s, base.wall_s, 99));
  add("client.wall_read_p99_us",
      WindowedPercentile(base.read_us, base.read_done_s, base.wall_s, 99));
  add("client.read_samples", static_cast<double>(base.read_us.size()));
  add("client.write_samples", static_cast<double>(base.write_us.size()));

  // Dispatcher.
  const SpanRow commit = row("dispatch.commit");
  const double mean_vlat =
      r.vlat_ms.empty()
          ? 0.0
          : std::accumulate(r.vlat_ms.begin(), r.vlat_ms.end(), 0.0) /
                static_cast<double>(r.vlat_ms.size());
  add("dispatch.groups_per_kreq", static_cast<double>(d.groups) / kreq);
  add("dispatch.mean_fill", d.MeanFill());
  add("dispatch.read_mean_fill",
      Ratio(static_cast<double>(d.read_requests),
            static_cast<double>(d.read_groups)));
  add("dispatch.write_mean_fill",
      Ratio(static_cast<double>(d.write_requests),
            static_cast<double>(d.write_groups)));
  add("dispatch.queue_depth_p99", Percentile(r.queue_depth_samples, 99));
  add("dispatch.queue_wait_vms",
      mean_vlat - Ratio(commit.n_weighted_ms, commit.n_arg));
  add("dispatch.commit_wall_us_per_req", commit.wall_us / n);
  add("dispatch.pump_slices_per_kreq",
      static_cast<double>(d.maintenance_pumps) / kreq);
  add("dispatch.pump_errors", static_cast<double>(d.maintenance_pump_errors));

  // Agent.
  const SpanRow rg = row("agent.read_group");
  const SpanRow wg = row("agent.write_group");
  add("agent.read_group_wall_us", Ratio(rg.wall_us, rg.count));
  add("agent.write_group_wall_us", Ratio(wg.wall_us, wg.count));
  add("agent.update_iterations_per_write",
      Ratio(static_cast<double>(after.update.loop_iterations -
                                before.update.loop_iterations),
            static_cast<double>(d.write_requests)));

  // Reader (Figure 8(a) first-touch fetches vs cache hits).
  const double fetches = static_cast<double>(after.reader.real_fetches -
                                             before.reader.real_fetches);
  const double hits = static_cast<double>(after.reader.cache_hits -
                                          before.reader.cache_hits);
  add("reader.real_fetches_per_kreq", fetches / kreq);
  add("reader.decoy_reads_per_kreq",
      static_cast<double>(after.reader.decoy_reads -
                          before.reader.decoy_reads) /
          kreq);
  add("reader.cache_hits_per_kreq", hits / kreq);
  add("reader.miss_share", Ratio(fetches, fetches + hits));

  // Oblivious store (stats were reset when serving started).
  add("store.scan_passes_per_kreq", static_cast<double>(st.scan_passes) / kreq);
  add("store.probe_reads_per_req",
      static_cast<double>(st.level_probe_reads) / n);
  add("store.index_io_per_req", static_cast<double>(st.index_io) / n);
  add("store.reorder_reads_per_req", static_cast<double>(st.reorder_reads) / n);
  add("store.reorder_writes_per_req",
      static_cast<double>(st.reorder_writes) / n);
  add("store.reorder_steps_per_kreq",
      static_cast<double>(st.reorder_steps) / kreq);
  add("store.deferred_flushes_per_kreq",
      static_cast<double>(st.deferred_flushes) / kreq);
  add("store.retrieve_vms_per_req", st.retrieve_ms / n);
  add("store.sort_vms_per_req", st.sort_ms / n);
  add("store.stall_vms_per_req", st.stall_ms / n);
  add("store.max_stall_vms", st.max_stall_ms);
  add("store.stall_p99_vms", st.stall_p99_ms);
  add("store.scan_wall_us_per_req", row("store.scan").wall_us / n);
  add("store.reorder_step_wall_us_per_req",
      row("store.reorder_step").wall_us / n);

  // Crypto: block_codec traffic, and the scan-probe open time the store
  // measures (seal time has no timer of its own).
  add("crypto.mb_per_req",
      static_cast<double>(after.crypto.bytes - before.crypto.bytes) /
          (1024.0 * 1024.0) / n);
  add("crypto.batches_per_req",
      static_cast<double>(after.crypto.batches - before.crypto.batches) / n);
  add("crypto.open_wall_us_per_req", st.crypto_wall_ms * 1e3 / n);
  add("crypto.wall_share", st.crypto_wall_ms / 1e3 / r.wall_s);

  // I/O scheduler.
  add("io.drains_per_kreq",
      static_cast<double>(after.io.drains - before.io.drains) / kreq);
  add("io.queue_depth_p99", after.io.queue_depth_p99);
  add("io.retries", static_cast<double>(after.io.retries - before.io.retries));
  add("io.retry_exhausted", static_cast<double>(after.io.retry_exhausted -
                                                before.io.retry_exhausted));
  add("io.drain_wall_us_per_req",
      (spans.rows.count("io.drain_all") ? row("io.drain_all").wall_us
                                        : row("io.drain").wall_us) /
          n);

  // Volume: per-shard busy time (a shard is as busy as its busiest
  // mirror), join efficiency against the parallel clock, op imbalance.
  const size_t shards = std::max<size_t>(1, spec.shards);
  const size_t replicas = spec.shards > 0 ? spec.replicas : 1;
  std::vector<double> busy(shards, 0.0), ops(shards, 0.0);
  for (size_t k = 0; k < shards; ++k) {
    for (size_t rep = 0; rep < replicas; ++rep) {
      const size_t i = k * replicas + rep;
      busy[k] = std::max(busy[k],
                         after.cache[i].busy_ms - before.cache[i].busy_ms);
      ops[k] += static_cast<double>(Ops(after.cache[i]) - Ops(before.cache[i]));
    }
  }
  for (size_t k = 0; k < 4; ++k) {
    add("volume.shard" + std::to_string(k) + ".busy_vms_per_req",
        k < shards ? busy[k] / n : 0.0);
  }
  const double clock = after.cache_clock - before.cache_clock;
  add("volume.join_efficiency",
      Ratio(std::accumulate(busy.begin(), busy.end(), 0.0),
            static_cast<double>(shards) * clock));
  add("volume.ops_imbalance",
      Ratio(*std::max_element(ops.begin(), ops.end()),
            std::accumulate(ops.begin(), ops.end(), 0.0) /
                static_cast<double>(shards)));

  // Replication (summed over shards).
  steghide::storage::ReplicationStats rep{};
  double failover_p99 = 0.0;
  for (size_t k = 0; k < after.replicas.size(); ++k) {
    const auto& a = after.replicas[k];
    const auto& b = before.replicas[k];
    rep.failovers += a.failovers - b.failovers;
    rep.quarantines += a.quarantines - b.quarantines;
    rep.quorum_widened += a.quorum_widened - b.quorum_widened;
    rep.read_repairs += a.read_repairs - b.read_repairs;
    rep.repair_blocks += a.repair_blocks - b.repair_blocks;
    rep.write_quorum_failures +=
        a.write_quorum_failures - b.write_quorum_failures;
    failover_p99 = std::max(failover_p99, a.failover_ms_p99);
  }
  add("replica.failovers", static_cast<double>(rep.failovers));
  add("replica.quarantines", static_cast<double>(rep.quarantines));
  add("replica.quorum_widened", static_cast<double>(rep.quorum_widened));
  add("replica.read_repairs", static_cast<double>(rep.read_repairs));
  add("replica.repair_blocks", static_cast<double>(rep.repair_blocks));
  add("replica.write_quorum_failures",
      static_cast<double>(rep.write_quorum_failures));
  add("replica.failover_vms_p99", failover_p99);
  add("replica.stale_reads", static_cast<double>(checks->stale_reads));

  // RPC. Its wall cost per call is estimated from the shard lanes: shard
  // 0's drains carry the remote mirror's round trips, the other shards'
  // drains are the same work without them.
  const double calls = static_cast<double>(after.rpc.rpcs - before.rpc.rpcs);
  double rpc_wall_us = 0.0;
  if (spec.link_faults && calls > 0) {
    double others = 0.0;
    for (size_t k = 1; k < shards; ++k) {
      auto it = spans.lane_wall_us.find("io/shard" + std::to_string(k));
      if (it != spans.lane_wall_us.end()) others += it->second;
    }
    auto it0 = spans.lane_wall_us.find("io/shard0");
    const double lane0 = it0 == spans.lane_wall_us.end() ? 0.0 : it0->second;
    rpc_wall_us = (lane0 - others / static_cast<double>(shards - 1)) / calls;
  }
  add("rpc.calls_per_req", calls / n);
  add("rpc.bytes_per_req",
      static_cast<double>(after.rpc.bytes_sent + after.rpc.bytes_received -
                          before.rpc.bytes_sent - before.rpc.bytes_received) /
          n);
  add("rpc.retries",
      static_cast<double>(after.rpc.rpc_retries - before.rpc.rpc_retries));
  add("rpc.timeouts",
      static_cast<double>(after.rpc.timeouts - before.rpc.timeouts));
  add("rpc.reconnects",
      static_cast<double>(after.rpc.reconnects - before.rpc.reconnects));
  add("rpc.partitioned_frames",
      static_cast<double>(after.partitioned_frames - before.partitioned_frames));
  add("rpc.wall_us_per_call", rpc_wall_us);

  // Devices: the StegFS spindle and the cache spindles (all replicas).
  auto device = [&](const std::string& name,
                    const steghide::storage::IoStats& io,
                    const TimedDevice* timed) {
    add("device." + name + ".reads_per_req", static_cast<double>(io.reads) / n);
    add("device." + name + ".writes_per_req",
        static_cast<double>(io.writes) / n);
    add("device." + name + ".busy_vms_per_req", io.busy_ms / n);
    add("device." + name + ".sequential_share",
        Ratio(static_cast<double>(io.sequential),
              static_cast<double>(io.sequential + io.random)));
    add("device." + name + ".wall_us_per_call",
        timed == nullptr ? 0.0
                         : Ratio(timed->wall_us(),
                                 static_cast<double>(timed->calls())));
  };
  auto delta = [](const steghide::storage::IoStats& a,
                  const steghide::storage::IoStats& b) {
    steghide::storage::IoStats d;
    d.reads = a.reads - b.reads;
    d.writes = a.writes - b.writes;
    d.sequential = a.sequential - b.sequential;
    d.random = a.random - b.random;
    d.busy_ms = a.busy_ms - b.busy_ms;
    return d;
  };
  device("steg", delta(after.steg, before.steg), stack->steg_timed.get());
  steghide::storage::IoStats cache_io;
  for (size_t i = 0; i < after.cache.size(); ++i) {
    const auto d = delta(after.cache[i], before.cache[i]);
    cache_io.reads += d.reads;
    cache_io.writes += d.writes;
    cache_io.sequential += d.sequential;
    cache_io.random += d.random;
    cache_io.busy_ms += d.busy_ms;
  }
  device("cache", cache_io, stack->cache_timed.get());

  // Observability: tracing cost per request against the untraced pass
  // (median window throughput of each pass, robust to host stalls).
  add("obs.trace_overhead_pct",
      100.0 * (Ratio(Median(base.window_req_per_s),
                     Median(r.window_req_per_s)) -
               1.0));
  add("obs.dropped_spans", static_cast<double>(log.dropped()));

  // Span rows: the benchmark's request spans (submit to ready, on the
  // driver thread, so self time is the whole span) and every span the
  // trace log holds, per request.
  std::map<std::string, SpanRow> rows = spans.rows;
  SpanRow& request = rows["bench.request"];
  request.count = r.read_us.size() + r.write_us.size();
  request.wall_us =
      std::accumulate(r.read_us.begin(), r.read_us.end(), 0.0) +
      std::accumulate(r.write_us.begin(), r.write_us.end(), 0.0);
  request.self_us = request.wall_us;
  request.virtual_ms = mean_vlat * n;
  for (const char* name : kSpanRows) {
    const SpanRow& s = rows[name];
    const std::string p = std::string("span.") + name;
    add(p + ".count", static_cast<double>(s.count));
    add(p + ".wall_us_per_req", s.wall_us / n);
    add(p + ".self_us_per_req", s.self_us / n);
    add(p + ".vms_per_req", s.virtual_ms / n);
  }
  std::fprintf(stderr, "servebench: span rows (%s, %llu requests)\n",
               spec.name.c_str(), static_cast<unsigned long long>(r.completed));
  std::fprintf(stderr, "  %-22s %10s %12s %12s %12s\n", "span", "count",
               "wall_us/req", "self_us/req", "vms/req");
  for (const auto& [name, s] : rows) {
    std::fprintf(stderr, "  %-22s %10llu %12.3f %12.3f %12.4f\n", name.c_str(),
                 static_cast<unsigned long long>(s.count), s.wall_us / n,
                 s.self_us / n, s.virtual_ms / n);
  }
  return m;
}

void PrintJson(const Args& args, const Checks& c, const Metrics& metrics) {
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"attempted\": %llu, \"failed\": %llu, \"wrong_reads\": %llu, "
      "\"stale_reads\": %llu, \"vlat_p50_ms\": %.17g, "
      "\"dispatcher_p50_ms\": %.17g, \"vlat_consistent\": %s, "
      "\"metrics\": {",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, static_cast<unsigned long long>(c.attempted),
      static_cast<unsigned long long>(c.failed),
      static_cast<unsigned long long>(c.wrong_reads),
      static_cast<unsigned long long>(c.stale_reads), c.vlat_p50_ms,
      c.dispatcher_p50_ms, c.vlat_consistent() ? "true" : "false");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second);
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  const Args args = ParseArgs(argc, argv);
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, args.tiny, &spec)) {
    Usage("unknown workload");
  }
  const size_t payload =
      steghide::stegfs::BlockCodec(steghide::storage::kDefaultBlockSize)
          .payload_size();
  Checks checks;
  const Metrics metrics = args.trace != 0
                              ? PerLayer(args, spec, payload, &checks)
                              : EndToEnd(args, spec, payload, &checks);
  PrintJson(args, checks, metrics);
  return 0;
}
