#ifndef SERVEBENCH_SERVE_H_
#define SERVEBENCH_SERVE_H_

#include <cstdint>
#include <vector>

#include "agent/dispatch/request_dispatcher.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "stack.h"

namespace servebench {

struct ServeOptions {
  /// Requests to serve. A fixed count, not a wall-clock bound, so that
  /// what a run measures does not depend on the host's speed.
  uint64_t requests = 0;
  /// Instruments for the dispatcher (optional). With a registry, a
  /// sampler thread reads the dispatcher's queue-depth gauge every 10 ms,
  /// so it should hold nothing whose snapshot takes a component lock.
  steghide::obs::Registry* registry = nullptr;
  steghide::obs::TraceLog* trace = nullptr;
};

struct ServeResult {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t wrong_reads = 0;
  /// Wall seconds from the first submit to the last completion.
  double wall_s = 0.0;
  /// Throughput and CPU cost per request of each of ten equal slices
  /// of the serving phase; their medians shrug off short host hiccups.
  std::vector<double> window_req_per_s;
  std::vector<double> window_cpu_us_per_req;
  /// Virtual clock at the first submit, and after the re-order tail left
  /// by the serving phase was drained.
  double v_start = 0.0;
  double v_end = 0.0;
  /// Per-request virtual latency (the dispatcher's own arrival and group
  /// completion stamps) and per-request wall latency, submit to ready.
  std::vector<double> vlat_ms;
  std::vector<double> read_us;
  std::vector<double> write_us;
  /// Seconds into the serving phase at which each read/write completed.
  std::vector<double> read_done_s;
  std::vector<double> write_done_s;
  steghide::agent::DispatcherStats dstats;
  std::vector<double> queue_depth_samples;
  /// Bytes the benchmark's own per-request records (the sample arrays
  /// above and the serving loop's stamps) held at their largest; part of
  /// the process's peak RSS that is not the program's.
  uint64_t sample_bytes = 0;
  /// Link-fault schedule as it happened (request index of each step).
  uint64_t partition_step = 0;
  uint64_t revive_step = 0;
  bool repair_completed = false;
};

/// Runs the closed loop: every client is one dispatcher Session with one
/// AsyncRead/AsyncWrite outstanding, driven from the calling thread. Op
/// kind and block come from (seed, client, op index); every read is
/// compared against `content`, which every acknowledged write updates.
/// With spec.link_faults, the link to shard 0's remote mirror is
/// partitioned after 30-36% of the requests and revived (heal +
/// ReviveAndRepair on the dispatcher's I/O thread, repair pumped through
/// its idle-maintenance hook) after 63-70%, both points drawn from the
/// seed; serving continues past `requests` until the repair completed.
ServeResult Serve(Stack& stack, Content& content, uint64_t seed,
                  const ServeOptions& options);

/// Nearest-rank percentile (q in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// The q-th percentile of `values` within each of ten equal slices of
/// [0, span_s) (by `done_s`), and the median of those ten.
double WindowedPercentile(const std::vector<double>& values,
                          const std::vector<double>& done_s, double span_s,
                          double q);

}  // namespace servebench

#endif  // SERVEBENCH_SERVE_H_
