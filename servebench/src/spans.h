#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>

#include "obs/trace_log.h"

namespace servebench {

/// Totals of one span name over a traced serving phase.
struct SpanRow {
  uint64_t count = 0;
  double wall_us = 0.0;
  /// Wall time not covered by child spans.
  double self_us = 0.0;
  double virtual_ms = 0.0;
  /// Sum of the span's "n" argument (group size), where it has one.
  double n_arg = 0.0;
  /// Sum over spans of n * virtual duration (request-weighted service).
  double n_weighted_ms = 0.0;
};

struct SpanSummary {
  std::map<std::string, SpanRow> rows;
  /// Wall time of every lane track ("io/shard0", ...), summed.
  std::map<std::string, double> lane_wall_us;
};

/// Folds the complete-span events of `log` by name. Nesting is rebuilt
/// from the log itself: spans are appended when they end, so on the one
/// serving thread a span's children are the not-yet-claimed spans just
/// before it whose virtual interval it contains. Spans on per-shard lane
/// tracks ("<track>/shard<k>") run in parallel on the shard threads; they
/// are counted as leaves and not subtracted from the span that joins them.
SpanSummary SummarizeSpans(const steghide::obs::TraceLog& log);

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
