#include "spans.h"

#include <vector>

namespace servebench {

SpanSummary SummarizeSpans(const steghide::obs::TraceLog& log) {
  using steghide::obs::TraceEvent;
  const std::vector<std::string> tracks = log.tracks();
  const std::vector<TraceEvent> events = log.events();
  std::vector<bool> lane(tracks.size(), false);
  for (size_t t = 0; t < tracks.size(); ++t) {
    lane[t] = tracks[t].find("/shard") != std::string::npos;
  }

  SpanSummary summary;
  std::map<std::string, SpanRow>& rows = summary.rows;
  // Spans still waiting for their parent, innermost last.
  std::vector<const TraceEvent*> open;
  constexpr double kEps = 1e-9;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEvent::Kind::kSpan) continue;
    SpanRow& row = rows[e.label()];
    const double wall = static_cast<double>(e.wall_us);
    ++row.count;
    row.wall_us += wall;
    row.virtual_ms += e.dur_ms;
    for (uint8_t a = 0; a < e.num_args; ++a) {
      if (std::string(e.args[a].key) == "n") {
        row.n_arg += static_cast<double>(e.args[a].value);
        row.n_weighted_ms += static_cast<double>(e.args[a].value) * e.dur_ms;
      }
    }
    if (e.track < lane.size() && lane[e.track]) {
      row.self_us += wall;
      summary.lane_wall_us[tracks[e.track]] += wall;
      continue;
    }
    double covered = 0.0;
    while (!open.empty()) {
      const TraceEvent& child = *open.back();
      const bool inside = child.ts_ms >= e.ts_ms - kEps &&
                          child.ts_ms + child.dur_ms <=
                              e.ts_ms + e.dur_ms + kEps &&
                          child.wall_us <= e.wall_us;
      if (!inside) break;
      covered += static_cast<double>(child.wall_us);
      open.pop_back();
    }
    row.self_us += wall - covered;
    open.push_back(&e);
  }
  return summary;
}

}  // namespace servebench
