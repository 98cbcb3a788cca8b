#include "serve.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <thread>

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;
using steghide::agent::RequestDispatcher;

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Zipf(theta) over ranks 0..n-1 as a cumulative table.
std::vector<double> ZipfCdf(uint64_t n, double theta) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (uint64_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf[r] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

/// One client's request in flight.
struct Slot {
  std::unique_ptr<RequestDispatcher::Session> session;
  bool is_write = false;
  uint64_t block = 0;
  uint64_t next_op = 0;
  Clock::time_point submitted;
  std::future<steghide::Result<steghide::Bytes>> read;
  std::future<steghide::Status> write;
  steghide::Bytes data;  // the write's payload, kept for the expected copy

  bool Ready() const {
    return (is_write ? write.wait_for(std::chrono::seconds(0))
                     : read.wait_for(std::chrono::seconds(0))) ==
           std::future_status::ready;
  }
  void Wait() const {
    if (is_write) {
      write.wait();
    } else {
      read.wait();
    }
  }
};

/// Bytes held by the elements of `v`.
template <typename T>
uint64_t Bytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t index = std::min(
      values.size() - 1,
      static_cast<size_t>(q / 100.0 * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double WindowedPercentile(const std::vector<double>& values,
                          const std::vector<double>& done_s, double span_s,
                          double q) {
  constexpr int kWindows = 10;
  std::vector<std::vector<double>> windows(kWindows);
  for (size_t i = 0; i < values.size(); ++i) {
    const int w = static_cast<int>(done_s[i] / span_s * kWindows);
    windows[std::clamp(w, 0, kWindows - 1)].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (auto& window : windows) {
    if (!window.empty()) per_window.push_back(Percentile(std::move(window), q));
  }
  return Percentile(std::move(per_window), 50);
}

ServeResult Serve(Stack& stack, Content& content, uint64_t seed,
                  const ServeOptions& options) {
  const WorkloadSpec& spec = stack.spec;
  const size_t payload = content.payload;
  const double partition_at = 0.30 + 0.06 * Unit(Mix(seed ^ 0x70617274ULL));
  const double revive_at = 0.63 + 0.07 * Unit(Mix(seed ^ 0x72657669ULL));
  const std::vector<double> zipf = spec.zipf_theta > 0.0
                                       ? ZipfCdf(spec.file_blocks,
                                                 spec.zipf_theta)
                                       : std::vector<double>{};
  ServeResult result;
  // Arrival stamps by dispatcher sequence number; completion stamps are
  // appended by the dispatcher's worker through the clock hook below.
  std::vector<double> arrive_v;
  // Committed groups in order: requests served before the group, and its
  // completion stamp (virtual ms).
  std::vector<std::pair<uint64_t, double>> commits;
  std::vector<uint8_t> unknown(spec.clients * spec.file_blocks, 0);
  std::vector<uint64_t> versions(spec.clients * spec.file_blocks, 0);
  // Room for every per-request record up front (with slack for the repair
  // tail): growing them would copy, and the copies would count against
  // the program's peak memory.
  const uint64_t room = options.requests + options.requests / 8 + spec.clients;
  for (auto* v : {&result.read_us, &result.write_us, &result.read_done_s,
                  &result.write_done_s, &result.vlat_ms, &arrive_v}) {
    v->reserve(room);
  }
  commits.reserve(room);

  // Link-fault plumbing: revive runs on the dispatcher's I/O thread (the
  // sharded device's single issuer), requested by the driver.
  std::atomic<bool> revive_requested{false};
  bool revived = false;

  const std::thread::id driver = std::this_thread::get_id();
  double last_arrive = 0.0;
  RequestDispatcher* dispatcher_ptr = nullptr;

  steghide::agent::DispatcherOptions dopts;
  dopts.max_batch = spec.buffer;
  // Wide window: group composition then follows the fill target
  // (min(open sessions, B)), not host scheduling jitter.
  dopts.commit_window = std::chrono::milliseconds(50);
  // The dispatcher samples its clock at each submit (on the submitting
  // thread) and once per committed group (on its worker). Recording both
  // gives every request's exact virtual latency, unquantized by the
  // dispatcher's latency histogram.
  dopts.clock_fn = [&]() -> double {
    const double v = stack.clock_ms();
    if (std::this_thread::get_id() == driver) {
      last_arrive = v;
    } else {
      commits.emplace_back(dispatcher_ptr->stats().requests, v);
    }
    return v;
  };
  dopts.registry = options.registry;
  dopts.trace = options.trace;
  if (spec.link_faults) {
    dopts.extra_maintenance =
        [&](uint64_t budget) -> steghide::Result<bool> {
      if (revive_requested.load(std::memory_order_acquire) && !revived) {
        STEGHIDE_RETURN_IF_ERROR(stack.volumes->ReviveAndRepair(0, 1));
        revived = true;
      }
      if (!stack.volumes->repair_pending()) return false;
      return stack.volumes->PumpRepair(budget);
    };
  }

  stack.agent->store().ResetStats();
  if (options.trace != nullptr) {
    options.trace->Clear();
    options.trace->set_enabled(true);
  }
  RequestDispatcher dispatcher(stack.agent.get(), dopts);
  dispatcher_ptr = &dispatcher;
  std::vector<Slot> slots(spec.clients);
  for (Slot& slot : slots) slot.session = dispatcher.OpenSession();

  const uint64_t repairs_before =
      spec.link_faults
          ? stack.volumes->replicated(0)->stats().repairs_completed
          : 0;
  bool partitioned = false;
  uint64_t submitted = 0;

  auto submit = [&](uint64_t c) {
    Slot& slot = slots[c];
    const uint64_t op = slot.next_op++;
    const uint64_t draw = Mix(seed ^ Mix(c) ^ Mix(op ^ 0x6f70ULL));
    const uint64_t pick = Mix(draw);
    slot.is_write = Unit(draw) < spec.write_share;
    if (zipf.empty()) {
      slot.block = pick % spec.file_blocks;
    } else {
      const uint64_t rank = static_cast<uint64_t>(
          std::lower_bound(zipf.begin(), zipf.end(), Unit(pick)) -
          zipf.begin());
      // Each client's hot spot sits at its own offset in its file.
      slot.block = (std::min(rank, spec.file_blocks - 1) + Mix(seed ^ c)) %
                   spec.file_blocks;
    }
    const uint64_t offset = slot.block * payload;
    ++submitted;
    slot.submitted = Clock::now();
    if (slot.is_write) {
      const uint64_t at = c * spec.file_blocks + slot.block;
      slot.data.resize(payload);
      content.Fill(c, slot.block, versions[at] + 1, slot.data.data());
      slot.write =
          slot.session->AsyncWrite(stack.files[c], offset, slot.data);
    } else {
      slot.read = slot.session->AsyncRead(stack.files[c], offset, payload);
    }
    arrive_v.push_back(last_arrive);
  };

  // The dispatcher's queue-depth gauge is sampled off the serving path: a
  // registry snapshot expands every histogram, too slow for the loop.
  std::atomic<bool> sampling{options.registry != nullptr};
  std::thread sampler;
  if (sampling.load()) {
    sampler = std::thread([&] {
      while (sampling.load(std::memory_order_relaxed)) {
        const auto snap = options.registry->Snapshot();
        const auto it = snap.find("dispatcher.queue_depth");
        if (it != snap.end()) result.queue_depth_samples.push_back(it->second);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  const auto start = Clock::now();
  const double cpu_start = CpuSeconds();
  result.v_start = stack.clock_ms();
  // Clients in submission order; the dispatcher serves FIFO prefixes.
  std::deque<uint64_t> fifo;
  for (uint64_t c = 0; c < spec.clients && c < options.requests; ++c) {
    submit(c);
    fifo.push_back(c);
  }
  // Serving outlasts its bound until the revived mirror is repaired,
  // but never past this much wall time.
  constexpr double kRepairLimitSeconds = 120.0;
  Clock::time_point last_ready = start;
  std::vector<uint64_t> ready;
  // (elapsed s, completed, CPU s) at every completion wake.
  struct Sample {
    double t;
    uint64_t completed;
    double cpu;
  };
  std::vector<Sample> samples{{0.0, 0, cpu_start}};
  samples.reserve(room);
  while (!fifo.empty()) {
    slots[fifo.front()].Wait();
    const auto now = Clock::now();
    last_ready = now;
    ready.clear();
    std::deque<uint64_t> waiting;
    for (const uint64_t c : fifo) {
      if (slots[c].Ready()) {
        ready.push_back(c);
      } else {
        waiting.push_back(c);
      }
    }
    fifo.swap(waiting);

    const double elapsed = Seconds(start, now);
    samples.push_back({elapsed, result.completed + ready.size(), CpuSeconds()});
    const double progress = static_cast<double>(submitted) /
                            static_cast<double>(options.requests);
    if (spec.link_faults) {
      if (!partitioned && progress >= partition_at) {
        stack.volumes->PartitionReplica(0, 1);
        partitioned = true;
        result.partition_step = submitted;
      }
      if (partitioned && !revive_requested.load() &&
          progress >= revive_at) {
        revive_requested.store(true, std::memory_order_release);
        result.revive_step = submitted;
      }
      result.repair_completed =
          stack.volumes->replicated(0)->stats().repairs_completed >
          repairs_before;
    }
    const bool owe_repair = spec.link_faults && !result.repair_completed &&
                            elapsed < kRepairLimitSeconds;

    for (const uint64_t c : ready) {
      Slot& slot = slots[c];
      const double wall_us =
          std::chrono::duration<double, std::micro>(now - slot.submitted)
              .count();
      const uint64_t at = c * spec.file_blocks + slot.block;
      ++result.completed;
      if (slot.is_write) {
        result.write_us.push_back(wall_us);
        result.write_done_s.push_back(elapsed);
        if (slot.write.get().ok()) {
          ++versions[at];
          std::memcpy(content.block(c, slot.block), slot.data.data(),
                      payload);
        } else {
          ++result.failed;
          unknown[at] = 1;  // the block may hold either version now
        }
      } else {
        result.read_us.push_back(wall_us);
        result.read_done_s.push_back(elapsed);
        auto data = slot.read.get();
        if (!data.ok()) {
          ++result.failed;
        } else if (!unknown[at] &&
                   (data->size() != payload ||
                    std::memcmp(data->data(), content.block(c, slot.block),
                                payload) != 0)) {
          ++result.wrong_reads;
        }
      }
      if (submitted < options.requests || owe_repair) {
        submit(c);
        fifo.push_back(c);
      } else {
        // Closing the session lowers the dispatcher's fill target, so the
        // last partial groups commit at once instead of lingering.
        slot.session.reset();
      }
    }
  }
  sampling.store(false);
  if (sampler.joinable()) sampler.join();
  result.wall_s = Seconds(start, last_ready);
  result.attempted = submitted;
  constexpr int kWindows = 10;
  for (int w = 0; w < kWindows; ++w) {
    auto at = [&](double t) {
      return *std::lower_bound(
          samples.begin(), samples.end() - 1, t,
          [](const Sample& s, double v) { return s.t < v; });
    };
    const Sample a = at(result.wall_s * w / kWindows);
    const Sample b = at(result.wall_s * (w + 1) / kWindows);
    if (b.completed <= a.completed || b.t <= a.t) continue;
    const double n = static_cast<double>(b.completed - a.completed);
    result.window_req_per_s.push_back(n / (b.t - a.t));
    result.window_cpu_us_per_req.push_back((b.cpu - a.cpu) * 1e6 / n);
  }
  for (Slot& slot : slots) slot.session.reset();
  dispatcher.Stop();
  if (options.trace != nullptr) options.trace->set_enabled(false);
  result.dstats = dispatcher.stats();

  // Charge the re-order tail the serving phase left behind to its
  // virtual bill, as the repository's dispatcher benches do.
  for (bool more = true; more;) {
    if (auto st = stack.agent->store().StepReorder(1u << 20, &more);
        !st.ok()) {
      std::fprintf(stderr, "servebench: re-order tail failed: %s\n",
                   st.ToString().c_str());
      std::exit(4);
    }
  }
  result.v_end = stack.clock_ms();

  // Each request completes with the first group whose prefix covers its
  // sequence number.
  for (uint64_t seq = 0; seq < arrive_v.size(); ++seq) {
    auto it = std::upper_bound(
        commits.begin(), commits.end(), seq,
        [](uint64_t s, const std::pair<uint64_t, double>& commit) {
          return s < commit.first;
        });
    if (it == commits.begin()) continue;
    result.vlat_ms.push_back(std::prev(it)->second - arrive_v[seq]);
  }
  result.sample_bytes = Bytes(result.read_us) + Bytes(result.write_us) +
                        Bytes(result.read_done_s) +
                        Bytes(result.write_done_s) + Bytes(result.vlat_ms) +
                        Bytes(arrive_v) + Bytes(commits) + Bytes(samples) +
                        Bytes(unknown) + Bytes(versions);
  return result;
}

}  // namespace servebench
