#ifndef SERVEBENCH_TIMED_DEVICE_H_
#define SERVEBENCH_TIMED_DEVICE_H_

#include <chrono>
#include <cstdint>
#include <span>

#include "obs/trace_log.h"
#include "storage/block_device.h"

namespace servebench {

/// Pass-through BlockDevice decorator the benchmark puts on top of a
/// volume it composes itself (never on the sharded cache device, whose
/// dynamic type the store inspects). Counts calls and their wall time,
/// and records one "bench.device.<volume>" span per call into `trace`
/// when that log is enabled. Every call, vectored ones included, is
/// forwarded unchanged, so the layers below see the same call sequence
/// as without the decorator.
class TimedDevice : public steghide::storage::BlockDevice {
 public:
  /// `span_name` must be a string literal (the trace log keeps the
  /// pointer). `backing` and `trace` are borrowed; `trace` may be null.
  TimedDevice(steghide::storage::BlockDevice* backing, const char* span_name,
              steghide::obs::TraceLog* trace)
      : backing_(backing), span_name_(span_name), trace_(trace) {
    if (trace_ != nullptr) track_ = trace_->RegisterTrack(span_name);
  }

  using BlockDevice::ReadBlock;
  using BlockDevice::ReadBlocks;
  using BlockDevice::WriteBlock;

  steghide::Status ReadBlock(uint64_t block_id, uint8_t* out) override {
    return Timed([&] { return backing_->ReadBlock(block_id, out); });
  }
  steghide::Status WriteBlock(uint64_t block_id,
                              const uint8_t* data) override {
    return Timed([&] { return backing_->WriteBlock(block_id, data); });
  }
  steghide::Status ReadBlocks(std::span<const uint64_t> ids,
                              uint8_t* out) override {
    return Timed([&] { return backing_->ReadBlocks(ids, out); });
  }
  steghide::Status WriteBlocks(std::span<const uint64_t> ids,
                               const uint8_t* data) override {
    return Timed([&] { return backing_->WriteBlocks(ids, data); });
  }
  uint64_t num_blocks() const override { return backing_->num_blocks(); }
  size_t block_size() const override { return backing_->block_size(); }
  steghide::Status Flush() override { return backing_->Flush(); }

  uint64_t calls() const { return calls_; }
  double wall_us() const { return static_cast<double>(wall_ns_) / 1e3; }

 private:
  template <typename Fn>
  steghide::Status Timed(Fn&& fn) {
    steghide::obs::ScopedSpan span(trace_, span_name_, track_);
    const auto start = std::chrono::steady_clock::now();
    steghide::Status status = fn();
    wall_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    ++calls_;
    return status;
  }

  steghide::storage::BlockDevice* backing_;
  const char* span_name_;
  steghide::obs::TraceLog* trace_;
  uint32_t track_ = 0;
  // Single issuer (block_device.h contract): plain counters suffice; they
  // are read after the serving phase has joined.
  uint64_t calls_ = 0;
  uint64_t wall_ns_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_TIMED_DEVICE_H_
