#ifndef SERVEBENCH_STACK_H_
#define SERVEBENCH_STACK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "agent/oblivious_agent.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "storage/mem_block_device.h"
#include "storage/sim_device.h"
#include "storage/volume_set.h"
#include "timed_device.h"

namespace servebench {

/// One named workload: the stack shape and the closed-loop traffic mix.
struct WorkloadSpec {
  std::string name;
  uint64_t clients = 0;      // concurrent sessions, one request each
  uint64_t file_blocks = 0;  // blocks in each client's own file
  uint64_t buffer = 0;       // store buffer B = dispatcher max batch
  bool prewarm = false;      // read every block once during setup
  double write_share = 0.0;  // share of requests that are writes
  double zipf_theta = 0.0;   // block skew within a file; 0 = uniform
  size_t shards = 0;         // cache shards K; 0 = one volume, no VolumeSet
  size_t replicas = 1;       // mirrors per shard (shards > 0 only)
  bool link_faults = false;  // partition + revive shard 0's remote mirror
  /// Requests per --seconds: the workload's closed-loop rate on the 4-vCPU
  /// reference host, rounded down, so a run takes about --seconds there.
  uint64_t requests_per_second = 0;
};

/// The three workloads at full size, or at a size that runs in a second
/// (`tiny`, for the self-test). Returns false for an unknown name.
bool LookupWorkload(const std::string& name, bool tiny, WorkloadSpec* spec);

/// Expected content of every client's file: the generator's copy, which
/// the serving loop updates on each acknowledged write and compares every
/// read against.
struct Content {
  Content(const WorkloadSpec& spec, uint64_t seed, size_t payload);
  uint8_t* block(uint64_t client, uint64_t b) {
    return bytes.data() + (client * file_blocks + b) * payload;
  }
  /// Deterministic bytes of (seed, client, block, version).
  void Fill(uint64_t client, uint64_t b, uint64_t version,
            uint8_t* out) const;

  uint64_t seed;
  uint64_t file_blocks;
  size_t payload;
  std::vector<uint8_t> bytes;
};

/// The full serving stack of one run: StegFS partition on its own
/// simulated spindle, the oblivious cache on one simulated volume or on a
/// K x R VolumeSet, the agent, and one populated file per client.
/// Members are declared so that teardown runs top-down.
struct Stack {
  WorkloadSpec spec;
  std::unique_ptr<steghide::storage::MemBlockDevice> steg_mem;
  std::unique_ptr<steghide::storage::SimBlockDevice> steg_sim;
  std::unique_ptr<steghide::storage::MemBlockDevice> cache_mem;
  std::unique_ptr<steghide::storage::SimBlockDevice> cache_sim;
  std::unique_ptr<steghide::storage::VolumeSet> volumes;
  /// Benchmark-owned timing decorators (traced runs only; null otherwise).
  std::unique_ptr<TimedDevice> steg_timed;
  std::unique_ptr<TimedDevice> cache_timed;
  std::unique_ptr<steghide::stegfs::StegFsCore> core;
  std::unique_ptr<steghide::agent::ObliviousAgent> agent;
  std::vector<steghide::agent::ObliviousAgent::FileId> files;
  /// Bytes of the in-memory device images (every volume and replica),
  /// which the benchmark holds resident for the simulated disks.
  uint64_t provisioned_bytes = 0;

  /// Virtual clock: StegFS spindle plus the cache (its parallel clock
  /// when sharded), as the repository's dispatcher benches define it.
  double clock_ms() const;
  /// Every simulated spindle of the cache, replicas included.
  std::vector<steghide::storage::SimBlockDevice*> cache_sims();
  /// Device bytes the program occupies: each client file's data, indirect
  /// and header blocks on the StegFS partition, plus every cache block
  /// (all volumes and replicas) it has ever written. Cache images start
  /// zeroed and sealed blocks never are, so a written block is a non-zero
  /// one. Read with the stack idle.
  uint64_t OccupiedBytes();
};

/// Formats, populates (and, with spec.prewarm, prewarms) a stack whose
/// files hold `content`. With `timed`, the StegFS volume and a
/// single-volume cache get TimedDevice decorators; `registry` and `trace`
/// (both optional) are handed to the store. Aborts the process on any
/// setup failure: a benchmark on a half-built stack measures nothing.
std::unique_ptr<Stack> BuildStack(const WorkloadSpec& spec, uint64_t seed,
                                  Content& content, bool timed,
                                  steghide::obs::Registry* registry,
                                  steghide::obs::TraceLog* trace);

/// splitmix64: the benchmark's only source of pseudo-randomness.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a 64-bit draw.
inline double Unit(uint64_t draw) {
  return static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace servebench

#endif  // SERVEBENCH_STACK_H_
