#include "stack.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "stegfs/stegfs_core.h"

namespace servebench {
namespace {

using steghide::storage::MemBlockDevice;
using steghide::storage::SimBlockDevice;
using steghide::storage::VolumeSet;

[[noreturn]] void SetupFailed(const char* what, const steghide::Status& s) {
  std::fprintf(stderr, "servebench: setup failed at %s: %s\n", what,
               s.ToString().c_str());
  std::exit(3);
}

}  // namespace

bool LookupWorkload(const std::string& name, bool tiny, WorkloadSpec* spec) {
  WorkloadSpec w;
  w.name = name;
  if (name == "read_hot") {
    w.clients = tiny ? 16 : 128;
    w.file_blocks = tiny ? 8 : 16;
    w.prewarm = true;
    w.requests_per_second = 20000;
  } else if (name == "update_cold") {
    w.clients = tiny ? 16 : 128;
    w.file_blocks = tiny ? 16 : 64;
    w.write_share = 0.5;
    w.zipf_theta = 0.99;
    w.requests_per_second = 16000;
  } else if (name == "read_sharded_rpc") {
    w.clients = tiny ? 32 : 256;
    w.file_blocks = tiny ? 8 : 16;
    w.prewarm = true;
    w.write_share = 0.1;
    w.shards = 4;
    w.replicas = 2;
    w.link_faults = true;
    w.requests_per_second = 12000;
  } else {
    return false;
  }
  w.buffer = tiny ? 16 : 128;
  *spec = w;
  return true;
}

Content::Content(const WorkloadSpec& spec, uint64_t seed_in,
                 size_t payload_in)
    : seed(seed_in),
      file_blocks(spec.file_blocks),
      payload(payload_in),
      bytes(spec.clients * spec.file_blocks * payload_in) {
  for (uint64_t c = 0; c < spec.clients; ++c) {
    for (uint64_t b = 0; b < file_blocks; ++b) Fill(c, b, 0, block(c, b));
  }
}

void Content::Fill(uint64_t client, uint64_t b, uint64_t version,
                   uint8_t* out) const {
  uint64_t state =
      Mix(seed ^ Mix((client << 32) ^ b) ^ Mix(version + 0x636f6e74656e74ULL));
  size_t i = 0;
  for (; i + 8 <= payload; i += 8) {
    const uint64_t word = Mix(state++);
    std::memcpy(out + i, &word, 8);
  }
  const uint64_t tail = Mix(state);
  std::memcpy(out + i, &tail, payload - i);
}

double Stack::clock_ms() const {
  return steg_sim->clock_ms() +
         (volumes ? volumes->clock_ms() : cache_sim->clock_ms());
}

std::vector<SimBlockDevice*> Stack::cache_sims() {
  if (!volumes) return {cache_sim.get()};
  std::vector<SimBlockDevice*> sims;
  for (size_t k = 0; k < volumes->shard_count(); ++k) {
    for (size_t r = 0; r < volumes->replica_count(); ++r) {
      sims.push_back(&volumes->sim(k, r));
    }
  }
  return sims;
}

uint64_t Stack::OccupiedBytes() {
  constexpr size_t kBlock = steghide::storage::kDefaultBlockSize;
  uint64_t blocks = 0;
  for (const auto id : files) {
    auto file = agent->volatile_agent().InspectFile(id);
    if (!file.ok()) continue;
    blocks += 1 + (*file)->block_ptrs.size() + (*file)->indirect_locs.size();
  }
  std::vector<const MemBlockDevice*> images;
  if (volumes) {
    for (size_t k = 0; k < volumes->shard_count(); ++k) {
      for (size_t r = 0; r < volumes->replica_count(); ++r) {
        images.push_back(&volumes->mem(k, r));
      }
    }
  } else {
    images.push_back(cache_mem.get());
  }
  for (const MemBlockDevice* image : images) {
    for (uint64_t b = 0; b < image->num_blocks(); ++b) {
      const uint8_t* data = image->BlockData(b);
      if (std::any_of(data, data + kBlock, [](uint8_t x) { return x != 0; })) {
        ++blocks;
      }
    }
  }
  return blocks * kBlock;
}

std::unique_ptr<Stack> BuildStack(const WorkloadSpec& spec, uint64_t seed,
                                  Content& content, bool timed,
                                  steghide::obs::Registry* registry,
                                  steghide::obs::TraceLog* trace) {
  auto stack = std::make_unique<Stack>();
  Stack& s = *stack;
  s.spec = spec;
  const uint64_t user_blocks = spec.clients * spec.file_blocks;
  constexpr size_t kBlock = steghide::storage::kDefaultBlockSize;

  // Geometry of the repository's dispatcher benches: a hierarchy big
  // enough for every user block, a shadow mirror for the deamortized
  // rebuilds, and (sharded) a one-block phase shift that puts every
  // slot's shadow twin on another spindle.
  uint64_t capacity = 2 * spec.buffer;
  while (capacity < user_blocks) capacity *= 2;
  const uint64_t hierarchy = 2 * capacity - 2 * spec.buffer;
  const uint64_t shadow_shift = spec.shards > 1 ? 1 : 0;
  const uint64_t cache_blocks =
      2 * hierarchy + capacity + 2 * shadow_shift + 16;
  const uint64_t steg_blocks = 2 * user_blocks + 8192;

  s.steg_mem = std::make_unique<MemBlockDevice>(steg_blocks, kBlock);
  s.steg_sim = std::make_unique<SimBlockDevice>(
      s.steg_mem.get(), steghide::storage::DiskModelParams{});
  s.provisioned_bytes = steg_blocks * kBlock;
  steghide::storage::BlockDevice* steg_device = s.steg_sim.get();
  steghide::storage::BlockDevice* cache_device = nullptr;
  if (spec.shards == 0) {
    s.cache_mem = std::make_unique<MemBlockDevice>(cache_blocks, kBlock);
    s.cache_sim = std::make_unique<SimBlockDevice>(
        s.cache_mem.get(), steghide::storage::DiskModelParams{});
    s.provisioned_bytes += cache_blocks * kBlock;
    cache_device = s.cache_sim.get();
    if (timed) {
      s.cache_timed = std::make_unique<TimedDevice>(
          s.cache_sim.get(), "bench.device.cache", trace);
      cache_device = s.cache_timed.get();
    }
  } else {
    VolumeSet::Options vopts;
    vopts.shards = spec.shards;
    vopts.replicas = spec.replicas;
    vopts.total_blocks = cache_blocks;
    vopts.block_size = kBlock;
    vopts.replication.quorum = true;
    vopts.replication.write_quorum = 1;
    vopts.replication.read_quorum = 1;
    // A partitioned mirror fails fast; keep it lagging (degraded quorum
    // serving) instead of quarantining it on the first few errors.
    vopts.replication.quarantine_after = 64;
    if (spec.link_faults) {
      vopts.remote = [](size_t k, size_t r) { return k == 0 && r == 1; };
    }
    vopts.remote_options.rpc_deadline_ms = 5000.0;
    vopts.remote_options.retry.max_attempts = 2;
    s.volumes = std::make_unique<VolumeSet>(vopts);
    for (size_t k = 0; k < spec.shards; ++k) {
      for (size_t r = 0; r < spec.replicas; ++r) {
        s.provisioned_bytes += s.volumes->mem(k, r).num_blocks() * kBlock;
      }
    }
    // Never decorated: the store picks its sharded scheduler from this
    // device's dynamic type.
    cache_device = &s.volumes->device();
  }
  if (timed) {
    s.steg_timed = std::make_unique<TimedDevice>(s.steg_sim.get(),
                                                 "bench.device.steg", trace);
    steg_device = s.steg_timed.get();
  }

  s.core = std::make_unique<steghide::stegfs::StegFsCore>(
      steg_device, steghide::stegfs::StegFsOptions{seed, true});
  if (auto st = s.core->Format(); !st.ok()) SetupFailed("format", st);

  steghide::oblivious::ObliviousStoreOptions opts;
  opts.buffer_blocks = spec.buffer;
  opts.capacity_blocks = capacity;
  opts.partition_base = 0;
  opts.shadow_base = hierarchy + shadow_shift;
  opts.scratch_base = 2 * hierarchy + 2 * shadow_shift;
  opts.deamortize_reorders = true;
  opts.drbg_seed = Mix(seed ^ 0x6f626c69ULL);
  // Level indices stay in agent memory: the spilled-index variant writes
  // its index blocks over level slots and serves wrong bytes.
  opts.charge_index_io = false;
  if (spec.shards > 0) {
    steghide::storage::RetryPolicy retry;
    retry.max_attempts = 12;
    opts.io_retry = retry;
  }
  opts.registry = registry;
  opts.trace = trace;
  auto agent =
      steghide::agent::ObliviousAgent::Create(s.core.get(), cache_device, opts);
  if (!agent.ok()) SetupFailed("agent", agent.status());
  s.agent = std::move(agent).value();
  Stack* raw = stack.get();
  s.agent->store().set_clock_fn([raw] { return raw->clock_ms(); });
  if (trace != nullptr) trace->set_clock_fn([raw] { return raw->clock_ms(); });

  // Relocation pool for the Figure-6 updates, in max-file-size chunks.
  constexpr uint64_t kChunk = 8192;
  for (uint64_t left = user_blocks + 2048; left > 0;) {
    const uint64_t take = std::min(left, kChunk);
    if (auto id = s.agent->CreateDummyFile("bench", take); !id.ok()) {
      SetupFailed("dummy pool", id.status());
    }
    left -= take;
  }

  // Population goes to the StegFS partition only, so the oblivious cache
  // starts empty: a client's first read of a block is a Figure-8(a)
  // first-touch fetch unless the prewarm below already made it.
  const size_t payload = content.payload;
  const uint64_t file_bytes = spec.file_blocks * payload;
  for (uint64_t c = 0; c < spec.clients; ++c) {
    auto id = s.agent->CreateHiddenFile("bench");
    if (!id.ok()) SetupFailed("create file", id.status());
    if (auto st = s.agent->volatile_agent().Write(*id, 0, content.block(c, 0),
                                                  file_bytes);
        !st.ok()) {
      SetupFailed("populate", st);
    }
    s.files.push_back(*id);
  }
  if (spec.prewarm) {
    for (uint64_t c = 0; c < spec.clients; ++c) {
      auto data = s.agent->Read(s.files[c], 0, file_bytes);
      if (!data.ok()) SetupFailed("prewarm", data.status());
      if (data->size() != file_bytes ||
          std::memcmp(data->data(), content.block(c, 0), file_bytes) != 0) {
        SetupFailed("prewarm", steghide::Status::Corruption(
                                   "prewarm read returned wrong bytes"));
      }
    }
  }
  return stack;
}

}  // namespace servebench
