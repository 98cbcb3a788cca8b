#include "oblivious/merge_sort.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace steghide::oblivious {

namespace {
// Merge chunk floor, in blocks (192 KB per run at 4 KB blocks): every
// chunk boundary costs a cross-region disk jump (run ↔ run ↔
// destination), so the floor directly divides the re-order's seek count
// — the dominant term once the scan path is batched. At the paper's
// scale B/(fanin+1) is near the floor anyway, and when experiments
// shrink B to keep N/B constant, the agent's real RAM does not shrink
// with it.
constexpr uint64_t kMinChunkBlocks = 48;
}  // namespace

ExternalMergeSorter::ExternalMergeSorter(storage::BlockDevice* device,
                                         const stegfs::BlockCodec* codec,
                                         const crypto::CbcCipher* cipher,
                                         crypto::HashDrbg* drbg,
                                         uint64_t scratch_base,
                                         uint64_t run_blocks)
    : device_(device),
      codec_(codec),
      cipher_(cipher),
      drbg_(drbg),
      scratch_base_(scratch_base),
      run_blocks_(run_blocks == 0 ? 1 : run_blocks) {}

void ExternalMergeSorter::Reset() {
  pending_.clear();
  resident_.clear();
  runs_.clear();
  spilled_ = 0;
  cells_.reads.Reset();
  cells_.writes.Reset();
  merging_ = false;
  merge_done_ = false;
  dst_base_ = 0;
  out_pos_ = 0;
  chunk_ = 0;
  resident_next_ = 0;
  cursors_.clear();
  out_count_ = 0;
  order_.clear();
}

Status ExternalMergeSorter::Add(uint64_t src_block, uint64_t tag,
                                uint64_t label) {
  Bytes block(codec_->block_size());
  STEGHIDE_RETURN_IF_ERROR(device_->ReadBlock(src_block, block.data()));
  cells_.reads.Increment();
  Bytes payload(codec_->payload_size());
  STEGHIDE_RETURN_IF_ERROR(codec_->Open(*cipher_, block.data(), payload.data()));
  return AddInMemory(payload.data(), tag, label);
}

Status ExternalMergeSorter::AddInMemory(const uint8_t* payload, uint64_t tag,
                                        uint64_t label) {
  if (merging_) {
    return Status::FailedPrecondition("sorter is already merging");
  }
  const size_t ps = codec_->payload_size();
  const size_t slot = pending_.size();
  if (pending_plain_.size() < (slot + 1) * ps) {
    pending_plain_.resize((slot + 1) * ps);
  }
  std::memcpy(pending_plain_.data() + slot * ps, payload, ps);
  pending_.push_back(Item{tag, label, slot});
  if (pending_.size() >= run_blocks_) STEGHIDE_RETURN_IF_ERROR(SpillRun());
  return Status::OK();
}

Status ExternalMergeSorter::AddInMemory(const Bytes& payload, uint64_t tag,
                                        uint64_t label) {
  if (payload.size() != codec_->payload_size()) {
    return Status::InvalidArgument("sorter payload size mismatch");
  }
  return AddInMemory(payload.data(), tag, label);
}

Status ExternalMergeSorter::AddResident(const uint8_t* payload, uint64_t tag,
                                        uint64_t label) {
  if (merging_) {
    return Status::FailedPrecondition("sorter is already merging");
  }
  resident_.push_back(Resident{tag, label, payload});
  return Status::OK();
}

Status ExternalMergeSorter::SpillRun() {
  if (pending_.empty()) return Status::OK();
  std::sort(pending_.begin(), pending_.end(),
            [](const Item& a, const Item& b) { return a.tag < b.tag; });
  Run run;
  run.base = scratch_base_ + spilled_;
  run.tags.reserve(pending_.size());
  run.labels.reserve(pending_.size());
  // Seal the whole run, then write it with one vectored request — a
  // sequential sweep of the scratch region. State (spilled_, runs_,
  // pending_) commits only after the write succeeds, so a failed slice
  // of a deamortized re-order can be re-driven: the retry re-seals the
  // same items into the same scratch positions.
  const size_t ps = codec_->payload_size();
  seal_scratch_.resize(pending_.size() * codec_->block_size());
  std::vector<uint64_t> ids;
  ids.reserve(pending_.size());
  batch_in_.clear();
  batch_out_.clear();
  for (size_t i = 0; i < pending_.size(); ++i) {
    const Item& item = pending_[i];
    batch_in_.push_back(pending_plain_.data() + item.slot * ps);
    batch_out_.push_back(seal_scratch_.data() + i * codec_->block_size());
    ids.push_back(run.base + i);
    run.tags.push_back(item.tag);
    run.labels.push_back(item.label);
  }
  STEGHIDE_RETURN_IF_ERROR(
      codec_->SealScatter(*cipher_, *drbg_, batch_in_, batch_out_));
  STEGHIDE_RETURN_IF_ERROR(device_->WriteBlocks(ids, seal_scratch_.data()));
  cells_.writes.Add(ids.size());
  spilled_ += ids.size();
  runs_.push_back(std::move(run));
  pending_.clear();
  return Status::OK();
}

Status ExternalMergeSorter::BeginMerge(uint64_t dst_base) {
  if (merging_) return Status::FailedPrecondition("merge already begun");

  if (runs_.empty()) {
    // The run-buffer inputs fit one run: they join the resident run
    // (their payloads stay put in pending_plain_, which no longer grows)
    // and the whole merge is one destination sweep — no scratch traffic.
    const size_t ps = codec_->payload_size();
    for (const Item& item : pending_) {
      resident_.push_back(Resident{item.tag, item.label,
                                   pending_plain_.data() + item.slot * ps});
    }
    pending_.clear();
  } else {
    // Spill the tail so every run-buffer input lives in some scratch
    // run. With run size B and level sizes at most N, the fan-in is at
    // most N/B = 2^k runs, so one pass always suffices. The merge arms
    // only after the spill succeeds, so a failed slice of a deamortized
    // re-order can re-drive BeginMerge.
    STEGHIDE_RETURN_IF_ERROR(SpillRun());
  }
  std::sort(resident_.begin(), resident_.end(),
            [](const Resident& a, const Resident& b) { return a.tag < b.tag; });
  merging_ = true;
  dst_base_ = dst_base;
  order_.reserve(item_count());
  // Per-run read chunks and an output write chunk keep the I/O mostly
  // sequential — the property behind Figure 12(b)'s "sorting is cheap in
  // time". The resident run needs no look-ahead.
  const size_t fanin = runs_.size();
  chunk_ = fanin == 0 ? kMinChunkBlocks
                      : std::max<uint64_t>(kMinChunkBlocks,
                                           run_blocks_ / (fanin + 1));
  out_plain_.resize(chunk_ * codec_->payload_size());
  if (lookahead_.size() < fanin * chunk_ * codec_->payload_size()) {
    lookahead_.resize(fanin * chunk_ * codec_->payload_size());
  }
  cursors_.clear();
  cursors_.resize(fanin);
  for (size_t r = 0; r < fanin; ++r) cursors_[r].run = r;
  merge_done_ = item_count() == 0;
  return Status::OK();
}

uint8_t* ExternalMergeSorter::CursorPlain(const Cursor& c) {
  return lookahead_.data() + c.run * chunk_ * codec_->payload_size();
}

Status ExternalMergeSorter::RefillCursor(Cursor& c) {
  const Run& run = runs_[c.run];
  const uint64_t end = std::min<uint64_t>(c.next + chunk_, run.tags.size());
  std::vector<uint64_t> ids;
  ids.reserve(end - c.next);
  for (uint64_t i = c.next; i < end; ++i) ids.push_back(run.base + i);
  refill_sealed_.resize(ids.size() * codec_->block_size());
  STEGHIDE_RETURN_IF_ERROR(device_->ReadBlocks(ids, refill_sealed_.data()));
  cells_.reads.Add(ids.size());
  // One batched open for the whole look-ahead chunk. The chunk becomes
  // visible only once it decrypted, so a failed refill is re-driven.
  STEGHIDE_RETURN_IF_ERROR(codec_->OpenBlocks(*cipher_, refill_sealed_.data(),
                                              ids.size(), CursorPlain(c)));
  c.chunk_begin = c.next;
  c.chunk_len = ids.size();
  return Status::OK();
}

Status ExternalMergeSorter::FlushOutput() {
  if (out_count_ == 0) return Status::OK();
  // out_pos_ advances only after the vectored write succeeds (and
  // out_plain_ stays intact on failure), so a re-driven MergeStep
  // re-writes the same chunk at the same destination offsets.
  seal_scratch_.resize(out_count_ * codec_->block_size());
  std::vector<uint64_t> ids(out_count_);
  for (uint64_t i = 0; i < out_count_; ++i) ids[i] = dst_base_ + out_pos_ + i;
  STEGHIDE_RETURN_IF_ERROR(codec_->SealBlocks(*cipher_, *drbg_,
                                              out_plain_.data(), out_count_,
                                              seal_scratch_.data()));
  STEGHIDE_RETURN_IF_ERROR(device_->WriteBlocks(ids, seal_scratch_.data()));
  cells_.writes.Add(ids.size());
  out_pos_ += ids.size();
  out_count_ = 0;
  return Status::OK();
}

Status ExternalMergeSorter::MergeStep(uint64_t budget_blocks, bool* done,
                                      uint64_t* consumed) {
  if (!merging_) return Status::FailedPrecondition("BeginMerge not called");
  uint64_t used = 0;
  const size_t ps = codec_->payload_size();

  while (!merge_done_) {
    // A full output chunk goes out before anything else is emitted, so
    // destination writes are whole chunks whatever the budget.
    if (out_count_ >= chunk_) {
      const uint64_t full = out_count_;
      if (used > 0 && used + full > budget_blocks) break;
      STEGHIDE_RETURN_IF_ERROR(FlushOutput());
      used += full;
      if (used >= budget_blocks) break;
      continue;
    }

    // Pick the smallest pending tag: the resident head (which wins ties,
    // as the newest copies did in the blocking add order), then each run.
    bool found = resident_next_ < resident_.size();
    uint64_t best_tag = found ? resident_[resident_next_].tag : 0;
    Cursor* best = nullptr;
    for (Cursor& c : cursors_) {
      const Run& run = runs_[c.run];
      if (c.next >= run.tags.size()) continue;
      if (!found || run.tags[c.next] < best_tag) {
        found = true;
        best = &c;
        best_tag = run.tags[c.next];
      }
    }
    if (!found) {
      const uint64_t tail = out_count_;
      if (used > 0 && used + tail > budget_blocks) break;
      STEGHIDE_RETURN_IF_ERROR(FlushOutput());
      used += tail;
      merge_done_ = true;
      break;
    }

    const uint8_t* payload = nullptr;
    if (best == nullptr) {
      const Resident& item = resident_[resident_next_++];
      order_.push_back(item.label);
      payload = item.payload;
    } else {
      if (best->next >= best->chunk_begin + best->chunk_len) {
        const uint64_t need = std::min<uint64_t>(
            chunk_, runs_[best->run].tags.size() - best->next);
        // A refill is a whole-chunk read; stop at the budget boundary
        // unless nothing has been done yet (progress guarantee).
        if (used > 0 && used + need > budget_blocks) break;
        STEGHIDE_RETURN_IF_ERROR(RefillCursor(*best));
        used += need;
      }
      order_.push_back(runs_[best->run].labels[best->next]);
      payload = CursorPlain(*best) + (best->next - best->chunk_begin) * ps;
      ++best->next;
    }
    std::memcpy(out_plain_.data() + out_count_ * ps, payload, ps);
    ++out_count_;
    if (used >= budget_blocks) break;
  }

  if (done) *done = merge_done_;
  if (consumed) *consumed = used;
  return Status::OK();
}

uint64_t ExternalMergeSorter::merge_remaining_blocks() const {
  if (!merging_ || merge_done_) return 0;
  // A resident item owes its destination write; a spilled one a run
  // re-read as well. The staged output chunk still owes its write.
  const uint64_t resident_left = resident_.size() - resident_next_;
  const uint64_t spilled_left = spilled_ - (order_.size() - resident_next_);
  return resident_left + 2 * spilled_left + out_count_;
}

std::vector<uint64_t> ExternalMergeSorter::TakeOrder() {
  std::vector<uint64_t> order = std::move(order_);
  order_.clear();
  return order;
}

Result<std::vector<uint64_t>> ExternalMergeSorter::Finish(uint64_t dst_base) {
  STEGHIDE_RETURN_IF_ERROR(BeginMerge(dst_base));
  bool done = false;
  while (!done) {
    STEGHIDE_RETURN_IF_ERROR(
        MergeStep(std::numeric_limits<uint64_t>::max(), &done));
  }
  std::vector<uint64_t> order = TakeOrder();
  // Keep the legacy Finish() contract: the sorter is immediately reusable
  // for the next blocking re-order.
  const Stats kept = stats();
  Reset();
  cells_.reads.Add(kept.reads);
  cells_.writes.Add(kept.writes);
  return order;
}

}  // namespace steghide::oblivious
