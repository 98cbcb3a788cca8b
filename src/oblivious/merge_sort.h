#ifndef STEGHIDE_OBLIVIOUS_MERGE_SORT_H_
#define STEGHIDE_OBLIVIOUS_MERGE_SORT_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"

#include "crypto/cbc.h"
#include "crypto/drbg.h"
#include "stegfs/block_codec.h"
#include "storage/block_device.h"
#include "util/result.h"

namespace steghide::oblivious {

/// External merge sort over sealed blocks, the re-order primitive of
/// §5.1.2 ("we apply the external merge sort algorithm").
///
/// Inputs come in two kinds, each carrying the caller's 64-bit sort tag
/// (a random tag yields a uniformly random concealed permutation) and an
/// opaque label returned in final order:
///   * run-buffer inputs — Add() reads and decrypts a device block,
///     AddInMemory() copies a payload. The sorter buffers up to
///     `run_blocks` of them (the agent's buffer) and spills sorted,
///     re-encrypted runs to the scratch region once they outgrow it.
///   * resident inputs — AddResident() borrows a payload the agent
///     already holds (the flush set). The resident run is merged straight
///     from memory and never touches scratch, so a flush-set record costs
///     one destination write instead of a spill, a re-read and a write.
/// BeginMerge() ends the add phase. When the run-buffer inputs fit one
/// run they stay in memory too, and the merge is a single sequential
/// destination sweep; otherwise the spilled runs and the resident run are
/// merged in one chunked multi-way pass. Either way the observable I/O —
/// scratch spills sized by the run-buffer input count, run refills and
/// destination chunks ordered by the tags alone — never depends on
/// payload bytes.
///
/// The merge phase is resumable: MergeStep(budget) advances it by a
/// bounded number of device I/Os, so a deamortized re-order can
/// interleave merge chunks with serving. Finish() is the blocking wrapper
/// (BeginMerge + MergeStep to completion + TakeOrder). After either,
/// Reset() recycles the sorter — including its run, look-ahead and seal
/// scratch allocations — for the next re-order.
///
/// I/O pattern matters more than the sort itself here: run formation and
/// the merge read/write chunks sequentially, which is why the paper's
/// sorting overhead, despite costing the most I/Os, takes under 30 % of
/// the time (Figure 12(b)). Chunked resumption preserves that: each
/// MergeStep issues whole run/output chunks, never per-block I/O.
class ExternalMergeSorter {
 public:
  /// Snapshot view assembled from atomic cells, so re-order progress can
  /// be polled from monitoring threads while a chain step is mid-merge.
  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;
  };

  /// None of the pointers are owned; all must outlive the sorter.
  /// `scratch_base` is the first block of the scratch (sort) partition;
  /// `run_blocks` is the in-memory run size in blocks (the agent buffer
  /// size B of the paper).
  ExternalMergeSorter(storage::BlockDevice* device,
                      const stegfs::BlockCodec* codec,
                      const crypto::CbcCipher* cipher, crypto::HashDrbg* drbg,
                      uint64_t scratch_base, uint64_t run_blocks);

  /// Reads the sealed block at device position `src_block` into the run
  /// buffer, attaching `tag` (sort key) and `label` (opaque, returned in
  /// final order).
  Status Add(uint64_t src_block, uint64_t tag, uint64_t label);

  /// Copies an already-decrypted payload into the run buffer — no device
  /// read, but it spills like a device input.
  Status AddInMemory(const Bytes& payload, uint64_t tag, uint64_t label);
  /// Same, from a raw payload_size()-byte pointer (batch-decrypt callers
  /// slice one contiguous plaintext buffer instead of materializing a
  /// Bytes per item).
  Status AddInMemory(const uint8_t* payload, uint64_t tag, uint64_t label);

  /// Adds a resident item: `payload` (payload_size() bytes) is borrowed,
  /// not copied, and must stay valid and unchanged until the merge is
  /// done or Reset() is called. Never spilled.
  Status AddResident(const uint8_t* payload, uint64_t tag, uint64_t label);

  /// Merges everything to device positions [dst_base, dst_base + n) in
  /// ascending tag order and returns the labels in that order. The sorter
  /// is recycled for the next re-order afterwards.
  Result<std::vector<uint64_t>> Finish(uint64_t dst_base);

  // ---- Resumable merge phase ---------------------------------------------

  /// Ends the add phase: spills the pending tail when earlier runs
  /// already went to scratch (otherwise it joins the resident run) and
  /// arms MergeStep() toward [dst_base, dst_base + n).
  Status BeginMerge(uint64_t dst_base);

  /// Advances the merge by roughly `budget_blocks` device block I/Os.
  /// Chunk granularity: a step finishes the run-refill or output-flush it
  /// starts, so it may overshoot by up to one chunk; `consumed` (optional)
  /// reports the true count and at least one block of progress is made
  /// per call. Sets *done when the merge is complete.
  Status MergeStep(uint64_t budget_blocks, bool* done,
                   uint64_t* consumed = nullptr);

  /// Labels in final slot order; valid once MergeStep reported done.
  /// Leaves the sorter spent (Reset() recycles it).
  std::vector<uint64_t> TakeOrder();

  /// Device-I/O estimate for the remaining merge work (for self-pacing
  /// callers): one write per resident item, a run re-read plus a write
  /// per spilled item. Zero once done.
  uint64_t merge_remaining_blocks() const;

  /// Recycles the sorter for the next re-order: clears items, runs and
  /// merge state and zeroes stats(), but keeps the run buffer, merge
  /// look-ahead and seal scratch allocations — re-orders are hot enough
  /// that reconstructing them per call shows up in the profile.
  void Reset();

  uint64_t item_count() const {
    return pending_.size() + spilled_ + resident_.size();
  }
  Stats stats() const {
    Stats s;
    s.reads = cells_.reads.value();
    s.writes = cells_.writes.value();
    return s;
  }

 private:
  /// A run-buffer item; its payload sits at offset `slot` of pending_plain_.
  struct Item {
    uint64_t tag;
    uint64_t label;
    size_t slot;
  };
  /// A resident item: payload borrowed from the caller (or, when no run
  /// spilled, from pending_plain_).
  struct Resident {
    uint64_t tag;
    uint64_t label;
    const uint8_t* payload;
  };
  struct Run {
    uint64_t base;  // first scratch block
    std::vector<uint64_t> tags;
    std::vector<uint64_t> labels;
  };
  /// Chunked look-ahead into one spilled run during the merge; its
  /// decrypted payloads sit in the run's chunk_-payload slice of
  /// lookahead_.
  struct Cursor {
    size_t run = 0;           // index into runs_
    uint64_t next = 0;        // next item index within the run
    uint64_t chunk_begin = 0; // run index of the first look-ahead payload
    uint64_t chunk_len = 0;   // payloads in the current look-ahead chunk
  };

  Status SpillRun();
  Status RefillCursor(Cursor& c);
  uint8_t* CursorPlain(const Cursor& c);
  Status FlushOutput();

  storage::BlockDevice* device_;
  const stegfs::BlockCodec* codec_;
  const crypto::CbcCipher* cipher_;
  crypto::HashDrbg* drbg_;
  uint64_t scratch_base_;
  uint64_t run_blocks_;
  std::vector<Item> pending_;
  Bytes pending_plain_;       // run-buffer payloads, slot-indexed
  std::vector<Resident> resident_;
  std::vector<Run> runs_;
  uint64_t spilled_ = 0;      // items in runs_ (= scratch blocks used)
  struct Cells {
    obs::CounterCell reads;
    obs::CounterCell writes;
  };
  Cells cells_;

  // Merge-phase state (valid while merging_).
  bool merging_ = false;
  bool merge_done_ = false;
  uint64_t dst_base_ = 0;
  uint64_t out_pos_ = 0;      // destination blocks written so far
  uint64_t chunk_ = 0;        // per-run / output chunk size in blocks
  size_t resident_next_ = 0;  // next resident_ index to emit
  std::vector<Cursor> cursors_;
  // Every cursor's decrypted look-ahead (fanin x chunk_ payloads) and the
  // sealed staging of one refill. Both outlive Reset(), like the other
  // staging buffers, and only ever grow: a merge's look-ahead then reuses
  // pages the sorter already holds, so the process's memory does not
  // depend on which thread drives the merge (serving taxes, an idle pump,
  // a caller's final drain) or on how its slices are split among them.
  Bytes lookahead_;
  Bytes refill_sealed_;
  Bytes out_plain_;           // output chunk staging, contiguous
  uint64_t out_count_ = 0;    // payloads staged in out_plain_
  std::vector<uint64_t> order_;
  Bytes seal_scratch_;        // sealed-images staging, reused across calls
  // Pointer tables feeding the codec's scattered batch seal, reused
  // across spill calls.
  std::vector<const uint8_t*> batch_in_;
  std::vector<uint8_t*> batch_out_;
};

}  // namespace steghide::oblivious

#endif  // STEGHIDE_OBLIVIOUS_MERGE_SORT_H_
