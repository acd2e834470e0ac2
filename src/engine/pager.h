#ifndef PTLDB_ENGINE_PAGER_H_
#define PTLDB_ENGINE_PAGER_H_

#include <array>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <memory>

#include "common/checksum.h"
#include "engine/device.h"
#include "engine/page.h"

namespace ptldb {

/// The "disk image": all pages of one database. Page contents are held in
/// process memory (the machine running this reproduction has no attachable
/// HDD/SSD); every access is routed through the BufferPool, which charges
/// the device model on cache misses. Writes happen only during bulk load
/// and are not charged.
///
/// Each page carries a CRC-32C stamp modeling an on-disk page trailer.
/// Mutable access marks the page dirty; StampChecksums() seals all dirty
/// pages (called at the end of each table's bulk load). The BufferPool
/// verifies the stamp of every stamped page it reads from the device, so a
/// bit flip anywhere between disk image and delivered frame surfaces as
/// Status::kCorruption instead of a silently wrong query answer.
///
/// Concurrency contract: one writer, many readers, and readers never lock.
/// Allocate(), mutable page() and StampChecksums() run on one thread at a
/// time (the caller serializes its writers; PtldbDatabase does so with its
/// build latch), while num_pages(), page(id) const, stamped() and
/// checksum() may run on any number of threads alongside that writer:
///  - pages live in a chunked directory; a chunk, once published, never
///    moves, so a reader's slot stays valid while the writer appends;
///  - the page count is published with release after the new slot is
///    built, and num_pages() loads it with acquire;
///  - each page's stamp and checksum are their own atomics, so the writer
///    sealing page N+1 never touches the memory of a reader's page N.
/// Readers reach a page only through a table published after its pages
/// were sealed, so they never read a page the writer is still filling.
/// (CorruptBitForTest is a test-only exception and must not race live
/// Fetches.)
class PageStore {
 public:
  PageStore() = default;
  ~PageStore() {
    for (auto& chunk : chunks_) delete chunk.load(std::memory_order_relaxed);
  }
  // The buffer pool and every table hold the store's address.
  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Appends one zeroed page and returns its id.
  PageId Allocate() {
    const PageId id = num_pages_.load(std::memory_order_relaxed);
    const uint64_t c = id / kChunkPages;
    // Past 128 GiB of in-memory pages the process is out of memory in all
    // but name; there is no caller that could recover.
    if (c >= kMaxChunks) std::abort();
    Chunk* chunk = chunks_[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Chunk();
      chunks_[c].store(chunk, std::memory_order_release);
    }
    chunk->slots[id % kChunkPages].page = std::make_unique<Page>();
    num_pages_.store(id + 1, std::memory_order_release);
    return id;
  }

  uint64_t num_pages() const {
    return num_pages_.load(std::memory_order_acquire);
  }
  uint64_t size_bytes() const { return num_pages() * kPageSize; }

  /// Mutable access (bulk load only); invalidates the page's stamp until
  /// the next StampChecksums().
  Page& page(PageId id) {
    Slot& s = slot(id);
    s.stamped.store(false, std::memory_order_relaxed);
    return *s.page;
  }
  const Page& page(PageId id) const { return *slot(id).page; }

  /// Seals every dirty page with the CRC-32C of its current contents.
  void StampChecksums() {
    for (PageId id = 0; id < num_pages(); ++id) {
      Slot& s = slot(id);
      if (s.stamped.load(std::memory_order_relaxed)) continue;
      s.checksum.store(Crc32c(s.page->bytes.data(), kPageSize),
                       std::memory_order_relaxed);
      s.stamped.store(true, std::memory_order_release);
    }
  }

  bool stamped(PageId id) const {
    return id < num_pages() &&
           slot(id).stamped.load(std::memory_order_acquire);
  }
  uint32_t checksum(PageId id) const {
    return slot(id).checksum.load(std::memory_order_relaxed);
  }

  /// Flips one bit of the stored image *without* updating the stamp —
  /// models latent media corruption for tests. `bit` < kPageSize * 8.
  void CorruptBitForTest(PageId id, uint64_t bit) {
    assert(bit < kPageSize * 8);
    slot(id).page->bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }

 private:
  /// Directory geometry: 4096 chunks of 4096 pages, i.e. up to 16M pages
  /// (128 GiB). A chunk's slots are 16 bytes each and are allocated on
  /// first use, so the fixed cost is the 32 KiB chunk-pointer array.
  static constexpr uint64_t kChunkPages = 4096;
  static constexpr uint64_t kMaxChunks = 4096;

  struct Slot {
    std::unique_ptr<Page> page;
    std::atomic<uint32_t> checksum{0};
    std::atomic<bool> stamped{false};
  };
  struct Chunk {
    std::array<Slot, kChunkPages> slots;
  };

  Slot& slot(PageId id) {
    assert(id < num_pages());
    return chunks_[id / kChunkPages]
        .load(std::memory_order_acquire)
        ->slots[id % kChunkPages];
  }
  const Slot& slot(PageId id) const {
    assert(id < num_pages());
    return chunks_[id / kChunkPages]
        .load(std::memory_order_acquire)
        ->slots[id % kChunkPages];
  }

  /// The directory: chunk c holds pages [c * kChunkPages, (c + 1) *
  /// kChunkPages). Entries go from null to a chunk once, never back.
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  std::atomic<uint64_t> num_pages_{0};
};

}  // namespace ptldb

#endif  // PTLDB_ENGINE_PAGER_H_
