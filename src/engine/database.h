#ifndef PTLDB_ENGINE_DATABASE_H_
#define PTLDB_ENGINE_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/trace.h"
#include "engine/btree.h"
#include "engine/buffer_pool.h"
#include "engine/device.h"
#include "engine/heap_file.h"
#include "engine/pager.h"
#include "engine/value.h"

namespace ptldb {

/// One relational table: heap rows plus a bulk-loaded primary-key B+Tree.
/// Tables are write-once (bulk load during preprocessing), read-many — the
/// paper's PTLDB workload exactly.
class EngineTable {
 public:
  EngineTable(std::string name, Schema schema, uint32_t pk_columns,
              PageStore* store)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        pk_columns_(pk_columns),
        store_(store),
        heap_(store),
        index_(store) {}

  EngineTable(const EngineTable&) = delete;
  EngineTable& operator=(const EngineTable&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  /// Leading columns forming the primary key (1 for lout/lin, 2 for the
  /// (hub, hour)-keyed tables); informs DDL generation.
  uint32_t pk_columns() const { return pk_columns_; }

  /// Loads `rows` with their primary keys; keys must be strictly
  /// increasing (violations indicate a broken table builder). Seals every
  /// dirty page in the store with its checksum stamp afterwards, so all
  /// table pages are verified on read, and then marks the table sealed:
  /// only from then on does the catalog show it to readers. May run
  /// concurrently with readers, but not with another load (PageStore has
  /// one writer at a time).
  Status BulkLoad(std::vector<std::pair<IndexKey, Row>> rows);

  /// Whether BulkLoad has completed; a sealed table is immutable.
  bool sealed() const { return sealed_.load(std::memory_order_acquire); }

  /// Primary-key point lookup (index + heap I/O charged to the device).
  /// The outer Result carries kIoError/kCorruption; the inner optional is
  /// empty when the key is absent. Bumps the calling thread's
  /// index_seeks/tuples_scanned counters (see LocalQueryCounters).
  Result<std::optional<Row>> Get(IndexKey key, BufferPool* pool) const;

  /// Allocation-free point lookup for the compiled query path: decodes
  /// into `scratch` via HeapFile::ReadInto instead of building a Row.
  /// Returns false when the key is absent (scratch untouched). Bumps the
  /// same index_seeks/tuples_scanned counters as Get, so EXPLAIN ANALYZE
  /// accounting is identical across the two paths.
  Result<bool> GetInto(IndexKey key, BufferPool* pool,
                       RowScratch* scratch) const;

  /// Range cursor over (key, row) pairs with key >= `first_key`. A faulted
  /// scan ends with Valid() == false and a non-OK status(); callers must
  /// check status() after the loop to distinguish errors from a clean end.
  class Cursor {
   public:
    bool Valid() const { return it_.Valid(); }
    IndexKey key() const { return it_.key(); }
    Result<Row> row() const {
      ++ThisThreadQueryCounters().tuples_scanned;
      return table_->heap_.Read(it_.locator(), table_->schema_, pool_);
    }
    /// Allocation-free row() for the compiled query path: decodes into
    /// `scratch` via HeapFile::ReadInto and bumps the same counter.
    Status RowInto(RowScratch* scratch) const {
      ++ThisThreadQueryCounters().tuples_scanned;
      return table_->heap_.ReadInto(it_.locator(), table_->schema_, pool_,
                                    scratch);
    }
    void Next() { it_.Next(); }
    const Status& status() const { return it_.status(); }

   private:
    friend class EngineTable;
    Cursor(const EngineTable* table, BufferPool* pool, BTree::Iterator it)
        : table_(table), pool_(pool), it_(it) {}
    const EngineTable* table_;
    BufferPool* pool_;
    BTree::Iterator it_;
  };

  Cursor Seek(IndexKey first_key, BufferPool* pool) const {
    ++ThisThreadQueryCounters().index_seeks;
    return Cursor(this, pool, index_.SeekNotBefore(first_key, pool));
  }

  uint64_t num_rows() const { return num_rows_; }
  uint64_t heap_pages() const { return heap_.num_pages(); }
  uint64_t index_pages() const { return index_.num_pages(); }
  uint64_t size_bytes() const {
    return (heap_pages() + index_pages()) * kPageSize;
  }

 private:
  std::string name_;
  Schema schema_;
  uint32_t pk_columns_ = 1;
  PageStore* store_;
  HeapFile heap_;
  BTree index_;
  uint64_t num_rows_ = 0;
  std::atomic<bool> sealed_{false};
};

/// Ground-truth engine counters at one instant: the buffer pool's and
/// device's own counters plus the calling thread's LocalQueryCounters.
/// The difference of two captures around a query is that query's exact
/// operation count — this is what EXPLAIN ANALYZE attaches to spans, so
/// span counts agree with the engine's counters by construction.
struct EngineCounters {
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t device_reads = 0;
  uint64_t device_read_ns = 0;
  uint64_t device_wait_ns = 0;
  LocalQueryCounters local;
};

/// The embedded database: one page store, one simulated device, one buffer
/// pool, and a catalog of tables. Stands in for the PostgreSQL instance of
/// the paper so that the HDD/SSD experiments can run against a controlled
/// storage model (see DESIGN.md, "Why an embedded engine and real
/// PostgreSQL?").
class EngineDatabase {
 public:
  /// `buffer_pool_shards == 0` lets the pool pick its shard count from
  /// capacity (see BufferPool); pass an explicit count to pin the layout
  /// (e.g. concurrency stress tests with deliberately tiny pools).
  explicit EngineDatabase(DeviceProfile profile = DeviceProfile::Hdd7200(),
                          uint64_t buffer_pool_pages = 1u << 20,
                          uint32_t buffer_pool_shards = 0)
      : device_(std::move(profile)),
        pool_(&store_, &device_, buffer_pool_pages, buffer_pool_shards) {}

  EngineDatabase(const EngineDatabase&) = delete;
  EngineDatabase& operator=(const EngineDatabase&) = delete;

  /// Creates an empty table; fails if the name exists, sealed or not.
  /// `pk_columns` is the number of leading columns forming the primary
  /// key. The table stays invisible to FindTable, table_names and
  /// total_size_bytes until its BulkLoad has sealed it, so readers never
  /// see a half-built heap.
  Result<EngineTable*> CreateTable(const std::string& name, Schema schema,
                                   uint32_t pk_columns = 1);

  /// Looks up a sealed table; nullptr when absent or still loading.
  EngineTable* FindTable(const std::string& name);
  const EngineTable* FindTable(const std::string& name) const;

  BufferPool* buffer_pool() { return &pool_; }
  StorageDevice* device() { return &device_; }
  PageStore* page_store() { return &store_; }

  /// The database's metrics registry. Upper layers (facade, SQL
  /// interpreter, thread-pool users) register their metrics here so one
  /// snapshot covers the whole stack.
  MetricsRegistry* metrics() { return &metrics_; }

  /// Captures the engine's ground-truth counters plus the calling
  /// thread's LocalQueryCounters (see EngineCounters).
  EngineCounters CaptureCounters() const;

  /// Registry snapshot with the engine's own counters (device.*,
  /// bufferpool.*) overlaid, so the engine keeps single-writer counters on
  /// its hot paths yet they still appear in every snapshot.
  MetricsSnapshot Snapshot() const;

  /// Cold-cache reset (the paper restarts the server before experiments).
  /// Fails with kInternal if live PageGuards still pin frames — a query
  /// is in flight and the drop would be partial.
  Status DropCaches() { return pool_.DropCaches(); }

  /// Total bytes across all sealed tables (heap + index pages).
  uint64_t total_size_bytes() const;

  /// Names of the sealed tables, in name order.
  std::vector<std::string> table_names() const;

 private:
  PageStore store_;
  StorageDevice device_;
  BufferPool pool_;
  MetricsRegistry metrics_;
  /// Catalog latch: a leaf in the lock order (held only for map lookups
  /// and inserts, never across a load or a page read). Tables are never
  /// erased, so EngineTable pointers stay valid after it drops.
  mutable Mutex catalog_mu_;
  std::map<std::string, std::unique_ptr<EngineTable>> tables_
      PTLDB_GUARDED_BY(catalog_mu_);
};

/// RAII trace span that attaches the engine-counter deltas accumulated
/// during its lifetime (pool hits/misses, device reads, tuples scanned,
/// hubs merged, ...). Only nonzero deltas are attached, and time-valued
/// deltas (read/wait ns) only when nonzero, so traces on the Ram device
/// stay byte-deterministic. Null trace = no-op.
class ScopedEngineSpan {
 public:
  ScopedEngineSpan(QueryTrace* trace, const EngineDatabase* db,
                   const std::string& name)
      : trace_(trace), db_(db) {
    if (trace_) {
      trace_->Begin(name);
      begin_ = db_->CaptureCounters();
    }
  }
  ~ScopedEngineSpan();

  ScopedEngineSpan(const ScopedEngineSpan&) = delete;
  ScopedEngineSpan& operator=(const ScopedEngineSpan&) = delete;

  /// Extra stats attached before the counter deltas (e.g. rows=).
  void AddStat(const std::string& key, uint64_t value) {
    if (trace_) trace_->AddStat(key, value);
  }

 private:
  QueryTrace* trace_;
  const EngineDatabase* db_;
  EngineCounters begin_;
};

}  // namespace ptldb

#endif  // PTLDB_ENGINE_DATABASE_H_
