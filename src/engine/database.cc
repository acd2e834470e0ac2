#include "engine/database.h"

#include <algorithm>

namespace ptldb {

Status EngineTable::BulkLoad(std::vector<std::pair<IndexKey, Row>> rows) {
  if (sealed()) return Status::Internal("table already loaded");
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i - 1].first >= rows[i].first) {
      return Status::InvalidArgument("bulk-load keys must strictly increase");
    }
  }
  std::vector<std::pair<IndexKey, RowLocator>> entries;
  entries.reserve(rows.size());
  for (const auto& [key, row] : rows) {
    if (row.size() != schema_.num_columns()) {
      return Status::InvalidArgument("row arity mismatch in " + name_);
    }
    entries.emplace_back(key, heap_.Append(row, schema_));
  }
  index_.BulkLoad(entries);
  num_rows_ = rows.size();
  // Seal the freshly written heap + index pages so every later read can be
  // verified against its stamp.
  store_->StampChecksums();
  sealed_.store(true, std::memory_order_release);
  return Status::Ok();
}

Result<std::optional<Row>> EngineTable::Get(IndexKey key,
                                            BufferPool* pool) const {
  ++ThisThreadQueryCounters().index_seeks;
  auto locator = index_.Find(key, pool);
  PTLDB_RETURN_IF_ERROR(locator.status());
  if (!locator->has_value()) return std::optional<Row>{};
  ++ThisThreadQueryCounters().tuples_scanned;
  auto row = heap_.Read(**locator, schema_, pool);
  PTLDB_RETURN_IF_ERROR(row.status());
  return std::optional<Row>{std::move(*row)};
}

Result<bool> EngineTable::GetInto(IndexKey key, BufferPool* pool,
                                  RowScratch* scratch) const {
  ++ThisThreadQueryCounters().index_seeks;
  auto locator = index_.Find(key, pool);
  PTLDB_RETURN_IF_ERROR(locator.status());
  if (!locator->has_value()) return false;
  ++ThisThreadQueryCounters().tuples_scanned;
  PTLDB_RETURN_IF_ERROR(heap_.ReadInto(**locator, schema_, pool, scratch));
  return true;
}

Result<EngineTable*> EngineDatabase::CreateTable(const std::string& name,
                                                 Schema schema,
                                                 uint32_t pk_columns) {
  if (pk_columns == 0 || pk_columns > schema.num_columns()) {
    return Status::InvalidArgument("bad pk column count for " + name);
  }
  auto table = std::make_unique<EngineTable>(name, std::move(schema),
                                             pk_columns, &store_);
  EngineTable* raw = table.get();
  MutexLock lock(catalog_mu_);
  if (!tables_.emplace(name, std::move(table)).second) {
    return Status::InvalidArgument("table exists: " + name);
  }
  return raw;
}

EngineTable* EngineDatabase::FindTable(const std::string& name) {
  MutexLock lock(catalog_mu_);
  const auto it = tables_.find(name);
  return it == tables_.end() || !it->second->sealed() ? nullptr
                                                      : it->second.get();
}

const EngineTable* EngineDatabase::FindTable(const std::string& name) const {
  MutexLock lock(catalog_mu_);
  const auto it = tables_.find(name);
  return it == tables_.end() || !it->second->sealed() ? nullptr
                                                      : it->second.get();
}

uint64_t EngineDatabase::total_size_bytes() const {
  MutexLock lock(catalog_mu_);
  uint64_t total = 0;
  for (const auto& [_, table] : tables_) {
    if (table->sealed()) total += table->size_bytes();
  }
  return total;
}

std::vector<std::string> EngineDatabase::table_names() const {
  MutexLock lock(catalog_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    if (table->sealed()) names.push_back(name);
  }
  return names;
}

EngineCounters EngineDatabase::CaptureCounters() const {
  EngineCounters out;
  out.pool_hits = pool_.hits();
  out.pool_misses = pool_.misses();
  out.device_reads = device_.reads();
  out.device_read_ns = device_.read_ns();
  out.device_wait_ns = device_.wait_ns();
  out.local = ThisThreadQueryCounters();
  return out;
}

MetricsSnapshot EngineDatabase::Snapshot() const {
  MetricsSnapshot snap = metrics_.Snapshot();
  snap.counters["device.reads"] = device_.reads();
  snap.counters["device.sequential_reads"] = device_.sequential_reads();
  snap.counters["device.read_ns"] = device_.read_ns();
  snap.counters["device.wait_ns"] = device_.wait_ns();
  snap.counters["device.read_errors"] = device_.read_errors();
  snap.counters["device.corruptions_injected"] =
      device_.corruptions_injected();
  snap.counters["bufferpool.hits"] = pool_.hits();
  snap.counters["bufferpool.misses"] = pool_.misses();
  snap.counters["bufferpool.evictions"] = pool_.evictions();
  snap.counters["bufferpool.retries"] = pool_.retries();
  snap.counters["bufferpool.checksum_errors"] = pool_.checksum_errors();
  snap.gauges["bufferpool.resident_pages"] =
      static_cast<int64_t>(pool_.resident_pages());
  snap.gauges["bufferpool.quarantined_pages"] =
      static_cast<int64_t>(pool_.quarantined_pages());
  snap.gauges["bufferpool.pinned_pages"] =
      static_cast<int64_t>(pool_.pinned_pages());
  snap.gauges["bufferpool.num_shards"] =
      static_cast<int64_t>(pool_.num_shards());
  for (uint32_t s = 0; s < pool_.num_shards(); ++s) {
    const BufferPool::ShardStats stats = pool_.shard_stats(s);
    const std::string prefix = "bufferpool.shard" + std::to_string(s) + ".";
    snap.counters[prefix + "hits"] = stats.hits;
    snap.counters[prefix + "misses"] = stats.misses;
    snap.counters[prefix + "evictions"] = stats.evictions;
    snap.gauges[prefix + "resident_pages"] =
        static_cast<int64_t>(stats.resident_pages);
    snap.gauges[prefix + "pinned_pages"] =
        static_cast<int64_t>(stats.pinned_pages);
  }
  return snap;
}

ScopedEngineSpan::~ScopedEngineSpan() {
  if (!trace_) return;
  const EngineCounters end = db_->CaptureCounters();
  const LocalQueryCounters local = end.local - begin_.local;
  const auto attach = [&](const char* key, uint64_t delta) {
    if (delta != 0) trace_->AddStat(key, delta);
  };
  attach("pool.hits", end.pool_hits - begin_.pool_hits);
  attach("pool.misses", end.pool_misses - begin_.pool_misses);
  attach("device.reads", end.device_reads - begin_.device_reads);
  attach("device.read_ns", end.device_read_ns - begin_.device_read_ns);
  attach("device.wait_ns", end.device_wait_ns - begin_.device_wait_ns);
  attach("index.seeks", local.index_seeks);
  attach("tuples.scanned", local.tuples_scanned);
  attach("rows.emitted", local.rows_emitted);
  attach("hubs.merged", local.hubs_merged);
  attach("label.comparisons", local.label_comparisons);
  attach("vm.steps", local.vm_steps);
  trace_->End();
}

}  // namespace ptldb
