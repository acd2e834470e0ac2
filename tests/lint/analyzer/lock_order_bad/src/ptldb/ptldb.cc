// Seeded lock-order inversions against the ranked hierarchy
// build_mu_ (0) -> sets_mu_ (1) -> shard latch (2) -> device mu_ (3)
// -> catalog_mu_ (4). Acquisition must descend; each function below climbs
// back up while still holding a lower rung — a deadlock the moment another
// thread descends normally.
#include "ptldb/ptldb.h"

namespace ptldb {

void DirectInversion(Shard& shard) {
  MutexLock latch(shard.mu);      // rank 2 held...
  MutexLock lock(sets_mu_);       // finding: lock-order (acquires rank 1)
  RebuildSets();
}

void AcquiresSetsMu() {
  MutexLock lock(sets_mu_);
  RebuildSets();
}

void TransitiveInversion(Shard& shard) {
  MutexLock latch(shard.mu);  // rank 2 held...
  AcquiresSetsMu();           // finding: lock-order (callee takes rank 1)
}

void DeviceThenShard(Shard& shard) {
  MutexLock dev(device_mu_);   // rank 3 held...
  MutexLock latch(shard.mu);   // finding: lock-order (acquires rank 2)
  CopyOut(shard);
}

void BuildUnderSetsMu() {
  MutexLock lock(sets_mu_);    // rank 1 held...
  MutexLock build(build_mu_);  // finding: lock-order (acquires rank 0)
  BuildTables();
}

void DeviceUnderCatalog() {
  MutexLock lock(catalog_mu_);  // rank 4 held...
  MutexLock dev(device_mu_);    // finding: lock-order (acquires rank 3)
  ChargeRead();
}

}  // namespace ptldb
