// Legal locking: acquisitions descend the hierarchy, explicit Unlock ends
// a scope before a sibling acquisition, and leaf mutexes (unranked) are
// outside the ordering discipline entirely.
#include "ptldb/ptldb.h"

namespace ptldb {

void DescendingOrder(Shard& shard) {
  MutexLock lock(sets_mu_);    // rank 1
  MutexLock latch(shard.mu);   // rank 2: descending, clean.
  MutexLock dev(device_mu_);   // rank 3: still descending, clean.
  CopyOut(shard);
}

void AcquiresDeviceMu() {
  MutexLock dev(device_mu_);
  ChargeRead();
}

void DescendsThroughCallee(Shard& shard) {
  MutexLock latch(shard.mu);  // rank 2 held...
  AcquiresDeviceMu();         // callee takes rank 3: descending, clean.
}

void UnlockEndsScope(Shard& shard) {
  MutexLock latch(shard.mu);
  ReadRows(shard);
  latch.Unlock();             // rank 2 released...
  MutexLock lock(sets_mu_);   // ...so taking rank 1 now is clean.
  RebuildSets();
}

void LeafMutexIgnored() {
  MutexLock lock(stats_mu_);  // unranked leaf: not part of the hierarchy.
  MutexLock dev(device_mu_);
  ChargeRead();
}

void LooksUpCatalog() {
  MutexLock lock(catalog_mu_);
  FindEntry();
}

void RegistersUnderBuildMu() {
  MutexLock build(build_mu_);  // rank 0: outermost.
  {
    MutexLock lock(sets_mu_);  // rank 1: descending, clean.
    CheckName();
  }
  LooksUpCatalog();            // callee takes rank 4: descending, clean.
  MutexLock lock(sets_mu_);    // rank 1 again under rank 0: clean.
  Publish();
}

void CatalogUnderDevice() {
  MutexLock dev(device_mu_);    // rank 3 held...
  MutexLock lock(catalog_mu_);  // rank 4: innermost, clean.
  FindEntry();
}

}  // namespace ptldb
