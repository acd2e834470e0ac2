#include "ptldb/compiled.h"

#include <algorithm>
#include <limits>

#include "common/metrics.h"
#include "common/query_context.h"
#include "engine/arena.h"
#include "ptldb/label_merge.h"
#include "ptldb/tables.h"

namespace ptldb {

namespace {

// All per-request VM scratch, one instance per thread: the bump arena for
// aggregate tables and top-k staging, the decode targets for label and
// bucket rows. Everything here reaches its high-water size during the
// first requests and is reused (Reset / clear-keeping-capacity)
// afterwards — the zero-steady-state-allocation contract of the warm
// path. Queries run on one thread (the same contract as
// LocalQueryCounters), so no synchronization is needed.
struct VmState {
  Arena arena;
  RowScratch out_row;     // Decode target, out label.
  RowScratch in_row;      // Decode target, in label.
  RowScratch bucket_row;  // Probed bucket / naive rows (reused per row).
};

VmState& ThisThreadVmState() {
  static thread_local VmState state;
  return state;
}

// Loads one stop's lout/lin heap row into `view`. Returns false when the
// stop has no label (unknown stop / missing heap row) — the empty answer,
// not a fault. The view borrows `scratch`, which must outlive its use.
Result<bool> LoadLabel(EngineDatabase* db, const VmProgram& prog,
                       bool outbound, StopId v, RowScratch* scratch,
                       LabelRowView* view) {
  const EngineTable* table = outbound ? prog.lout : prog.lin;
  auto found =
      table->GetInto(static_cast<IndexKey>(v), db->buffer_pool(), scratch);
  PTLDB_RETURN_IF_ERROR(found.status());
  if (!*found) return false;
  // The three arrays are parallel by construction, so a mismatch means
  // the row decoded from a corrupt page.
  if (scratch->cols.size() < 4 || !scratch->cols[1].is_array ||
      !scratch->cols[2].is_array || !scratch->cols[3].is_array) {
    return Status::Corruption("label row has too few columns");
  }
  const auto hubs = scratch->array(1);
  const auto tds = scratch->array(2);
  const auto tas = scratch->array(3);
  if (tds.size() != hubs.size() || tas.size() != hubs.size()) {
    return Status::Corruption("label row arrays have unequal lengths");
  }
  *view = LabelRowView(hubs, tds, tas);
  return true;
}

// Bucket row layout (BuildBucketTables): 0 hub, 1 hour, 2 vs,
// 3 condensed time (tas for EA tables, tds for LD), 4 tds_exp, 5 vs_exp,
// 6 tas_exp. The condensed pair and the expanded triple are each
// parallel; a mismatch is corruption (the SQL interpreter's UNNEST agrees).
struct BucketRowView {
  std::span<const int32_t> vs;
  std::span<const int32_t> cond;
  std::span<const int32_t> tds_exp;
  std::span<const int32_t> vs_exp;
  std::span<const int32_t> tas_exp;
};

Status ViewBucketRow(const RowScratch& scratch, BucketRowView* view) {
  if (scratch.cols.size() < 7) {
    return Status::Corruption("bucket row has too few columns");
  }
  view->vs = scratch.array(2);
  view->cond = scratch.array(3);
  view->tds_exp = scratch.array(4);
  view->vs_exp = scratch.array(5);
  view->tas_exp = scratch.array(6);
  if (view->cond.size() != view->vs.size() ||
      view->vs_exp.size() != view->tds_exp.size() ||
      view->tas_exp.size() != view->tds_exp.size()) {
    return Status::Corruption("parallel UNNEST arrays have unequal lengths");
  }
  return Status::Ok();
}

// Folds `value` for stop `v` into the per-stop aggregate.
void AggMin(ArenaInt32Map* agg, int32_t v, int32_t value) {
  int32_t* slot = agg->FindOrInsert(v, value);
  *slot = std::min(*slot, value);
}

void AggMax(ArenaInt32Map* agg, int32_t v, int32_t value) {
  int32_t* slot = agg->FindOrInsert(v, value);
  *slot = std::max(*slot, value);
}

// Fused Code 3 scan (one kScanEaBuckets instruction), one bucket probe
// per hub. Code 3 joins every n1 tuple departing at or after t with its
// (hub, dephour) bucket row. Here each hub group of n1 probes once, with
// ta_min, the earliest arrival among the group's tuples departing at or
// after t, and that probe dominates the others: a tuple arriving at
// ta >= ta_min can board only bucket tuples with l2.td >= ta, a subset of
// what ta_min can board, and its later bucket row condenses only
// departures that ta_min's row condenses or lists expanded. So the
// per-stop minimum (OTM) is Code 3's exactly, and each stop of the top-k
// answer still reaches the aggregate through the first k condensed
// entries of its best hub. ta_min is a linear min over the group, exact
// whatever its ta order. Both branches fold into the global per-stop
// minimum, the expanded one with the ta_min <= l2.td feasibility check.
// Step accounting: one vm_step per hub probed and one per candidate
// element examined.
Status ScanEaBuckets(EngineDatabase* db, const VmProgram& prog,
                     const LabelRowView& n1, EventTime t, uint32_t k,
                     ArenaInt32Map* agg, RowScratch* scratch) {
  auto& counters = ThisThreadQueryCounters();
  BufferPool* pool = db->buffer_pool();
  // The query bound narrows saturating once; the scan then compares
  // stored int32 columns against a stored bound (see time_types.h).
  const StoredTime td_min = SaturatingToStoredTime(t);
  for (size_t lo = 0, hi = 0; lo < n1.size(); lo = hi) {
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    hi = HubGroupEnd(n1.hubs, lo);
    size_t best = hi;
    for (size_t i = lo; i < hi; ++i) {
      if (n1.tds[i] >= td_min && (best == hi || n1.tas[i] < n1.tas[best])) {
        best = i;
      }
    }
    if (best == hi) continue;  // No tuple of this hub departs at or after t.
    const int32_t ta_min = n1.tas[best];
    ++counters.vm_steps;
    auto found = prog.buckets->GetInto(
        MakeCompositeKey(n1.hubs[best],
                         StoredBucketOf(ta_min, prog.bucket_seconds)),
        pool, scratch);
    PTLDB_RETURN_IF_ERROR(found.status());
    if (!*found) continue;
    BucketRowView row;
    PTLDB_RETURN_IF_ERROR(ViewBucketRow(*scratch, &row));
    // Branch A: the condensed (v, ta) pairs, first k per bucket row (the
    // vs[1:k] slice of Code 3; k == 0 = OTM = no slice).
    const size_t lim =
        k == 0 ? row.vs.size() : std::min<size_t>(row.vs.size(), k);
    for (size_t j = 0; j < lim; ++j) {
      ++counters.vm_steps;
      AggMin(agg, row.vs[j], row.cond[j]);
    }
    // Branch B: expanded in-bucket tuples, still checking l1.ta <= l2.td.
    for (size_t j = 0; j < row.tds_exp.size(); ++j) {
      ++counters.vm_steps;
      if (ta_min <= row.tds_exp[j]) {
        AggMin(agg, row.vs_exp[j], row.tas_exp[j]);
      }
    }
  }
  return Status::Ok();
}

// The latest n1.td among the tuples of hub group [lo, hi) that arrive at
// or before `l2_td`, i.e. can board a bucket departure at l2_td; false
// when none can. A linear max, exact whatever the group's ta order.
bool LatestBoarding(const LabelRowView& n1, size_t lo, size_t hi,
                    int32_t l2_td, int32_t* td) {
  bool any = false;
  // analyzer: bounded(one hub group; ScanLdBuckets checkpoints per hub)
  for (size_t i = lo; i < hi; ++i) {
    if (n1.tas[i] <= l2_td && (!any || n1.tds[i] > *td)) {
      *td = n1.tds[i];
      any = true;
    }
  }
  return any;
}

// Fused Code 4 scan, one bucket probe per hub. Every n1 tuple of a hub
// probes the same (hub, arrhour) row, so the row is read once and each
// bucket element folds what Code 4's per-tuple join folds for it: the
// latest n1.td among the hub's tuples that can board it (n1.ta <= l2.td;
// branch B additionally needs l2.ta <= t). The aggregated value is the n1
// departure time (an LD query answers when to leave, not when to
// arrive). The fold is a linear max over the group, so it is exact
// whatever the group's ta order. Step accounting: one vm_step per hub
// probed and one per candidate element examined.
Status ScanLdBuckets(EngineDatabase* db, const VmProgram& prog,
                     const LabelRowView& n1, EventTime t, uint32_t k,
                     ArenaInt32Map* agg, RowScratch* scratch) {
  auto& counters = ThisThreadQueryCounters();
  BufferPool* pool = db->buffer_pool();
  // Deadlines beyond the indexed horizon clamp to the last event bucket.
  const int32_t arrhour =
      std::min(SaturatingBucketOf(t, prog.bucket_seconds), prog.max_bucket);
  const StoredTime ta_max = SaturatingToStoredTime(t);
  for (size_t lo = 0, hi = 0; lo < n1.size(); lo = hi) {
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    hi = HubGroupEnd(n1.hubs, lo);
    ++counters.vm_steps;
    auto found = prog.buckets->GetInto(
        MakeCompositeKey(n1.hubs[lo], arrhour), pool, scratch);
    PTLDB_RETURN_IF_ERROR(found.status());
    if (!*found) continue;
    BucketRowView row;
    PTLDB_RETURN_IF_ERROR(ViewBucketRow(*scratch, &row));
    int32_t td = 0;
    const size_t lim =
        k == 0 ? row.vs.size() : std::min<size_t>(row.vs.size(), k);
    for (size_t j = 0; j < lim; ++j) {
      ++counters.vm_steps;
      if (LatestBoarding(n1, lo, hi, row.cond[j], &td)) {
        AggMax(agg, row.vs[j], td);
      }
    }
    for (size_t j = 0; j < row.tds_exp.size(); ++j) {
      ++counters.vm_steps;
      if (row.tas_exp[j] <= ta_max &&
          LatestBoarding(n1, lo, hi, row.tds_exp[j], &td)) {
        AggMax(agg, row.vs_exp[j], td);
      }
    }
  }
  return Status::Ok();
}

// Code 2 scan (kScanEaNaive / kScanLdNaive), literally: every n1 label
// tuple joins the knn_naive rows of its hub that depart at or after
// l1.ta — the key range (hub, ta)..(hub, INT32_MAX) — and each row's
// first k (v, ta) pairs fold into the per-stop aggregate. EA keeps n1
// tuples departing at or after t and takes the minimum arrival; LD keeps
// every n1 tuple, drops pairs arriving after t and takes the maximum n1
// departure. There is no early exit: the full range walk is the cost
// Figure 3 measures. Step accounting: one vm_step per row read and one
// per pair examined. Kept out of line so the baseline does not grow
// RunCompiledSetQuery, the dispatch loop every optimized set query runs.
[[gnu::noinline]] Status ScanNaive(EngineDatabase* db, const VmProgram& prog, bool ld,
                 const LabelRowView& n1, EventTime t, uint32_t k,
                 ArenaInt32Map* agg, RowScratch* scratch) {
  auto& counters = ThisThreadQueryCounters();
  BufferPool* pool = db->buffer_pool();
  const StoredTime bound = SaturatingToStoredTime(t);
  for (size_t i = 0; i < n1.size(); ++i) {
    if (!ld && n1.tds[i] < bound) continue;
    const IndexKey last = MakeCompositeKey(
        n1.hubs[i], std::numeric_limits<int32_t>::max());
    auto cursor = prog.buckets->Seek(
        MakeCompositeKey(n1.hubs[i], n1.tas[i]), pool);
    for (; cursor.Valid() && cursor.key() <= last; cursor.Next()) {
      PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
      ++counters.vm_steps;
      PTLDB_RETURN_IF_ERROR(cursor.RowInto(scratch));
      // Naive row layout (BuildNaiveKnnTable): 0 hub, 1 td, 2 vs, 3 tas.
      if (scratch->cols.size() < 4) {
        return Status::Corruption("naive row has too few columns");
      }
      const auto vs = scratch->array(2);
      const auto tas = scratch->array(3);
      if (tas.size() != vs.size()) {
        return Status::Corruption(
            "parallel UNNEST arrays have unequal lengths");
      }
      const size_t lim = k == 0 ? vs.size() : std::min<size_t>(vs.size(), k);
      for (size_t j = 0; j < lim; ++j) {
        ++counters.vm_steps;
        if (!ld) {
          AggMin(agg, vs[j], tas[j]);
        } else if (tas[j] <= bound) {
          AggMax(agg, vs[j], n1.tds[i]);
        }
      }
    }
    // A faulted walk ends early with Valid() == false; surface the fault
    // instead of answering from the rows read so far.
    PTLDB_RETURN_IF_ERROR(cursor.status());
  }
  return Status::Ok();
}

}  // namespace

Result<VmProgram> CompileV2v(EngineDatabase* db, CompiledV2vKind kind) {
  VmProgram p;
  auto lout = RequireTable(db, kLoutTable);
  PTLDB_RETURN_IF_ERROR(lout.status());
  auto lin = RequireTable(db, kLinTable);
  PTLDB_RETURN_IF_ERROR(lin.status());
  p.lout = *lout;
  p.lin = *lin;
  p.empty_result = kind == CompiledV2vKind::kLd ? EventTime::NegInfinity()
                                                : EventTime::Infinity();
  p.Push(VmOp::kLoadOut, 0);
  p.Push(VmOp::kLoadIn, 1);
  switch (kind) {
    case CompiledV2vKind::kEa:
      p.Push(VmOp::kMergeEa, 0, 1);
      break;
    case CompiledV2vKind::kLd:
      p.Push(VmOp::kMergeLd, 0, 1);
      break;
    case CompiledV2vKind::kSd:
      p.Push(VmOp::kMergeSd, 0, 1);
      break;
  }
  return p;
}

Result<VmProgram> CompileSetQuery(EngineDatabase* db, VmOp scan,
                                  const std::string& table,
                                  Duration bucket_seconds,
                                  int32_t max_bucket) {
  const bool ld = scan == VmOp::kScanLdBuckets || scan == VmOp::kScanLdNaive;
  VmProgram p;
  auto lout = RequireTable(db, kLoutTable);
  PTLDB_RETURN_IF_ERROR(lout.status());
  auto scanned = RequireTable(db, table);
  PTLDB_RETURN_IF_ERROR(scanned.status());
  p.lout = *lout;
  p.buckets = *scanned;
  p.bucket_seconds = bucket_seconds;
  p.max_bucket = max_bucket;
  p.Push(VmOp::kLoadOut, 0);
  p.Push(scan, 0);
  p.Push(VmOp::kEmitTopK, ld ? 1 : 0);
  return p;
}

namespace {

// Walks a v2v program's load prefix into `reg` and returns the pending
// merge instruction. A kHalt return means the answer is empty — a label
// was absent (unknown stop / missing heap row) or the program had no
// merge — and the typed wrappers supply their domain's empty value.
Result<VmInstr> RunV2vLoads(EngineDatabase* db, const VmProgram& prog,
                            StopId s, StopId g, LabelRowView reg[2]) {
  VmState& state = ThisThreadVmState();
  state.arena.Reset();
  auto& counters = ThisThreadQueryCounters();
  for (uint8_t pc = 0; pc < prog.num_instrs; ++pc) {
    const VmInstr instr = prog.code[pc];
    ++counters.vm_steps;
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    switch (instr.op) {
      case VmOp::kLoadOut: {
        auto present = LoadLabel(db, prog, /*outbound=*/true, s,
                                 &state.out_row, &reg[instr.a]);
        PTLDB_RETURN_IF_ERROR(present.status());
        if (!*present) return VmInstr{VmOp::kHalt, 0, 0};
        break;
      }
      case VmOp::kLoadIn: {
        auto present = LoadLabel(db, prog, /*outbound=*/false, g,
                                 &state.in_row, &reg[instr.a]);
        PTLDB_RETURN_IF_ERROR(present.status());
        if (!*present) return VmInstr{VmOp::kHalt, 0, 0};
        break;
      }
      case VmOp::kMergeEa:
      case VmOp::kMergeLd:
      case VmOp::kMergeSd:
        return instr;
      case VmOp::kHalt:
        return instr;
      default:
        return Status::Internal("op not valid in a v2v program");
    }
  }
  return VmInstr{VmOp::kHalt, 0, 0};
}

}  // namespace

Result<EventTime> RunCompiledV2v(EngineDatabase* db, const VmProgram& prog,
                                 StopId s, StopId g, EventTime t,
                                 EventTime t_end) {
  LabelRowView reg[2];
  auto instr = RunV2vLoads(db, prog, s, g, reg);
  PTLDB_RETURN_IF_ERROR(instr.status());
  switch (instr->op) {
    case VmOp::kMergeEa:
      return MergeV2vEa(reg[instr->a], reg[instr->b], t);
    case VmOp::kMergeLd:
      return MergeV2vLd(reg[instr->a], reg[instr->b], t_end);
    case VmOp::kHalt:
      return prog.empty_result;
    default:
      return Status::Internal("program does not answer in the time domain");
  }
}

Result<Duration> RunCompiledV2vSd(EngineDatabase* db, const VmProgram& prog,
                                  StopId s, StopId g, EventTime t,
                                  EventTime t_end) {
  LabelRowView reg[2];
  auto instr = RunV2vLoads(db, prog, s, g, reg);
  PTLDB_RETURN_IF_ERROR(instr.status());
  switch (instr->op) {
    case VmOp::kMergeSd:
      return MergeV2vSd(reg[instr->a], reg[instr->b], t, t_end);
    case VmOp::kHalt:
      return Duration::Infinity();
    default:
      return Status::Internal("program does not answer in the span domain");
  }
}

Result<std::vector<StopTimeResult>> RunCompiledSetQuery(EngineDatabase* db,
                                                        const VmProgram& prog,
                                                        StopId q, EventTime t,
                                                        uint32_t k) {
  VmState& state = ThisThreadVmState();
  state.arena.Reset();
  auto& counters = ThisThreadQueryCounters();
  LabelRowView reg[2];
  // Absent n1 label (unknown stop): the scans are skipped and kEmitTopK
  // drains an empty aggregate, like Code 3's empty n1 CTE.
  bool have_label = false;
  ArenaInt32Map agg(&state.arena);
  for (uint8_t pc = 0; pc < prog.num_instrs; ++pc) {
    const VmInstr instr = prog.code[pc];
    ++counters.vm_steps;
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    switch (instr.op) {
      case VmOp::kLoadOut: {
        auto present = LoadLabel(db, prog, /*outbound=*/true, q,
                                 &state.out_row, &reg[instr.a]);
        PTLDB_RETURN_IF_ERROR(present.status());
        have_label = *present;
        break;
      }
      case VmOp::kScanEaBuckets:
        if (have_label) {
          PTLDB_RETURN_IF_ERROR(ScanEaBuckets(db, prog, reg[instr.a], t, k,
                                              &agg, &state.bucket_row));
        }
        break;
      case VmOp::kScanLdBuckets:
        if (have_label) {
          PTLDB_RETURN_IF_ERROR(ScanLdBuckets(db, prog, reg[instr.a], t, k,
                                              &agg, &state.bucket_row));
        }
        break;
      case VmOp::kScanEaNaive:
      case VmOp::kScanLdNaive:
        if (have_label) {
          PTLDB_RETURN_IF_ERROR(ScanNaive(
              db, prog, /*ld=*/instr.op == VmOp::kScanLdNaive, reg[instr.a],
              t, k, &agg, &state.bucket_row));
        }
        break;
      case VmOp::kEmitTopK: {
        // Drain the per-stop aggregate, order like the paper's ORDER BY
        // (time, then stop for determinism), cut to k. The one heap
        // allocation of a kNN query is the result vector itself.
        ArenaVector<StopTimeResult> staged(&state.arena);
        for (const auto& slot : agg.slots()) {
          if (slot.key == ArenaInt32Map::kEmptyKey) continue;
          staged.PushBack(
              {static_cast<StopId>(slot.key), FromStoredTime(slot.value)});
        }
        const bool desc = instr.a == 1;
        std::sort(staged.begin(), staged.end(),
                  [desc](const StopTimeResult& a, const StopTimeResult& b) {
                    if (a.time != b.time) {
                      return desc ? a.time > b.time : a.time < b.time;
                    }
                    return a.stop < b.stop;
                  });
        const size_t n =
            k == 0 ? staged.size() : std::min<size_t>(staged.size(), k);
        counters.rows_emitted += n;
        return std::vector<StopTimeResult>(staged.begin(),
                                           staged.begin() + n);
      }
      case VmOp::kHalt:
        return std::vector<StopTimeResult>{};
      default:
        return Status::Internal("op not valid in a set-query program");
    }
  }
  return std::vector<StopTimeResult>{};
}

}  // namespace ptldb
