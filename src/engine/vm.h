#ifndef PTLDB_ENGINE_VM_H_
#define PTLDB_ENGINE_VM_H_

#include <array>
#include <cstdint>

#include "common/time_util.h"

namespace ptldb {

class EngineTable;

/// Compiled query programs: each of the paper's Codes 1-4 (v2v EA/LD/SD,
/// kNN and one-to-many in both directions) compiles once — at
/// PtldbDatabase::Build for the v2v family, at AddTargetSet for the
/// bucket family — into a short register program of fused macro-ops that
/// ptldb/compiled.cc executes against pinned pages with all scratch in a
/// per-request bump arena (engine/arena.h). The Code 2 naive kNN
/// baselines compile per call into the same program shape. Programs are
/// the facade's only executor; the SQL interpreter (sql/interpreter.h)
/// runs SQL text.
///
/// The ops are deliberately coarse: one instruction is one whole phase of
/// a paper query (load a label, merge two labels, scan bucket or naive
/// rows for one n1 label, drain a top-k aggregate). Fine-grained per-row
/// bytecode would just re-create the interpreter's dispatch cost; the win
/// here is that inside each macro-op the loop is monomorphic,
/// allocation-free and checkpointed, while the program layer keeps query
/// *selection* a data lookup instead of a code path.
///
/// Instrumentation: executing a program bumps
/// LocalQueryCounters::vm_steps — one unit per instruction dispatched,
/// per bucket probed or naive row read, and per candidate tuple examined
/// — alongside the same index_seeks / tuples_scanned / hubs_merged /
/// label_comparisons the interpreter maintains, so facade span stats
/// equal engine counters exactly. The bucket scans probe once per hub of
/// the n1 label, not once per tuple as Codes 3/4 join (the dominance
/// argument is in compiled.cc), so a set query's vm_steps count one unit
/// per hub probed.
enum class VmOp : uint8_t {
  kHalt = 0,       ///< End of program.
  kLoadOut,        ///< r[a] = outbound label of the query source stop.
  kLoadIn,         ///< r[a] = inbound label of the query target stop.
  kMergeEa,        ///< result = EA common-hub merge of r[a], r[b].
  kMergeLd,        ///< result = LD common-hub merge of r[a], r[b].
  kMergeSd,        ///< result = SD common-hub merge of r[a], r[b].
  kScanEaBuckets,  ///< Fused Code-3 scan: one EA bucket probe per r[a] hub.
  kScanLdBuckets,  ///< Fused Code-4 scan: one LD bucket probe per r[a] hub.
  kScanEaNaive,    ///< Code-2 scan: r[a] n1 label x knn_naive range, EA.
  kScanLdNaive,    ///< Code-2 scan: r[a] n1 label x knn_naive range, LD.
  kEmitTopK,       ///< Drain aggregate, sort (a: 0=time asc, 1=desc), cut k.
};

struct VmInstr {
  VmOp op = VmOp::kHalt;
  uint8_t a = 0;  ///< Register / direction operand (op-specific).
  uint8_t b = 0;  ///< Second register operand (merges only).
};

/// A compiled query program plus the immutable plan constants it runs
/// against. Plain data, trivially copyable: PtldbDatabase stores one per
/// query type and hands out copies by value (target_sets() snapshots
/// include them). The EngineTable pointers are borrowed from the owning
/// database and stay valid for its lifetime — the same contract as the
/// interpreter's plan nodes. Compilation fails instead of producing a
/// program with an unbound input, so every stored program is runnable.
struct VmProgram {
  static constexpr size_t kMaxCode = 8;

  std::array<VmInstr, kMaxCode> code{};
  uint8_t num_instrs = 0;

  /// Bound inputs (resolved once at compile time, never re-looked-up).
  const EngineTable* lout = nullptr;     ///< Outbound label table.
  const EngineTable* lin = nullptr;      ///< Inbound label table.
  /// The set table the scan op reads: an otm_ bucket table, or
  /// knn_naive_<set> for the Code 2 programs.
  const EngineTable* buckets = nullptr;

  /// Plan constants for the bucket family.
  Duration bucket_seconds = Duration::Zero();
  int32_t max_bucket = 0;

  /// Sentinel an EA/LD v2v program returns when no journey exists / a
  /// label is absent (Infinity for EA, NegInfinity for LD). SD programs
  /// answer in the Duration domain; their executor supplies
  /// Duration::Infinity() itself.
  EventTime empty_result = EventTime::Infinity();

  void Push(VmOp op, uint8_t a = 0, uint8_t b = 0) {
    code[num_instrs++] = VmInstr{op, a, b};
  }
};

}  // namespace ptldb

#endif  // PTLDB_ENGINE_VM_H_
