#ifndef PTLDB_PTLDB_COMPILED_H_
#define PTLDB_PTLDB_COMPILED_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/time_util.h"
#include "engine/database.h"
#include "engine/vm.h"
#include "timetable/types.h"

namespace ptldb {

/// Compilation and execution of the VM programs (engine/vm.h) that answer
/// every PtldbDatabase query. The facade compiles each query type once —
/// the three Code 1 flavors at Build, the EA and LD bucket scans per
/// target set at AddTargetSet — and the entry points execute the stored
/// program; the two Code 2 naive baselines compile per call. Labels are
/// read from the lout/lin heap rows through the buffer pool. All
/// per-request scratch lives in a thread-local bump arena plus reusable
/// RowScratch buffers, so a warm VM query performs zero steady-state heap
/// allocations (bench_micro's allocation gate pins this).

enum class CompiledV2vKind { kEa, kLd, kSd };

/// Compiles one Code 1 flavor against the lout/lin heap tables. Cheap
/// (pointer binding); call once per database build. Fails with
/// kInvalidArgument when a label table has not been built.
Result<VmProgram> CompileV2v(EngineDatabase* db, CompiledV2vKind kind);

/// Compiles one set query — kLoadOut, the `scan` op over `table`,
/// kEmitTopK — for Code 3/4 (kScan{Ea,Ld}Buckets over a bucket table:
/// the facade binds otm_ea_<set> / otm_ld_<set> for kNN and one-to-many
/// alike) or the Code 2 baseline (kScan{Ea,Ld}Naive over
/// knn_naive_<set>). LD ops emit in descending time order. Fails with
/// kInvalidArgument when `table` or lout has not been built.
Result<VmProgram> CompileSetQuery(EngineDatabase* db, VmOp scan,
                                  const std::string& table,
                                  Duration bucket_seconds,
                                  int32_t max_bucket);

/// Executes a compiled EA or LD Code 1 program (answers are points on
/// the service clock). `t_end` is ignored by EA, `t` by LD.
Result<EventTime> RunCompiledV2v(EngineDatabase* db, const VmProgram& prog,
                                 StopId s, StopId g, EventTime t,
                                 EventTime t_end);

/// Executes a compiled SD Code 1 program (the answer is a span, not a
/// point).
Result<Duration> RunCompiledV2vSd(EngineDatabase* db, const VmProgram& prog,
                                  StopId s, StopId g, EventTime t,
                                  EventTime t_end);

/// Executes a compiled Code 3/4 program. k == 0 selects the one-to-many
/// variant (no candidate or output limit).
Result<std::vector<StopTimeResult>> RunCompiledSetQuery(EngineDatabase* db,
                                                        const VmProgram& prog,
                                                        StopId q, EventTime t,
                                                        uint32_t k);

}  // namespace ptldb

#endif  // PTLDB_PTLDB_COMPILED_H_
