#!/usr/bin/env python3
"""PTLDB project linter: PTLDB-specific invariants clang-tidy cannot express.

Rules (suppress one occurrence with `// NOLINT` or `// NOLINT(<rule>)`):

  void-cast-status     Bare `(void)expr` / `static_cast<void>(expr)` casts.
                       They silence [[nodiscard]] on Status/Result without
                       leaving a searchable record; intentional drops must go
                       through PTLDB_IGNORE_STATUS(expr) (common/status.h).

  naked-mutex          `std::mutex` / `std::lock_guard` / `std::unique_lock` /
                       `std::condition_variable` etc. outside
                       src/common/thread_annotations.h. Only the annotated
                       Mutex/MutexLock/CondVar wrappers carry the capability
                       attributes Clang Thread Safety Analysis checks, so a
                       naked standard mutex is an unanalyzed lock.

  page-pointer-escape  A raw `const Page*` binding (variable or member)
                       outside the buffer-pool internals. Page bytes are only
                       valid while a PageGuard pin is alive; storing the raw
                       pointer recreates the use-after-evict bug the guards
                       eliminated. Hold the PageGuard instead.

  ttl-nondeterminism   Nondeterministic sources (random_device, rand/srand,
                       wall-clock time, getenv) in TTL build paths. The TTL
                       index must be byte-identical for every thread count
                       and every run; monotonic steady_clock timing for
                       progress metrics is fine, data-affecting entropy is
                       not.

  unbounded-wait       An unbounded blocking wait on the serving request
                       path (src/server/, src/engine/vm.h,
                       src/ptldb/compiled.*): CondVar::Wait
                       or ThreadPool::Wait with no timeout, or a
                       std::future/promise (whose .get()/.wait() block
                       forever). A worker parked on an unbounded wait can
                       sleep through shutdown or a lost notify and wedge
                       the queue; every wait there must be bounded
                       (CondVar::WaitFor / WaitUntil inside a predicate
                       loop that re-checks stop/deadline state each tick).

  raw-diagnostic       Raw diagnostic output (`fprintf`, `printf`, `puts`,
                       `fputs`, `std::cerr`, `std::cout`, `std::clog`) in
                       library code under src/. A library must not write to
                       the process's streams behind its caller's back:
                       diagnostics belong in Status messages, the metrics
                       registry, the query log or the trace tree, all of
                       which are queryable (system tables, Prometheus text)
                       instead of lost to a console. `snprintf` into a
                       buffer is string formatting, not output, and is fine.

  vm-hot-path-alloc    Heap allocation in the compiled-VM hot path
                       (src/engine/vm.h, src/ptldb/compiled.*): `new`,
                       make_unique/make_shared, or std-container growth
                       (push_back / emplace / resize / reserve). The warm
                       VM query path must carve every byte of scratch from
                       the per-request bump arena (src/engine/arena.h,
                       the one sanctioned allocation point), which resets
                       in O(1); a stray container or naked new silently
                       reintroduces steady-state heap traffic that the
                       bench allocation gate only catches much later.

  value-on-temporary   `.value()` chained directly onto a freshly returned
                       Result temporary (`Fetch(id).value()`): nothing checked
                       ok() first, so a fault becomes an assert/UB instead of
                       a propagated Status. `std::move(checked).value()` after
                       an ok() check is the sanctioned unwrap idiom and is
                       allowed.

Exit status: 0 when clean, 1 when findings were printed, 2 on usage errors.
Usage: ptldb_lint.py [--list-rules] <file-or-dir>...
"""

import os
import re
import sys

CXX_EXTENSIONS = {".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx"}
SKIP_DIR_PREFIXES = ("build", "bench_cache", ".git", "results")

# Files allowed to break specific rules (repo-relative path suffixes).
ALLOWLIST = {
    # The one definition point of the sanctioned static_cast<void>.
    "void-cast-status": ["src/common/status.h"],
    # The wrappers themselves wrap the naked primitives.
    "naked-mutex": ["src/common/thread_annotations.h"],
    # Buffer-pool internals manage raw frames under the shard latch;
    # page/pager/device define and transport Page objects themselves.
    "page-pointer-escape": [
        "src/engine/buffer_pool.h",
        "src/engine/page.h",
        "src/engine/pager.h",
        "src/engine/device.h",
    ],
    # The checked-narrowing abort path: the process is about to die on a
    # corrupt-index invariant, and stderr is the only channel that still
    # exists on the way into std::abort().
    "raw-diagnostic": ["src/common/time_types.cc"],
}

# Paths whose build output must be bit-reproducible.
DETERMINISTIC_PATHS = ["src/ttl/", "src/timetable/generator"]

# Paths on the serving request path, where every blocking wait must be
# bounded (see the unbounded-wait rule).
REQUEST_WAIT_PATHS = ["src/server/", "src/engine/vm.h",
                      "src/ptldb/compiled."]

# The compiled-VM hot path, where all scratch must come from the arena
# (see the vm-hot-path-alloc rule). arena.h itself is the sanctioned
# allocation point and is deliberately not listed.
VM_HOT_PATHS = ["src/engine/vm.h", "src/ptldb/compiled.h",
                "src/ptldb/compiled.cc"]

RE_VOID_CAST = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_:(]|static_cast\s*<\s*void\s*>")
RE_NAKED_MUTEX = re.compile(
    r"std\s*::\s*(?:recursive_|timed_|shared_|recursive_timed_|shared_timed_)?"
    r"(?:mutex|lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(?:_any)?)\b"
)
RE_PAGE_PTR = re.compile(r"\bconst\s+Page\s*\*|\bPage\s+const\s*\*")
RE_NONDETERMINISM = re.compile(
    r"std\s*::\s*random_device|\b(?:s?rand)\s*\(|system_clock\b|"
    r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)|\bgetenv\s*\("
)
RE_VALUE_CALL = re.compile(r"\)\s*\.\s*value\s*\(\s*\)")
# \b keeps snprintf/vsnprintf (buffer formatting) from matching printf.
RE_RAW_DIAGNOSTIC = re.compile(
    r"\b(?:fprintf|printf|vfprintf|vprintf|puts|fputs|putc|putchar|"
    r"perror)\s*\(|std\s*::\s*(?:cerr|cout|clog)\b"
)
# `.Wait(` / `->Wait(` only: `WaitFor(` / `WaitUntil(` have letters between
# the method name and the paren and do not match.
RE_UNBOUNDED_WAIT = re.compile(
    r"(?:\.|->)\s*Wait\s*\(|"
    r"\bstd\s*::\s*(?:future|promise|packaged_task|latch|barrier|"
    r"counting_semaphore|binary_semaphore)\b"
)
# `new` as an allocation: the keyword itself (placement new included —
# the arena is the only sanctioned placement target and lives elsewhere).
RE_VM_ALLOC = re.compile(
    r"\bnew\b|\bmake_unique\s*<|\bmake_shared\s*<|"
    r"(?:\.|->)\s*(?:push_back|emplace_back|emplace|resize|reserve)\s*\("
)
RE_NOLINT = re.compile(r"//\s*NOLINT(?:\(([^)]*)\))?")


def strip_comments_and_strings(text):
    """Blanks out comment bodies and string/char literals, preserving layout.

    AST-lite: a single linear scan handling //, /* */, "..." and '...' with
    escapes. Replacement uses spaces so line/column arithmetic still holds.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and nxt == "*":
            j = i + 2
            while j < n and not (text[j] == "*" and j + 1 < n and text[j + 1] == "/"):
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            for k in (i, i + 1, j, j + 1):
                if k < n and text[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\" and j + 1 < n:
                    out[j] = " "
                    j += 1
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            i = j + 1
        else:
            i += 1
    return "".join(out)


def allowed(rule, rel_path):
    return any(rel_path.endswith(suffix) for suffix in ALLOWLIST.get(rule, []))


def suppressed(raw_line, rule):
    m = RE_NOLINT.search(raw_line)
    if not m:
        return False
    names = m.group(1)
    return names is None or rule in [s.strip() for s in names.split(",")]


def preceding_call_is_move(line, close_paren_idx):
    """For `<ident>(...)` ending at close_paren_idx, is <ident> `move`?"""
    depth = 0
    i = close_paren_idx
    while i >= 0:
        if line[i] == ")":
            depth += 1
        elif line[i] == "(":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    if i < 0:
        return False  # Open paren on an earlier line: be conservative, flag.
    j = i - 1
    while j >= 0 and line[j].isspace():
        j -= 1
    end = j + 1
    while j >= 0 and (line[j].isalnum() or line[j] == "_"):
        j -= 1
    return line[j + 1:end] == "move"


def lint_file(path, rel_path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        print(f"{rel_path}: cannot read: {e}", file=sys.stderr)
        return [(rel_path, 0, "io-error", str(e))]
    stripped = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    findings = []

    def report(lineno, rule, message):
        if allowed(rule, rel_path):
            return
        if suppressed(raw_lines[lineno - 1], rule):
            return
        findings.append((rel_path, lineno, rule, message))

    deterministic = any(p in rel_path for p in DETERMINISTIC_PATHS)
    request_path = any(p in rel_path for p in REQUEST_WAIT_PATHS)
    vm_hot_path = any(rel_path.endswith(p) for p in VM_HOT_PATHS)

    for lineno, line in enumerate(stripped.splitlines(), start=1):
        if RE_VOID_CAST.search(line):
            report(lineno, "void-cast-status",
                   "bare void cast; use PTLDB_IGNORE_STATUS(expr) for an "
                   "intentional Status/Result drop")
        if RE_NAKED_MUTEX.search(line):
            report(lineno, "naked-mutex",
                   "naked std synchronization primitive; use the annotated "
                   "Mutex/MutexLock/CondVar wrappers from "
                   "common/thread_annotations.h")
        if RE_PAGE_PTR.search(line):
            report(lineno, "page-pointer-escape",
                   "raw `const Page*` binding; page bytes are only valid "
                   "while a PageGuard pin is alive — hold the guard instead")
        if deterministic and RE_NONDETERMINISM.search(line):
            report(lineno, "ttl-nondeterminism",
                   "nondeterministic source in a deterministic build path; "
                   "TTL preprocessing must be byte-reproducible")
        if request_path and RE_UNBOUNDED_WAIT.search(line):
            report(lineno, "unbounded-wait",
                   "unbounded blocking wait on the serving request path; "
                   "use CondVar::WaitFor/WaitUntil in a predicate loop so "
                   "the waiter re-checks stop/deadline state every tick")
        if vm_hot_path and RE_VM_ALLOC.search(line):
            report(lineno, "vm-hot-path-alloc",
                   "heap allocation in the compiled-VM hot path; carve "
                   "scratch from the per-request arena (engine/arena.h) "
                   "so the warm path stays allocation-free")
        if RE_RAW_DIAGNOSTIC.search(line):
            report(lineno, "raw-diagnostic",
                   "raw stream/stdio output in library code; surface "
                   "diagnostics through Status, metrics, the query log or "
                   "the trace tree instead of writing to the console")
        for m in RE_VALUE_CALL.finditer(line):
            if not preceding_call_is_move(line, m.start()):
                report(lineno, "value-on-temporary",
                       ".value() on an unchecked temporary; check ok() "
                       "first, then unwrap with std::move(checked).value()")
    return findings


def iter_sources(paths):
    for top in paths:
        if os.path.isfile(top):
            yield top
            continue
        if not os.path.isdir(top):
            print(f"ptldb_lint: no such file or directory: {top}",
                  file=sys.stderr)
            sys.exit(2)
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs
                             if not d.startswith(SKIP_DIR_PREFIXES))
            for name in sorted(files):
                if os.path.splitext(name)[1] in CXX_EXTENSIONS:
                    yield os.path.join(root, name)


def main(argv):
    args = [a for a in argv[1:] if a != "--list-rules"]
    if "--list-rules" in argv:
        for rule in ("void-cast-status", "naked-mutex", "page-pointer-escape",
                     "ttl-nondeterminism", "unbounded-wait", "raw-diagnostic",
                     "vm-hot-path-alloc", "value-on-temporary"):
            print(rule)
        return 0
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    cwd = os.getcwd()
    findings = []
    checked = 0
    for path in iter_sources(args):
        rel = os.path.relpath(path, cwd).replace(os.sep, "/")
        findings.extend(lint_file(path, rel))
        checked += 1
    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"ptldb_lint: {len(findings)} finding(s) in {checked} file(s)",
              file=sys.stderr)
        return 1
    print(f"ptldb_lint: clean ({checked} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
