#!/usr/bin/env python3
"""Unit tests for scripts/ptldb_analyzer.py.

The analyzer is a blocking CI gate, so its checks are regression-tested
like code: every fixture tree under tests/lint/analyzer/ seeds one bug
class (or one blessed idiom) and this suite pins what the analyzer must
say about it. Run directly or via ctest (`analyzer_selftest`); plain
stdlib unittest, no third-party deps.
"""

import importlib.util
import os
import sys
import tempfile
import unittest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_ANALYZER_PATH = os.path.join(_REPO_ROOT, "scripts", "ptldb_analyzer.py")
_FIXTURES = os.path.join(_REPO_ROOT, "tests", "lint", "analyzer")

_spec = importlib.util.spec_from_file_location("ptldb_analyzer",
                                               _ANALYZER_PATH)
analyzer = importlib.util.module_from_spec(_spec)
sys.modules["ptldb_analyzer"] = analyzer  # dataclass field resolution
_spec.loader.exec_module(analyzer)


def run_tree(name, checks=None):
    """Analyzes a fixture tree; returns the list of check ids found."""
    findings, _, _ = analyzer.analyze_paths(
        [os.path.join(_FIXTURES, name)], checks=checks)
    return [f.check for f in findings]


def run_source(source, rel_path="src/engine/something.cc", checks=None):
    """Analyzes `source` as if it lived at `rel_path` inside a tree (the
    path suffix drives check scoping); returns the check-id list."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, rel_path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(source)
        findings, _, _ = analyzer.analyze_paths([d], checks=checks)
        return [f.check for f in findings]


class TokenizerTest(unittest.TestCase):
    def test_compound_assignment_is_one_token(self):
        toks = analyzer.tokenize("clock += headway;")
        self.assertIn("+=", [t.text for t in toks])

    def test_comments_and_strings_blanked(self):
        clean, _ = analyzer.strip_comments_and_strings(
            'int x;  // MutexLock lock(sets_mu_);\ns = "shard.mu";\n')
        self.assertNotIn("sets_mu_", clean)
        self.assertNotIn("shard.mu", clean)
        self.assertIn("int x;", clean)

    def test_nolint_recorded_per_line(self):
        _, nolint = analyzer.strip_comments_and_strings(
            "a;\nb;  // NOLINT(time-width)\nc;  // NOLINT\n")
        self.assertEqual({"time-width"}, nolint[2])
        self.assertEqual({"*"}, nolint[3])

    def test_bounded_annotation_recorded(self):
        _, nolint = analyzer.strip_comments_and_strings(
            "// analyzer: bounded(binary search)\nwhile (l < h) {}\n")
        self.assertIn("bounded", nolint[1])


class FunctionExtractionTest(unittest.TestCase):
    def test_functions_loops_and_calls(self):
        clean, _ = analyzer.strip_comments_and_strings(
            "Status Merge(int n) {\n"
            "  for (int i = 0; i < n; ++i) { Fold(i); }\n"
            "  return Status::Ok();\n"
            "}\n")
        fns = analyzer.extract_functions("x.cc", analyzer.tokenize(clean))
        self.assertEqual(["Merge"], [f.name for f in fns])
        analyzer.analyze_function_body(fns[0], "x.cc")
        self.assertEqual(1, len(fns[0].loops))
        self.assertIn("Fold", fns[0].calls)

    def test_qualified_method_name(self):
        clean, _ = analyzer.strip_comments_and_strings(
            "void Pool::Drop() { Evict(); }\n")
        fns = analyzer.extract_functions("x.cc", analyzer.tokenize(clean))
        self.assertEqual(["Pool::Drop"], [f.name for f in fns])


class TimeWidthTest(unittest.TestCase):
    def test_bad_fixture_tree(self):
        checks = run_tree("time_width_bad")
        self.assertEqual(3, checks.count("time-width"))

    def test_ok_fixture_tree_clean(self):
        self.assertEqual([], run_tree("time_width_ok"))

    def test_generator_int32_clock_revert_is_caught(self):
        # Reverting the typed event clock in the timetable generator back
        # to the int32 accumulator must re-trip the gate.
        checks = run_source(
            "void Emit(EventTime start, int headway, int n) {\n"
            "  int32_t clock = 0;\n"
            "  for (int i = 0; i < n; ++i) {\n"
            "    clock += headway;\n"
            "  }\n"
            "}\n",
            rel_path="src/timetable/generator.cc")
        self.assertIn("time-width", checks)

    def test_narrowing_cast_of_raw_seconds(self):
        self.assertIn("time-width", run_source(
            "int F(EventTime t) {\n"
            "  return static_cast<int>(t.raw_seconds());\n"
            "}\n"))

    def test_int64_stays_clean(self):
        self.assertEqual([], run_source(
            "int64_t F(EventTime t) {\n"
            "  int64_t s = t.raw_seconds();\n"
            "  return static_cast<int64_t>(t.raw_seconds()) + s;\n"
            "}\n"))

    def test_time_types_allowlisted(self):
        self.assertEqual([], run_source(
            "StoredTime ToStoredTime(EventTime t) {\n"
            "  return static_cast<StoredTime>(t.raw_seconds());\n"
            "}\n",
            rel_path="src/common/time_types.h"))

    def test_nolint_suppresses(self):
        self.assertEqual([], run_source(
            "int F(EventTime t) {\n"
            "  return static_cast<int>(t.raw_seconds());"
            "  // NOLINT(time-width)\n"
            "}\n"))


class CheckpointTest(unittest.TestCase):
    def test_bad_fixture_tree(self):
        self.assertEqual(["checkpoint"], run_tree("checkpoint_bad"))

    def test_ok_fixture_tree_clean(self):
        # Direct call, transitive reach, header-position call, and the
        # bounded annotation must all satisfy the check.
        self.assertEqual([], run_tree("checkpoint_ok"))

    def test_scoped_to_kernel_paths(self):
        # The same unchecked loop outside the executor/VM/merge files is
        # not this check's business.
        src = ("void Scan(size_t n) {\n"
               "  size_t i = 0;\n"
               "  while (i < n) { ++i; }\n"
               "}\n")
        self.assertIn("checkpoint",
                      run_source(src, rel_path="src/ptldb/label_merge.h"))
        self.assertEqual(
            [], run_source(src, rel_path="src/common/thread_pool.cc"))

    def test_inner_loops_not_double_flagged(self):
        # Only the outermost loop carries the obligation.
        checks = run_source(
            "void Scan(size_t n) {\n"
            "  for (size_t i = 0; i < n; ++i) {\n"
            "    for (size_t j = 0; j < n; ++j) { Fold(i, j); }\n"
            "  }\n"
            "}\n",
            rel_path="src/engine/vm.h")
        self.assertEqual(["checkpoint"], checks)


class GuardEscapeTest(unittest.TestCase):
    def test_bad_fixture_tree(self):
        self.assertEqual(4, run_tree("guard_escape_bad").count(
            "guard-escape"))

    def test_ok_fixture_tree_clean(self):
        self.assertEqual([], run_tree("guard_escape_ok"))

    def test_buffer_pool_allowlisted(self):
        self.assertEqual([], run_source(
            "const Page* Frame(PageGuard g) { return g.get(); }\n",
            rel_path="src/engine/buffer_pool.h"))


class LockOrderTest(unittest.TestCase):
    def test_bad_fixture_tree(self):
        self.assertEqual(5, run_tree("lock_order_bad").count("lock-order"))

    def test_ok_fixture_tree_clean(self):
        # Descending order, callee descent, explicit Unlock ending a
        # scope, and leaf mutexes must all pass.
        self.assertEqual([], run_tree("lock_order_ok"))

    def test_device_mu_ranked_only_in_device_files(self):
        src = ("void F(Shard& shard) {\n"
               "  MutexLock lock(mu_);\n"
               "  MutexLock latch(shard.mu);\n"
               "}\n")
        self.assertIn("lock-order",
                      run_source(src, rel_path="src/engine/device.cc"))
        # Elsewhere a bare mu_ is an unranked leaf.
        self.assertEqual(
            [], run_source(src, rel_path="src/server/server.cc"))


class CliTest(unittest.TestCase):
    def test_clean_tree_exits_zero(self):
        self.assertEqual(0, analyzer.main(
            [os.path.join(_FIXTURES, "time_width_ok")]))

    def test_findings_exit_one(self):
        self.assertEqual(1, analyzer.main(
            [os.path.join(_FIXTURES, "time_width_bad")]))

    def test_no_args_usage_error(self):
        self.assertEqual(2, analyzer.main([]))

    def test_missing_path_exits_two(self):
        with self.assertRaises(SystemExit) as ctx:
            analyzer.main([os.path.join(os.sep, "no", "such", "tree")])
        self.assertEqual(2, ctx.exception.code)

    def test_list_checks(self):
        self.assertEqual(0, analyzer.main(["--list-checks"]))

    def test_src_tree_is_clean(self):
        """The real tree must satisfy its own analyzer gate."""
        src = os.path.join(_REPO_ROOT, "src")
        db = os.path.join(_REPO_ROOT, "build", "compile_commands.json")
        args = ["-p", db, src] if os.path.isfile(db) else [src]
        self.assertEqual(0, analyzer.main(args))


if __name__ == "__main__":
    sys.stdout = sys.stderr  # unittest writes to stderr; keep ctest logs tidy
    unittest.main(verbosity=2)
