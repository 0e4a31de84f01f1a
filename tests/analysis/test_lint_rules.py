"""Each RPR rule has a fixture that triggers it and one that suppresses it."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import LintConfig, lint_file


def lint_source(tmp_path, source, name="mod.py", **config):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_file(path, LintConfig(**config))


def codes(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# RPR001: literal tolerances
# ----------------------------------------------------------------------
class TestToleranceLiteral:
    def test_triggers_on_in_band_literal(self, tmp_path):
        findings = lint_source(tmp_path, "TOL = 1e-9\n", select=frozenset({"RPR001"}))
        assert codes(findings) == ["RPR001"]
        assert findings[0].line == 1

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "TOL = 1e-9  # repro: noqa[RPR001]\n",
            select=frozenset({"RPR001"}),
        )
        assert findings == []

    def test_bare_noqa_suppresses_every_rule(self, tmp_path):
        findings = lint_source(tmp_path, "TOL = 1e-9  # repro: noqa\n")
        assert findings == []

    def test_out_of_band_literals_pass(self, tmp_path):
        source = """\
        GUARD = 1e-300
        LIMIT = 1e18
        HALF = 0.5
        COUNT = 7
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR001"})) == []

    def test_constants_module_is_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path, "EPS = 1e-12\n", name="constants.py", select=frozenset({"RPR001"})
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPR002: asserts / bare exceptions
# ----------------------------------------------------------------------
class TestRuntimeInvariant:
    def test_triggers_on_assert(self, tmp_path):
        findings = lint_source(
            tmp_path, "assert 1 + 1 == 2\n", select=frozenset({"RPR002"})
        )
        assert codes(findings) == ["RPR002"]

    def test_triggers_on_bare_exception_raise(self, tmp_path):
        source = """\
        def f() -> None:
            raise Exception("boom")
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR002"}))
        assert codes(findings) == ["RPR002"]

    def test_repro_error_raise_passes(self, tmp_path):
        source = """\
        from repro.errors import ValidationError

        def f() -> None:
            raise ValidationError("boom")
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR002"})) == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "assert True  # repro: noqa[RPR002]\n",
            select=frozenset({"RPR002"}),
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPR003: unvalidated ndarray parameters
# ----------------------------------------------------------------------
class TestArrayValidation:
    def test_triggers_on_unvalidated_public_function(self, tmp_path):
        source = """\
        import numpy as np

        def total(values: np.ndarray) -> float:
            return float(values.sum())
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR003"}))
        assert codes(findings) == ["RPR003"]
        assert "values" in findings[0].message

    def test_asarray_counts_as_validation(self, tmp_path):
        source = """\
        import numpy as np

        def total(values: np.ndarray) -> float:
            values = np.asarray(values, dtype=float)
            return float(values.sum())
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR003"})) == []

    def test_delegating_to_a_validating_helper_counts(self, tmp_path):
        source = """\
        import numpy as np

        def _coerce(values: object) -> np.ndarray:
            return np.asarray(values, dtype=float)

        def total(values: np.ndarray) -> float:
            return float(_coerce(values).sum())
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR003"})) == []

    def test_private_and_nested_functions_are_exempt(self, tmp_path):
        source = """\
        import numpy as np

        def _helper(values: np.ndarray) -> float:
            return float(values.sum())

        def outer() -> float:
            def inner(values: np.ndarray) -> float:
                return float(values.sum())
            return inner(np.zeros(3))
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR003"}))
        assert [f for f in findings if f.rule == "RPR003"] == []

    def test_noqa_suppresses(self, tmp_path):
        source = """\
        import numpy as np

        def total(values: np.ndarray) -> float:  # repro: noqa[RPR003]
            return float(values.sum())
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR003"})) == []


# ----------------------------------------------------------------------
# RPR004: mutable defaults
# ----------------------------------------------------------------------
class TestMutableDefault:
    def test_triggers_on_list_literal_default(self, tmp_path):
        source = """\
        def collect(item: int, into: list = []) -> list:
            into.append(item)
            return into
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR004"}))
        assert codes(findings) == ["RPR004"]

    def test_triggers_on_dict_call_default(self, tmp_path):
        source = """\
        def collect(cache: dict = dict()) -> dict:
            return cache
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR004"}))
        assert codes(findings) == ["RPR004"]

    def test_none_default_passes(self, tmp_path):
        source = """\
        def collect(item: int, into: list | None = None) -> list:
            into = [] if into is None else into
            into.append(item)
            return into
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR004"})) == []

    def test_noqa_suppresses(self, tmp_path):
        source = """\
        def collect(into: list = []) -> list:  # repro: noqa[RPR004]
            return into
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR004"})) == []


# ----------------------------------------------------------------------
# RPR005: parity coverage for a reference and its production counterpart
# ----------------------------------------------------------------------
PARITY_SOURCE = """\
def find_subdomains(normals, points) -> None:
    pass
"""


class TestParityCoverage:
    def write_project(self, tmp_path, test_text):
        src = tmp_path / "proj" / "src"
        src.mkdir(parents=True)
        (src / "mod.py").write_text(PARITY_SOURCE)
        tests = tmp_path / "proj" / "tests"
        tests.mkdir()
        (tests / "test_mod.py").write_text(test_text)
        return src / "mod.py", tests

    def test_triggers_without_two_variant_test(self, tmp_path):
        mod, tests = self.write_project(
            tmp_path,
            "def test_only_one():\n"
            "    assert find_subdomains(normals, points) == signature_matrix(points, normals)\n",
        )
        findings = lint_file(
            mod, LintConfig(select=frozenset({"RPR005"}), tests_root=tests)
        )
        assert codes(findings) == ["RPR005"]

    def test_two_variant_test_satisfies_the_rule(self, tmp_path):
        mod, tests = self.write_project(
            tmp_path,
            "def test_parity():\n"
            "    sides = signature_matrix(points, normals)\n"
            "    assert find_subdomains(normals, points) == unique_signatures(sides)\n",
        )
        findings = lint_file(
            mod, LintConfig(select=frozenset({"RPR005"}), tests_root=tests)
        )
        assert findings == []

    def test_names_inside_a_string_cover_nothing(self, tmp_path):
        mod, tests = self.write_project(
            tmp_path,
            "FIXTURE = 'find_subdomains(n, p) == unique_signatures(signature_matrix(p, n))'\n"
            "\n"
            "def test_fixture():\n"
            "    assert FIXTURE\n",
        )
        findings = lint_file(
            mod, LintConfig(select=frozenset({"RPR005"}), tests_root=tests)
        )
        assert codes(findings) == ["RPR005"]

    def test_noqa_suppresses(self, tmp_path):
        src = tmp_path / "proj" / "src"
        src.mkdir(parents=True)
        mod = src / "mod.py"
        mod.write_text(
            "def find_subdomains() -> None:  # repro: noqa[RPR005]\n    pass\n"
        )
        tests = tmp_path / "proj" / "tests"
        tests.mkdir()
        findings = lint_file(
            mod, LintConfig(select=frozenset({"RPR005"}), tests_root=tests)
        )
        assert findings == []

    def test_unrelated_symbols_are_ignored(self, tmp_path):
        findings = lint_source(
            tmp_path, "def unrelated() -> None:\n    pass\n", select=frozenset({"RPR005"})
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPR006: solver calls must go through the registry
# ----------------------------------------------------------------------
class TestSolverDispatch:
    def test_triggers_on_direct_call(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "result = min_cost_iq(evaluator, 0, 5, cost)\n",
            select=frozenset({"RPR006"}),
        )
        assert codes(findings) == ["RPR006"]
        assert "get_solver" in findings[0].message

    def test_triggers_on_attribute_call(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import repro.baselines.greedy as g\n"
            "result = g.greedy_max_hit_iq(evaluator, 0, 1.0, cost)\n",
            select=frozenset({"RPR006"}),
        )
        assert codes(findings) == ["RPR006"]

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "result = min_cost_iq(evaluator, 0, 5, cost)  # repro: noqa[RPR006]\n",
            select=frozenset({"RPR006"}),
        )
        assert findings == []

    def test_solvers_module_is_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "result = min_cost_iq(evaluator, 0, 5, cost)\n",
            name="solvers.py",
            select=frozenset({"RPR006"}),
        )
        assert findings == []

    def test_reference_without_call_is_fine(self, tmp_path):
        # reduction.py passes max_hit_iq as a default oracle argument;
        # only *calls* bypass the registry.
        findings = lint_source(
            tmp_path,
            "def reduce(oracle=max_hit_iq):\n    return oracle\n",
            select=frozenset({"RPR006"}),
        )
        assert findings == []

    def test_registry_dispatch_is_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "result = get_solver('efficient').min_cost(evaluator, 0, 5, cost)\n",
            select=frozenset({"RPR006"}),
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPR007: multiprocessing stays inside repro/parallel/
# ----------------------------------------------------------------------
class TestParallelImport:
    def test_triggers_on_multiprocessing_import(self, tmp_path):
        findings = lint_source(
            tmp_path, "import multiprocessing\n", select=frozenset({"RPR007"})
        )
        assert codes(findings) == ["RPR007"]
        assert "repro.parallel" in findings[0].message

    def test_triggers_on_submodule_and_from_imports(self, tmp_path):
        source = """\
        import concurrent.futures
        from multiprocessing import shared_memory
        from concurrent.futures import ProcessPoolExecutor
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR007"}))
        assert codes(findings) == ["RPR007"]
        assert len(findings) == 3

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import multiprocessing  # repro: noqa[RPR007]\n",
            select=frozenset({"RPR007"}),
        )
        assert findings == []

    def test_parallel_package_is_exempt(self, tmp_path):
        package = tmp_path / "parallel"
        package.mkdir()
        findings = lint_source(
            package,
            "from concurrent.futures import ProcessPoolExecutor\n",
            name="pool.py",
            select=frozenset({"RPR007"}),
        )
        assert findings == []

    def test_importing_the_layer_api_is_fine(self, tmp_path):
        source = """\
        from repro.parallel import run_batch, resolve_workers
        import concurrentmap  # unrelated root sharing a prefix
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR007"}))
        assert findings == []


# ----------------------------------------------------------------------
# Framework behaviour
# ----------------------------------------------------------------------
class TestFramework:
    def test_syntax_error_becomes_rpr000_finding(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert codes(findings) == ["RPR000"]

    def test_multi_code_noqa(self, tmp_path):
        findings = lint_source(
            tmp_path, "assert 1e-9  # repro: noqa[RPR001,RPR002]\n"
        )
        assert findings == []

    def test_noqa_for_another_rule_does_not_suppress(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "TOL = 1e-9  # repro: noqa[RPR002]\n",
            select=frozenset({"RPR001"}),
        )
        assert codes(findings) == ["RPR001"]

    def test_ignore_filter_disables_a_rule(self, tmp_path):
        findings = lint_source(tmp_path, "TOL = 1e-9\n", ignore=frozenset({"RPR001"}))
        assert findings == []

    def test_findings_sort_by_location(self, tmp_path):
        source = """\
        B = 1e-9
        assert True
        """
        findings = lint_source(tmp_path, source)
        assert [f.line for f in findings] == sorted(f.line for f in findings)


# ----------------------------------------------------------------------
# RPR014: monotonic-clock reads confined to repro/observe
# ----------------------------------------------------------------------
class TestTimingSource:
    def test_triggers_on_perf_counter_call(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import time\nstart = time.perf_counter()\n",
            select=frozenset({"RPR014"}),
        )
        assert codes(findings) == ["RPR014"]
        assert findings[0].line == 2

    def test_triggers_on_from_time_import(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from time import perf_counter\n",
            select=frozenset({"RPR014"}),
        )
        assert codes(findings) == ["RPR014"]

    def test_triggers_on_monotonic_and_ns_variants(self, tmp_path):
        source = """\
        import time
        a = time.monotonic()
        b = time.perf_counter_ns()
        c = time.process_time()
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR014"}))
        assert len(findings) == 3

    def test_observe_layer_exempt(self, tmp_path):
        (tmp_path / "observe").mkdir()
        path = tmp_path / "observe" / "clock.py"
        path.write_text("from time import perf_counter\nnow = perf_counter\n")
        findings = lint_file(path, LintConfig(select=frozenset({"RPR014"})))
        assert findings == []

    def test_wall_clock_time_time_passes(self, tmp_path):
        # time.time() is a wall clock, not a monotonic measurement seam;
        # RPR014 targets duration measurement only.
        findings = lint_source(
            tmp_path,
            "import time\nstamp = time.time()\n",
            select=frozenset({"RPR014"}),
        )
        assert findings == []

    def test_observe_clock_import_passes(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from repro.observe.clock import Stopwatch, now, time_call\n",
            select=frozenset({"RPR014"}),
        )
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import time\nt = time.perf_counter()  # repro: noqa[RPR014]\n",
            select=frozenset({"RPR014"}),
        )
        assert findings == []


# ----------------------------------------------------------------------
# Self-application: the library obeys its own rules
# ----------------------------------------------------------------------
def test_repro_source_tree_is_lint_clean():
    """`repro lint src/repro` must exit clean on the shipped tree."""
    package_root = Path(__file__).resolve().parents[2] / "src" / "repro"
    if not package_root.is_dir():  # repro installed without sources
        pytest.skip("src/repro not present relative to the test tree")
    from repro.analysis import lint_paths

    findings, checked = lint_paths([package_root])
    assert checked > 0
    assert findings == [], "\n" + "\n".join(f.format_human() for f in findings)
