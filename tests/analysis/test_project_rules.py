"""The project-wide concurrency rules (RPR008, RPR010, RPR011) and the
native-backend rule (RPR013): trigger and noqa fixtures per rule,
cross-file reachability, and the meta-test asserting ``src/repro``
itself carries zero unsuppressed findings."""

import textwrap
from pathlib import Path

from repro.analysis import LintConfig, lint_file, lint_paths

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def lint_source(tmp_path, source, name="mod.py", **config):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_file(path, LintConfig(**config))


def lint_tree(tmp_path, sources, **config):
    """Write several modules and lint them as one run (shared project)."""
    for name, source in sources.items():
        path = tmp_path / name
        path.write_text(textwrap.dedent(source))
    findings, __ = lint_paths([tmp_path], LintConfig(**config))
    return findings


def codes(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# RPR008: fork-shared mutable globals reachable from worker code
# ----------------------------------------------------------------------
class TestForkSafety:
    POOL_WITH_GLOBAL = """\
    from concurrent.futures import ProcessPoolExecutor

    _CACHE = {}

    def _init_worker(token):
        value = _CACHE.get(token)
        return value

    def start():
        return ProcessPoolExecutor(max_workers=2, initializer=_init_worker)
    """

    def test_triggers_on_global_in_initializer(self, tmp_path):
        findings = lint_source(
            tmp_path, self.POOL_WITH_GLOBAL, select=frozenset({"RPR008"})
        )
        assert codes(findings) == ["RPR008"]
        assert "_CACHE" in findings[0].message
        assert "_init_worker" in findings[0].message
        # Flagged at the textually-first reference so one noqa covers it.
        assert findings[0].line == 6

    def test_noqa_on_first_reference_suppresses(self, tmp_path):
        source = self.POOL_WITH_GLOBAL.replace(
            "value = _CACHE.get(token)",
            "value = _CACHE.get(token)  # repro: noqa[RPR008]",
        )
        assert lint_source(tmp_path, source, select=frozenset({"RPR008"})) == []

    def test_triggers_on_submitted_task_function(self, tmp_path):
        source = """\
        _RESULTS = []

        def task(chunk):
            _RESULTS.append(chunk)

        def dispatch(executor, chunks):
            return [executor.submit(task, chunk) for chunk in chunks]
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR008"}))
        assert codes(findings) == ["RPR008"]
        assert "task" in findings[0].message

    def test_triggers_transitively_through_helpers(self, tmp_path):
        source = """\
        from multiprocessing import Process

        _STATE = {}

        def helper():
            return _STATE

        def entry():
            return helper()

        def start():
            return Process(target=entry)
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR008"}))
        assert codes(findings) == ["RPR008"]
        assert "helper" in findings[0].message

    def test_lambda_entry_is_flagged(self, tmp_path):
        source = """\
        from concurrent.futures import ProcessPoolExecutor

        def start():
            return ProcessPoolExecutor(initializer=lambda: None)
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR008"}))
        assert codes(findings) == ["RPR008"]
        assert "lambda" in findings[0].message

    def test_global_unused_by_workers_passes(self, tmp_path):
        source = """\
        from concurrent.futures import ProcessPoolExecutor

        _PARENT_ONLY = {}

        def _init_worker(token):
            return token

        def start():
            _PARENT_ONLY["x"] = 1
            return ProcessPoolExecutor(initializer=_init_worker)
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR008"})) == []

    def test_cross_file_entry_point_reaches_worker_module(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "worker.py": """\
                _SEEN = []

                def init_worker(token):
                    _SEEN.append(token)
                """,
                "driver.py": """\
                from concurrent.futures import ProcessPoolExecutor

                from worker import init_worker

                def start():
                    return ProcessPoolExecutor(initializer=init_worker)
                """,
            },
            select=frozenset({"RPR008"}),
        )
        assert codes(findings) == ["RPR008"]
        assert findings[0].path.endswith("worker.py")


# ----------------------------------------------------------------------
# RPR010: epoch discipline for index-owned array writes
# ----------------------------------------------------------------------
class TestEpochDiscipline:
    def test_triggers_on_silent_rebinding(self, tmp_path):
        source = """\
        def clobber(index, fresh):
            index.normals = fresh
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR010"}))
        assert codes(findings) == ["RPR010"]
        assert "notify_mutation" in findings[0].message

    def test_triggers_on_element_store(self, tmp_path):
        source = """\
        def poke(index, row, value):
            index._weights[row] = value
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR010"}))
        assert codes(findings) == ["RPR010"]

    def test_triggers_on_setattr_rebinding(self, tmp_path):
        source = """\
        def swap(owner, name, array):
            setattr(owner, name, array)
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR010"}))
        assert codes(findings) == ["RPR010"]

    def test_notify_mutation_in_scope_passes(self, tmp_path):
        source = """\
        def rebuild(index, fresh):
            index.normals = fresh
            notify_mutation(index)
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR010"})) == []

    def test_self_writes_pass(self, tmp_path):
        source = """\
        class Owner:
            def set_normals(self, fresh):
                self.normals = fresh
                self._weights[0] = 1.0
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR010"})) == []

    def test_updates_module_is_exempt(self, tmp_path):
        source = """\
        def apply(index, fresh):
            index.normals = fresh
        """
        findings = lint_source(
            tmp_path, source, name="updates.py", select=frozenset({"RPR010"})
        )
        assert findings == []

    def test_index_defining_module_is_exempt(self, tmp_path):
        source = """\
        class SubdomainIndex:
            pass

        def rebind(index, fresh):
            index.normals = fresh
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR010"})) == []

    def test_noqa_suppresses(self, tmp_path):
        source = """\
        def swap(owner, array):
            setattr(owner, "normals", array)  # repro: noqa[RPR010]
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR010"})) == []

    def test_triggers_on_cell_state_rebinding(self, tmp_path):
        # kth_other reads these; a silent write would leave it answering
        # from the old cells.
        source = """\
        def regroup(index, cells, owners, chosen, ranking, lengths):
            index.signatures = cells
            index.subdomain_of = owners
            index.representatives = chosen
            index.prefixes = ranking
            index.prefix_lengths = lengths
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR010"}))
        assert codes(findings) == ["RPR010"]
        assert len(findings) == 5

    def test_triggers_on_stores_into_every_index_array(self, tmp_path):
        source = """\
        def poke(index):
            index.signatures[0, 0] = 1

        def clear(index):
            index.prefixes[3] = -1

        def trim(index):
            index.pairs = index.pairs[:1]
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR010"}))
        assert sorted(f.line for f in findings) == [2, 5, 8]

    def test_noqa_suppresses_cell_state_rebinding(self, tmp_path):
        source = """\
        def corrupt(index, ranking):
            index.prefixes = ranking  # repro: noqa[RPR010]
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR010"})) == []


# ----------------------------------------------------------------------
# RPR011: no blocking calls while holding a lock
# ----------------------------------------------------------------------
class TestBlockingUnderLock:
    def test_triggers_on_io_under_lock(self, tmp_path):
        source = """\
        import threading

        _LOCK = threading.Lock()

        def emit(writer, text):
            with _LOCK:
                writer.write(text)
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR011"}))
        assert codes(findings) == ["RPR011"]
        assert "write()" in findings[0].message

    def test_triggers_transitively_through_helper(self, tmp_path):
        source = """\
        import threading

        _LOCK = threading.Lock()

        def flush_out(writer):
            writer.flush()

        def emit(writer):
            with _LOCK:
                flush_out(writer)
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR011"}))
        assert codes(findings) == ["RPR011"]
        assert "flush_out" in findings[0].message

    def test_condition_wait_is_sanctioned(self, tmp_path):
        source = """\
        def drain(cond, queue):
            with cond:
                while not queue:
                    cond.wait()
                cond.notify_all()
                return queue.popleft()
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR011"})) == []

    def test_compute_under_lock_passes(self, tmp_path):
        source = """\
        import threading

        _LOCK = threading.Lock()

        def admit(queue, item, bound):
            with _LOCK:
                if len(queue) < bound:
                    queue.append(item)
                    return True
            return False
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR011"})) == []

    def test_non_lock_context_managers_pass(self, tmp_path):
        source = """\
        def copy(src, dst):
            with open(src) as handle:
                dst.write(handle.read())
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR011"})) == []

    def test_noqa_suppresses(self, tmp_path):
        source = """\
        import threading

        _LOCK = threading.Lock()

        def emit(writer, text):
            with _LOCK:
                writer.write(text)  # repro: noqa[RPR011]
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR011"})) == []


# ----------------------------------------------------------------------
# RPR013: compiled backends confined to repro/native, with python twins
# ----------------------------------------------------------------------
class TestNativeBackend:
    """RPR013: a compiled-backend import is a finding in any file."""

    def test_triggers_on_compiled_import_outside_native(self, tmp_path):
        source = """\
        import numba

        def hot(values):
            return numba.njit(lambda v: v)(values)
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR013"}))
        assert codes(findings) == ["RPR013"]
        assert "numba" in findings[0].message
        assert "no compiled kernel backend" in findings[0].message

    def test_triggers_on_from_import_of_compiled_root(self, tmp_path):
        source = """\
        from llvmlite import binding
        """
        findings = lint_source(tmp_path, source, select=frozenset({"RPR013"}))
        assert codes(findings) == ["RPR013"]

    def test_noqa_suppresses_guarded_import(self, tmp_path):
        source = """\
        import numba  # repro: noqa[RPR013]
        """
        assert lint_source(tmp_path, source, select=frozenset({"RPR013"})) == []

    def test_compiled_import_inside_native_dir_triggers(self, tmp_path):
        # The old native/ exemption is gone: the path buys no pass.
        (tmp_path / "native").mkdir()
        source = """\
        from numba import njit
        """
        findings = lint_source(
            tmp_path, source, name="native/jit.py", select=frozenset({"RPR013"})
        )
        assert codes(findings) == ["RPR013"]


# ----------------------------------------------------------------------
# Meta: the library itself holds the concurrency invariants
# ----------------------------------------------------------------------
class TestLibraryIsClean:
    def test_src_repro_has_zero_unsuppressed_findings(self):
        findings, checked = lint_paths(
            [REPO_SRC],
            LintConfig(
                select=frozenset({"RPR008", "RPR010", "RPR011", "RPR013"})
            ),
        )
        assert checked > 50  # the whole library, not a subset
        assert findings == [], "\n".join(f.format_human() for f in findings)
