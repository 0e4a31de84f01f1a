"""The JSONL serving front end: protocol, admission, and lifecycle."""

import io
import json
import threading
import types

import pytest

from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.errors import ReproError, ValidationError
from repro.parallel import IQServer, PersistentPool, serve_stream
from repro.parallel.server import _parse_request


@pytest.fixture
def engine(small_market):
    objects, queries, ks = small_market
    return ImprovementQueryEngine(Dataset(objects), QuerySet(queries, ks))


def request_line(i, kind="min_cost", target=0, goal=5.0, **extra):
    return json.dumps({"id": i, "kind": kind, "target": target, "goal": goal, **extra})


def responses(out):
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestProtocol:
    def test_end_to_end_responses_in_order(self, engine):
        lines = [request_line(i, target=i) for i in range(4)]
        out = io.StringIO()
        stats = serve_stream(engine, lines, out, workers=0)
        answered = responses(out)
        assert [r["id"] for r in answered] == [0, 1, 2, 3]
        assert all(r["ok"] for r in answered)
        assert stats.served == 4 and stats.failed == 0
        direct = engine.min_cost(2, tau=5)
        assert answered[2]["result"]["hits_after"] == direct.hits_after
        assert answered[2]["result"]["total_cost"] == direct.total_cost
        assert answered[2]["result"]["satisfied"] == direct.satisfied

    def test_max_hit_and_options_over_the_wire(self, engine):
        lines = [
            request_line(0, kind="max_hit", target=1, goal=0.8),
            request_line(1, kind="max_hit", target=1, goal=0.8,
                         method="random", options={"seed": 7}),
        ]
        out = io.StringIO()
        serve_stream(engine, lines, out, workers=0)
        answered = responses(out)
        direct = engine.max_hit(1, budget=0.8, method="random", seed=7)
        assert answered[1]["result"]["hits_after"] == direct.hits_after

    def test_invalid_json_gets_error_response(self, engine):
        out = io.StringIO()
        stats = serve_stream(engine, ["this is not json"], out, workers=0)
        answered = responses(out)
        assert answered[0]["ok"] is False
        assert "invalid JSON" in answered[0]["error"]
        assert stats.failed == 1 and stats.served == 0

    def test_unknown_kind_rejected_per_request(self, engine):
        lines = [request_line(0, kind="median"), request_line(1, target=1)]
        out = io.StringIO()
        stats = serve_stream(engine, lines, out, workers=0)
        answered = {r["id"]: r for r in responses(out)}
        assert answered[0]["ok"] is False and "kind" in answered[0]["error"]
        assert answered[1]["ok"] is True
        assert stats.failed == 1 and stats.served == 1

    def test_bad_options_answered_per_request(self, engine):
        lines = [
            request_line(0, options={"bogus": 1}),
            request_line(1, method="greedy", options={"seed": 0}),
            request_line(2, options={"margin": "x"}),
            request_line(3, options={"max_iterations": -5}),
            request_line(4, target=1),
        ]
        out = io.StringIO()
        stats = serve_stream(engine, lines, out, workers=0)
        answered = {r["id"]: r for r in responses(out)}
        for rid, named in ((0, "bogus"), (1, "seed"), (2, "margin"), (3, "max_iterations")):
            assert answered[rid]["ok"] is False
            assert answered[rid]["error"].startswith("ValidationError:"), answered[rid]
            assert named in answered[rid]["error"]
        assert "['margin', 'max_iterations']" in answered[0]["error"]
        assert answered[4]["ok"] is True
        assert stats.failed == 4 and stats.served == 1

    def test_execution_error_does_not_stop_the_stream(self, engine):
        lines = [request_line(0, target=10_000), request_line(1, target=1)]
        out = io.StringIO()
        stats = serve_stream(engine, lines, out, workers=0)
        answered = {r["id"]: r for r in responses(out)}
        assert answered[0]["ok"] is False
        assert answered[1]["ok"] is True
        assert stats.failed == 1 and stats.served == 1

    def test_goal_beyond_float_range_answered_inline(self, engine):
        lines = [request_line(0), request_line(1, goal=10**400), request_line(2, target=1)]
        out = io.StringIO()
        stats = serve_stream(engine, lines, out, workers=0)
        answered = {r["id"]: r for r in responses(out)}
        assert sorted(answered) == [0, 1, 2]
        assert answered[1]["ok"] is False and "too large" in answered[1]["error"]
        assert answered[0]["ok"] is True and answered[2]["ok"] is True
        assert stats.failed == 1 and stats.served == 2

    def test_unknown_op_rejected(self, engine):
        out = io.StringIO()
        serve_stream(engine, [json.dumps({"op": "reboot"})], out, workers=0)
        answered = responses(out)
        assert answered[0]["ok"] is False and "reboot" in answered[0]["error"]

    def test_non_object_line_rejected(self, engine):
        out = io.StringIO()
        serve_stream(engine, ["[1, 2, 3]"], out, workers=0)
        assert responses(out)[0]["ok"] is False

    def test_blank_lines_ignored(self, engine):
        out = io.StringIO()
        stats = serve_stream(engine, ["", "   ", request_line(0)], out, workers=0)
        assert stats.served == 1 and stats.failed == 0


class TestControlOps:
    def test_stats_op_reports_counters(self, engine):
        lines = [request_line(0), json.dumps({"op": "stats"})]
        out = io.StringIO()
        serve_stream(engine, lines, out, workers=0)
        stats_lines = [r for r in responses(out) if r.get("op") == "stats"]
        assert len(stats_lines) == 1
        assert "queued" in stats_lines[0]["stats"]
        assert stats_lines[0]["stats"]["workers"] == 0

    def test_mid_stream_stats_clock_is_running(self, engine):
        """Regression: ``seconds`` used to stay 0.0 until the stream ended.

        A stats op answered mid-stream must report the elapsed wall-clock
        at *read time* — and therefore a finite, non-zero throughput once
        anything has been served — not the stale field the old code only
        assigned after EOF.  The generator reader yields each stats op
        only after the preceding response has been emitted, so the
        ``served`` counts the snapshots must carry are deterministic.
        """
        import time

        out = io.StringIO()

        def answered(request_id):
            return any(r.get("id") == request_id for r in responses(out))

        def lines():
            yield request_line(0)
            while not answered(0):
                time.sleep(0.001)
            yield json.dumps({"op": "stats"})
            yield request_line(1, target=1)
            while not answered(1):
                time.sleep(0.001)
            yield json.dumps({"op": "stats"})

        serve_stream(engine, lines(), out, workers=0)
        stats_lines = [r["stats"] for r in responses(out) if r.get("op") == "stats"]
        assert len(stats_lines) == 2
        first, second = stats_lines
        assert first["seconds"] > 0.0
        assert second["seconds"] > first["seconds"]
        assert first["served"] == 1 and first["throughput"] > 0.0
        assert second["served"] == 2
        assert second["dispatch_seconds"] > 0.0
        assert second["avg_request_seconds"] > 0.0

    def test_stats_op_before_any_request_reports_zero_throughput(self, engine):
        # served == 0: the guarded division must yield 0.0, not a crash.
        out = io.StringIO()
        serve_stream(engine, [json.dumps({"op": "stats"})], out, workers=0)
        (reply,) = [r["stats"] for r in responses(out) if r.get("op") == "stats"]
        assert reply["served"] == 0
        assert reply["throughput"] == 0.0
        assert reply["avg_request_seconds"] == 0.0
        assert reply["seconds"] > 0.0

    def test_shutdown_drains_queued_requests(self, engine):
        lines = [request_line(i, target=i) for i in range(3)]
        lines.append(json.dumps({"op": "shutdown"}))
        lines.append(request_line(99))  # after shutdown: never read
        out = io.StringIO()
        stats = serve_stream(engine, lines, out, workers=0)
        answered = responses(out)
        ids = [r["id"] for r in answered if "id" in r]
        assert set(ids) == {0, 1, 2}  # 99 was not admitted
        assert any(r.get("op") == "shutdown" for r in answered)
        assert stats.served == 3


class _StubResult:
    """Duck-typed IQResult for driving the server without an engine."""

    def __init__(self, target):
        self.target = target
        self.strategy = types.SimpleNamespace(vector=[0.0])
        self.hits_before = 0
        self.hits_after = 1
        self.total_cost = 0.0
        self.satisfied = True
        self.evaluations = 1


class _BlockingPool:
    """A stand-in pool whose first dispatch blocks until released."""

    def __init__(self):
        self.workers = 0
        self.generation = 1
        self.restarts = 0
        self.started = threading.Event()
        self.release = threading.Event()

    def run_outcomes(self, requests):
        self.started.set()
        if not self.release.wait(timeout=10):
            raise ReproError("blocking stub was never released")
        return [(True, _StubResult(request.target)) for request in requests]


class TestAdmission:
    def test_queue_full_rejects_with_error(self):
        pool = _BlockingPool()
        server = IQServer(pool, batch_size=1, max_queue=1)

        def lines():
            yield request_line(0)
            # Wait until request 0 is being served (main loop blocked in
            # the stub), so admission decisions below are deterministic.
            if not pool.started.wait(timeout=10):
                raise AssertionError("server never dispatched request 0")
            yield request_line(1)  # fills the queue (max_queue=1)
            yield request_line(2)  # rejected
            yield request_line(3)  # rejected
            pool.release.set()

        out = io.StringIO()
        stats = server.serve(lines(), out)
        answered = {r["id"]: r for r in responses(out)}
        assert answered[0]["ok"] and answered[1]["ok"]
        assert not answered[2]["ok"] and "queue full" in answered[2]["error"]
        assert not answered[3]["ok"]
        assert stats.served == 2 and stats.rejected == 2

    def test_whole_batch_failure_answers_every_request(self):
        pool = _BlockingPool()
        pool.run_outcomes = lambda requests: (_ for _ in ()).throw(
            ReproError("workers died twice")
        )
        server = IQServer(pool, batch_size=4)
        out = io.StringIO()
        stats = server.serve([request_line(0), request_line(1)], out)
        answered = responses(out)
        assert all(not r["ok"] for r in answered)
        assert stats.failed == 2

    def test_bounds_validated(self, engine):
        with PersistentPool(engine, workers=0) as pool:
            with pytest.raises(ValidationError):
                IQServer(pool, batch_size=0)
            with pytest.raises(ValidationError):
                IQServer(pool, max_queue=0)


class TestLifecycle:
    def test_serve_not_reentrant(self):
        server = IQServer(_BlockingPool())
        server._serving = True
        with pytest.raises(ReproError, match="reentrant"):
            server.serve([], io.StringIO())

    def test_serve_borrows_the_pool(self, engine):
        lines = [request_line(0)]
        with PersistentPool(engine, workers=0) as pool:
            serve_stream(engine, lines, io.StringIO(), pool=pool)
            assert not pool.closed  # borrowed, not owned
            serve_stream(engine, lines, io.StringIO(), pool=pool)  # reusable

    def test_serve_rejects_foreign_pool(self, engine, small_market):
        objects, queries, ks = small_market
        other = ImprovementQueryEngine(Dataset(objects), QuerySet(queries, ks))
        with PersistentPool(other, workers=0) as pool:
            with pytest.raises(ValidationError, match="different engine"):
                serve_stream(engine, [], io.StringIO(), pool=pool)

    def test_stats_timing_and_throughput(self, engine):
        lines = [request_line(i, target=i) for i in range(3)]
        stats = serve_stream(engine, lines, io.StringIO(), workers=0)
        assert stats.seconds > 0
        assert stats.throughput > 0
        assert stats.batches >= 1
        payload = stats.as_dict()
        assert payload["served"] == 3 and payload["throughput"] == stats.throughput

    def test_pooled_serve_matches_serial_serve(self, engine):
        lines = [request_line(i, target=i) for i in range(4)] + [
            request_line(10 + i, kind="max_hit", target=i, goal=0.8) for i in range(4)
        ]
        serial_out, pooled_out = io.StringIO(), io.StringIO()
        serve_stream(engine, lines, serial_out, workers=0)
        serve_stream(engine, lines, pooled_out, workers=2)
        assert serial_out.getvalue() == pooled_out.getvalue()


class TestReaderFailure:
    def test_reader_exception_surfaces_after_drain(self, engine):
        """A dying client must not be silent: owed responses first, then raise."""

        def lines():
            yield request_line(0)
            raise OSError("client pipe vanished mid-stream")

        out = io.StringIO()
        with pytest.raises(ReproError, match="reader failed mid-stream"):
            serve_stream(engine, lines(), out, workers=0)
        answered = responses(out)
        assert [r["id"] for r in answered] == [0]
        assert answered[0]["ok"] is True

    def test_reader_kill_leaks_no_workers_or_segments(self, engine):
        """The owned pool shuts down even when the reader dies (forked leg)."""
        import multiprocessing

        before_children = {p.pid for p in multiprocessing.active_children()}

        def lines():
            yield request_line(0)
            raise OSError("client went away")

        with pytest.raises(ReproError, match="reader failed"):
            serve_stream(engine, lines(), io.StringIO(), workers=2)
        survivors = {p.pid for p in multiprocessing.active_children()} - before_children
        assert survivors == set()

    def test_server_survives_for_the_next_stream(self, engine):
        """One failed stream must not wedge the server or its pool."""

        def poisoned():
            yield request_line(0)
            raise ValueError("boom")

        with PersistentPool(engine, workers=0) as pool:
            server = IQServer(pool)
            with pytest.raises(ReproError):
                server.serve(poisoned(), io.StringIO())
            out = io.StringIO()
            stats = server.serve([request_line(1, target=1)], out)
            assert stats.served == 1
            assert responses(out)[0]["ok"] is True


class TestParseRequest:
    def test_missing_fields_rejected(self):
        for payload in (
            {},
            {"kind": "min_cost"},
            {"kind": "min_cost", "target": 0},
            {"kind": "min_cost", "target": "zero", "goal": 5},
            {"kind": "min_cost", "target": 0, "goal": "five"},
            {"kind": "min_cost", "target": True, "goal": 5},
            {"kind": "min_cost", "target": 0, "goal": 5, "method": 3},
            {"kind": "min_cost", "target": 0, "goal": 5, "options": [1]},
        ):
            with pytest.raises(ValidationError):
                _parse_request(payload)

    def test_options_become_sorted_tuples(self):
        request = _parse_request(
            {"kind": "max_hit", "target": 1, "goal": 0.5, "method": "random",
             "options": {"seed": 7, "attempts": 2}}
        )
        assert request.options == (("attempts", 2), ("seed", 7))
