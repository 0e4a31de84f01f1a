import itertools
import json
import threading
import time

import numpy as np
import pytest

from iqbench.spec import WORKLOAD_NAMES
from iqbench.speed import HostSpeed
from iqbench.workloads import (
    DATA_SEED, ZIPF_EXPONENT, LoadClient, _rng, serve_stream, stream_digest, target_stream,
)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_same_seed_gives_the_same_request_stream(workload):
    assert stream_digest(workload, 5, 300) == stream_digest(workload, 5, 300)
    assert stream_digest(workload, 5, 300) != stream_digest(workload, 6, 300)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_streams_hold_their_share_of_dear_targets(seed):
    ranked = np.arange(200) % 25 == 0  # 8 of 200
    order = list(itertools.islice(target_stream(seed, ranked), 400))
    assert sorted(order[:200]) == list(range(200))  # each object once per pass
    for prefix in (50, 125, 330):
        assert abs(ranked[order[:prefix]].sum() - prefix * 8 / 200) <= 1

    n, count = 300, 1000
    weights = np.tile(1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT, 2)
    expected = count * weights / weights.sum()
    rank = np.argsort(_rng(DATA_SEED, "popularity").permutation(n))  # target -> popularity rank
    drawn = np.zeros(2 * n)
    for _, kind, target, _ in serve_stream(seed, n, count):
        drawn[rank[target] + (n if kind == "max_hit" else 0)] += 1
    assert np.all(np.abs(drawn - expected) < 1)  # every (kind, object) pair within one
    assert drawn[:n].sum() == count // 2


def _echo_server(client: LoadClient, stall: float) -> threading.Thread:
    """Answers every request, the first one only after ``stall`` seconds."""

    def serve() -> None:
        for i, line in enumerate(client.lines()):
            if i == 0:
                time.sleep(stall)
            client.write(json.dumps({"id": json.loads(line)["id"], "ok": True}) + "\n")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


def _requests():
    request_id = 0
    while True:
        yield request_id, "min_cost", 0, json.dumps({"id": request_id})
        request_id += 1


def test_open_loop_latency_runs_from_due_time_through_a_stall():
    client = LoadClient(HostSpeed())
    server = _echo_server(client, stall=0.2)
    ids = client.open_loop(_requests(), rate=100.0, count=10)
    client.finish()
    server.join(5)
    responded = client.responded()
    latency = {i: responded[i][0] - client.due_at[i] for i in ids}
    # Requests due during the stall wait behind it: their latency counts
    # from when they were due, although the generator was never late.
    assert max(client.late(ids)) < 0.05
    assert latency[ids[5]] > 0.1
    assert latency[ids[0]] >= 0.2


class _SlowSender(LoadClient):
    def _send(self, request_id, line):
        time.sleep(0.03)
        super()._send(request_id, line)


def test_open_loop_reports_how_late_the_generator_ran():
    client = _SlowSender(HostSpeed())
    server = _echo_server(client, stall=0.0)
    ids = client.open_loop(_requests(), rate=100.0, count=10)
    client.finish()
    server.join(5)
    dues = [client.due_at[i] for i in ids]
    assert all(b - a == pytest.approx(0.01, abs=1e-6) for a, b in zip(dues, dues[1:]))
    late = client.late(ids)
    assert late[-1] > 0.15  # ~20 ms behind per request
    responded = client.responded()
    assert all(responded[i][0] - client.due_at[i] >= lag for i, lag in zip(ids, late))
