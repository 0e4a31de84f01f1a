"""Feedback rule: every auto kernel choice must cite a recorded stat."""

from dataclasses import dataclass

from repro.observe import StatsStore, choose_kernel


@dataclass
class FakeExecuted:
    fingerprint: str = "kind=min_cost|mode=exact|sense=min|d=3|n=32|m=32"
    solver_name: str = "efficient"
    total_seconds: float = 0.002
    evaluations: int = 19
    kernel_backend: str = "python"
    workers: int = 0
    shards: int = 0


FP = FakeExecuted.fingerprint


class TestChooseKernel:
    def test_single_backend_yields_no_choice(self):
        store = StatsStore(None)
        store.record(FakeExecuted())
        assert choose_kernel(store, FP, ("python", "native")) is None

    def test_two_backends_pick_fastest_available(self):
        store = StatsStore(None)
        store.record(FakeExecuted(kernel_backend="python", total_seconds=0.05))
        store.record(FakeExecuted(kernel_backend="native", total_seconds=0.01))
        choice = choose_kernel(store, FP, ("python", "native"))
        assert choice is not None and choice.value == "native"
        assert "kernel" in choice.note and FP in choice.note

    def test_fastest_unavailable_backend_not_chosen(self):
        store = StatsStore(None)
        store.record(FakeExecuted(kernel_backend="python", total_seconds=0.05))
        store.record(FakeExecuted(kernel_backend="native", total_seconds=0.01))
        choice = choose_kernel(store, FP, ("python",))
        assert choice is None or choice.value == "python"
