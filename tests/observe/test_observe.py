"""The stage recorder: null path, nesting, and the observing scope."""

import pytest

from repro.observe import (
    COUNTERS,
    STAGES,
    StageRecorder,
    observing,
    stage,
    tally,
)
from repro.observe.stats import _NULL


class TestInactive:
    def test_stage_is_shared_noop_when_inactive(self):
        assert stage("plan") is _NULL
        assert stage("solve") is _NULL

    def test_tally_is_noop_when_inactive(self):
        tally("evaluations")  # must not raise, must not create state
        with stage("candidates"):
            tally("candidates", 5)


class TestRecording:
    def test_stage_seconds_accumulate(self):
        recorder = StageRecorder()
        with observing(recorder):
            with stage("solve"):
                pass
            with stage("solve"):
                pass
        assert recorder.seconds["solve"] > 0.0
        assert recorder.seconds.get("plan", 0.0) == 0.0

    def test_counters_accumulate(self):
        recorder = StageRecorder()
        with observing(recorder):
            tally("evaluations")
            tally("evaluations", 3)
            tally("candidates", 7)
        assert recorder.counts["evaluations"] == 4
        assert recorder.counts["candidates"] == 7

    def test_nested_stages_both_accumulate(self):
        # candidates wraps evaluate in the real hot path; per-stage
        # seconds are honest per-region wall-clock, not exclusive time.
        recorder = StageRecorder()
        with observing(recorder):
            with stage("candidates"):
                with stage("evaluate"):
                    pass
        assert recorder.seconds["candidates"] >= recorder.seconds["evaluate"]
        assert recorder.seconds["evaluate"] > 0.0

    def test_observing_restores_previous_recorder(self):
        outer, inner = StageRecorder(), StageRecorder()
        with observing(outer):
            with observing(inner):
                tally("iterations")
            tally("iterations")
        assert inner.counts["iterations"] == 1
        assert outer.counts["iterations"] == 1

    def test_observing_deactivates_on_exception(self):
        recorder = StageRecorder()
        with pytest.raises(RuntimeError):
            with observing(recorder):
                raise RuntimeError("boom")
        assert stage("plan") is _NULL


class TestVocabulary:
    def test_stage_and_counter_names_are_the_documented_sets(self):
        assert STAGES == ("plan", "candidates", "evaluate", "solve")
        assert COUNTERS == ("candidates", "evaluations", "pruned", "iterations")
