"""Fast self-tests of the benchmark's tracer and correctness checks.

Every check the benchmark relies on is fed a deliberately wrong answer here
and must trip; the tracer must nest, subtract child time and put back what
it wrapped.
"""

from __future__ import annotations

import dataclasses
import types

import pytest

from perfbench.checks import (
    ReferenceAnswers,
    check_lot,
    check_paper_gate,
    compare_diagnosis,
)
from perfbench.tracer import Tracer


class FakeClock:
    """A nanosecond clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


class Target:
    def work(self, value):
        return value * 2


def helper(value):
    return value + 1


# ------------------------------------------------------------------- tracer
def test_nested_spans_subtract_child_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("unit"):
        clock.now += 10
        with tracer.span("layer"):
            clock.now += 30
            with tracer.span("inner"):
                clock.now += 5
        clock.now += 7
        with tracer.span("layer"):
            clock.now += 8
    totals = tracer.totals()
    assert totals["unit"] == {"calls": 1, "self_ns": 17, "total_ns": 60,
                              "count": 0.0}
    assert totals["layer"]["calls"] == 2
    assert totals["layer"]["self_ns"] == 38 and totals["layer"]["total_ns"] == 43
    assert totals["inner"]["self_ns"] == 5
    assert sum(row["self_ns"] for row in totals.values()) == 60
    inner = next(span for span in tracer.spans if span.name == "inner")
    assert inner.parent.name == "layer" and inner.parent.parent.name == "unit"


def test_wrapped_callables_record_spans_counts_and_restore():
    module = types.ModuleType("fake_module")
    module.helper = helper
    instance = Target()
    original_class_attr = Target.__dict__["work"]
    with Tracer() as tracer:
        tracer.wrap(Target, "work", "class.work",
                    count=lambda args, kwargs, result: result)
        tracer.wrap(module, "helper", "module.helper")
        other = Target()
        tracer.wrap(other, "work", "instance.work")
        assert instance.work(3) == 6
        assert module.helper(1) == 2
        assert other.work(5) == 10
        totals = tracer.totals()
        assert totals["class.work"]["calls"] == 2
        assert totals["class.work"]["count"] == 16
        assert totals["module.helper"]["calls"] == 1
        assert totals["instance.work"]["calls"] == 1
        # The instance wrapper runs the class wrapper inside it.
        assert totals["instance.work"]["self_ns"] \
            <= totals["instance.work"]["total_ns"]
    assert Target.__dict__["work"] is original_class_attr
    assert module.helper is helper
    assert "work" not in vars(other)


def test_spans_close_and_attributes_restore_when_a_call_raises():
    def boom(value):
        raise ValueError(value)

    module = types.ModuleType("fake_module")
    module.boom = boom
    tracer = Tracer()
    try:
        tracer.wrap(module, "boom", "boom")
        with pytest.raises(ValueError):
            module.boom(1)
        assert [span.name for span in tracer.spans] == ["boom"]
        assert tracer._stack() == []
    finally:
        tracer.close()
    assert module.boom is boom


def test_disabled_tracer_installs_nothing():
    module = types.ModuleType("fake_module")
    module.helper = helper
    original = Target.__dict__["work"]
    with Tracer(enabled=False) as tracer:
        tracer.wrap(Target, "work", "class.work")
        tracer.wrap(module, "helper", "module.helper")
        assert Target.__dict__["work"] is original
        assert module.helper is helper
        with tracer.span("unit") as span:
            assert span is None
        assert Target().work(1) == 2
    assert tracer.spans == []


# ------------------------------------------------------------------- checks
@pytest.fixture(scope="module")
def paper():
    from perfbench.workloads import Paper

    return Paper(Tracer(enabled=False))


@pytest.fixture(scope="module")
def lot(paper):
    """Paper-case evidence diagnosed by the compiled engine and by VE."""
    from repro.core import DiagnosisEngine
    from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES

    evidences = [case.evidence() for case in PAPER_DIAGNOSTIC_CASES] * 2
    names = [f"case-{index}" for index in range(len(evidences))]
    compiled = DiagnosisEngine(paper.model, inference="jt", compiled=True)
    results = compiled.diagnose_batch(evidences, names=names)
    oracle = ReferenceAnswers(DiagnosisEngine(paper.model, inference="ve"))
    return results, evidences, names, oracle


def test_healthy_lot_passes_and_oracle_is_memoised(lot):
    results, evidences, names, oracle = lot
    assert check_lot(results, evidences, names, oracle) == []
    assert len(oracle) == 5
    assert oracle(evidences[0], "renamed").case_name == "renamed"


def test_fail_probability_off_by_1e9_trips(lot):
    results, evidences, names, oracle = lot
    wrong = list(results)
    block = next(iter(wrong[3].fail_probabilities))
    fail = dict(wrong[3].fail_probabilities)
    fail[block] += 1e-9
    wrong[3] = dataclasses.replace(wrong[3], fail_probabilities=fail)
    problems = check_lot(wrong, evidences, names, oracle)
    assert len(problems) == 1 and block in problems[0]


def test_swapped_suspect_trips(lot):
    results, evidences, names, oracle = lot
    wrong = list(results)
    internal = [block for block, _ in wrong[1].ranked_candidates]
    other = next(block for block in internal
                 if block not in wrong[1].suspects)
    wrong[1] = dataclasses.replace(wrong[1],
                                   suspects=[other] + wrong[1].suspects[1:])
    assert check_lot(wrong, evidences, names, oracle)
    if len(results[0].suspects) > 1:
        reordered = dataclasses.replace(
            results[0], suspects=list(reversed(results[0].suspects)))
        assert compare_diagnosis(reordered, oracle(evidences[0], names[0]))


def test_dropped_slot_trips(lot):
    results, evidences, names, oracle = lot
    assert check_lot(results[:-1], evidences, names, oracle)
    shifted = results[1:] + results[:1]
    assert check_lot(shifted, evidences, names, oracle)


def test_failed_and_degraded_slots_count_as_failed_not_wrong(lot):
    from perfbench.workloads import ServedLot
    from repro.core.diagnosis import DiagnosisFailure, DiagnosisProvenance

    results, evidences, names, oracle = lot
    served = list(results)
    fail = dict(served[0].fail_probabilities)
    fail[next(iter(fail))] += 0.01
    served[0] = dataclasses.replace(
        served[0], fail_probabilities=fail,
        provenance=DiagnosisProvenance(engine="lw", degraded=True))
    served[1] = DiagnosisFailure(names[1], evidences[1], "DeadlineExceededError",
                                 "late")
    workload = object.__new__(ServedLot)

    def sampled(result):
        return result.provenance is not None \
            and result.provenance.engine == "lw"

    outcome = workload._outcome((evidences, names, 2), served, oracle,
                                approximate=sampled)
    assert outcome.failed == 2 and outcome.wrong == []
    served[2] = dataclasses.replace(served[2], suspects=[])
    outcome = workload._outcome((evidences, names, 2), served, oracle,
                                approximate=sampled)
    assert outcome.failed == 2 and len(outcome.wrong) == 1


def test_paper_gate_passes_and_trips_on_a_swapped_suspect(paper):
    from repro.core import DiagnosisEngine
    from repro.core.paper_cases import (
        PAPER_DIAGNOSTIC_CASES,
        PAPER_EXPECTED_SUSPECTS,
    )

    assert paper.gate() == []
    diagnoses = DiagnosisEngine(paper.model, inference="jt", compiled=True
                                ).diagnose_batch(PAPER_DIAGNOSTIC_CASES)
    wrong = [dataclasses.replace(diagnosis, suspects=["enb4"])
             if diagnosis.case_name == "d2" else diagnosis
             for diagnosis in diagnoses]
    problems = check_paper_gate(wrong, PAPER_EXPECTED_SUSPECTS)
    assert any("d2" in problem for problem in problems)
    assert check_paper_gate(diagnoses[:-1], PAPER_EXPECTED_SUSPECTS)


def test_case_stream_is_seeded_and_yields_whole_devices(paper):
    from perfbench.workloads import CaseStream

    first, second = CaseStream(paper, 3), CaseStream(paper, 3)
    lot_a, lot_b = first.take(50), second.take(50)
    assert lot_a == lot_b
    assert lot_a != CaseStream(paper, 4).take(50)
    evidences, names, finished = lot_a
    assert len(evidences) == len(set(names)) == 50
    devices = [name.split("#")[0] for name in names]
    # Devices arrive whole: once the stream moves on it never comes back.
    runs = [device for index, device in enumerate(devices)
            if index == 0 or device != devices[index - 1]]
    assert len(runs) == len(set(runs))
    assert finished in (len(runs) - 1, len(runs))
