"""Correctness checks of the benchmark: every check can fail.

Each check compares what the library returned with an independent answer
and returns a list of mismatch descriptions (empty when the output is
right), so a run can report *how many* answers were wrong instead of
stopping at the first.  The self-tests feed each check a deliberately wrong
answer and require it to trip.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

#: Agreement required between a fast path and its oracle.
TOLERANCE = 1e-12


def evidence_key(evidence: Mapping[str, str]) -> tuple:
    """Hashable, order-free key of an evidence mapping."""
    return tuple(sorted(evidence.items()))


def compare_diagnosis(got, expected, tolerance: float = TOLERANCE) -> str | None:
    """Return why ``got`` differs from ``expected``, or ``None`` if it agrees.

    Posteriors and fail probabilities must agree within ``tolerance``
    (``0.0`` demands bit-identical floats).  The suspect lists must name the
    same blocks, and ``got`` must order its suspects and its ranking by
    decreasing fail probability, so a swapped or substituted suspect trips
    the check even when two blocks are nearly tied.
    """
    if got is None or not getattr(got, "ok", False):
        return f"expected a diagnosis, got {got!r}"
    if got.case_name != expected.case_name:
        return f"case {got.case_name!r} answered slot of {expected.case_name!r}"
    if set(got.posteriors) != set(expected.posteriors):
        return f"{got.case_name}: posterior variables differ"
    for variable, distribution in expected.posteriors.items():
        mine = got.posteriors[variable]
        if set(mine) != set(distribution):
            return f"{got.case_name}: states of {variable} differ"
        for state, probability in distribution.items():
            if not abs(mine[state] - probability) <= tolerance:
                return (f"{got.case_name}: P({variable}={state}) "
                        f"{mine[state]!r} != {probability!r}")
    if set(got.fail_probabilities) != set(expected.fail_probabilities):
        return f"{got.case_name}: fail-probability blocks differ"
    for block, probability in expected.fail_probabilities.items():
        if not abs(got.fail_probabilities[block] - probability) <= tolerance:
            return (f"{got.case_name}: fail({block}) "
                    f"{got.fail_probabilities[block]!r} != {probability!r}")
    if set(got.suspects) != set(expected.suspects):
        return (f"{got.case_name}: suspects {got.suspects} != "
                f"{expected.suspects}")
    fail = got.fail_probabilities
    order = [fail[block] for block in got.suspects]
    if order != sorted(order, reverse=True):
        return f"{got.case_name}: suspects {got.suspects} not ranked by fail"
    ranked = [probability for _, probability in got.ranked_candidates]
    if ranked != sorted(ranked, reverse=True) \
            or {block for block, _ in got.ranked_candidates} != set(fail) \
            or any(fail[block] != probability
                   for block, probability in got.ranked_candidates):
        return f"{got.case_name}: ranked candidates disagree with fail"
    return None


def check_lot(results: Sequence, evidences: Sequence[Mapping[str, str]],
              names: Sequence[str], reference,
              tolerance: float = TOLERANCE) -> list[str]:
    """Check one lot slot by slot against ``reference(evidence, name)``.

    A missing or extra slot is a mismatch.
    """
    if len(results) != len(evidences):
        return [f"lot of {len(evidences)} cases returned "
                f"{len(results)} slots"]
    problems = []
    for result, evidence, name in zip(results, evidences, names):
        problem = compare_diagnosis(result, reference(evidence, name),
                                    tolerance)
        if problem is not None:
            problems.append(problem)
    return problems


class ReferenceAnswers:
    """Memoised oracle answers, one computation per distinct evidence.

    ``engine`` is any :class:`~repro.core.DiagnosisEngine`; its answer for
    an evidence mapping is computed once and renamed per asking case.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self._answers: dict[tuple, object] = {}

    def __call__(self, evidence: Mapping[str, str], name: str):
        key = evidence_key(evidence)
        answer = self._answers.get(key)
        if answer is None:
            answer = self.engine.diagnose_evidence(evidence, name=name)
            self._answers[key] = answer
        if answer.case_name != name:
            answer = dataclasses.replace(answer, case_name=name)
        return answer

    def __len__(self) -> int:
        return len(self._answers)


def check_paper_gate(diagnoses: Sequence,
                     expected: Mapping[str, Sequence[str]]) -> list[str]:
    """The paper's Table 6 reproduction bar on the paper-seeded model.

    Case d2 must resolve to exactly ``enb13``; at least three of the five
    cases must match the paper's suspects exactly, and every case must
    overlap them.
    """
    by_name = {diagnosis.case_name: diagnosis for diagnosis in diagnoses}
    problems = []
    if set(by_name) != set(expected):
        return [f"paper cases answered: {sorted(by_name)}"]
    if list(by_name["d2"].suspects) != ["enb13"]:
        problems.append(f"d2 suspects {by_name['d2'].suspects} != ['enb13']")
    exact = sum(set(by_name[name].suspects) == set(blocks)
                for name, blocks in expected.items())
    if exact < 3:
        problems.append(f"only {exact} of 5 paper cases match exactly")
    for name, blocks in expected.items():
        if not set(by_name[name].suspects) & set(blocks):
            problems.append(f"{name} suspects {by_name[name].suspects} miss "
                            f"the paper's {list(blocks)}")
    return problems

