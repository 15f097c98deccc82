"""Compiled inference programs vs the interpreted exact engines.

The compiled path (repro.bayesnet.inference.compiled) traces the VE bucket
sweep / JT calibration once into a static op-list and replays it per query.
These tests pin the contract that makes that safe to serve from:

* 1e-12 posterior parity with the interpreted engines — over the sprinkler
  network, the regulator model, and randomised networks × evidence sets;
* ``run_batch`` parity with ``run`` over batch shapes, duplicates and raw
  code matrices;
* identical error behaviour (``ImpossibleEvidenceError`` on
  zero-probability evidence, structured ``InferenceError`` on signature
  mismatches);
* compile-on-first-use caching in ``DiagnosisEngine`` and invalidation on
  CPD replacement, mirroring the interpreted evidence caches.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest

from repro.bayesnet import BayesianNetwork, TabularCPD
from repro.bayesnet.factor import cached_einsum_path
from repro.bayesnet.inference import (
    CompiledProgram,
    JunctionTree,
    VariableElimination,
    compile_posteriors,
)
from repro.core import DiagnosisEngine
from repro.core.robust import FallbackPolicy, RobustDiagnosisEngine
from repro.exceptions import ImpossibleEvidenceError, InferenceError

TOL = 1e-12


def interpreted_engine(network, schedule):
    return VariableElimination(network) if schedule == "ve" \
        else JunctionTree(network)


def assert_parity(program, engine, evidence):
    """Compiled and interpreted answers must agree to 1e-12 (errors too)."""
    free = [node for node in engine.network.nodes if node not in evidence]
    try:
        expected = engine.posteriors(free, evidence)
    except ImpossibleEvidenceError:
        with pytest.raises(ImpossibleEvidenceError):
            program.run(evidence)
        return
    actual = program.posteriors(evidence)
    assert set(actual) == set(expected)
    for variable, distribution in expected.items():
        for state, probability in distribution.items():
            assert actual[variable][state] == pytest.approx(
                probability, abs=TOL)


def random_network(rng, node_count=8, max_parents=3, max_card=3):
    """A random DAG with random (occasionally deterministic) CPTs."""
    names = [f"n{i}" for i in range(node_count)]
    edges = []
    for i in range(1, node_count):
        count = int(rng.integers(0, min(i, max_parents) + 1))
        for parent in rng.choice(i, size=count, replace=False):
            edges.append((names[int(parent)], names[i]))
    network = BayesianNetwork(edges, nodes=names)
    for i, name in enumerate(names):
        parents = network.parents(name)
        parent_cards = [network.cardinality(p) for p in parents] \
            if parents else []
        card = int(rng.integers(2, max_card + 1))
        columns = int(np.prod(parent_cards)) if parents else 1
        table = rng.random((card, columns)) + 0.05
        # Sprinkle hard zeros so some evidence configurations become
        # impossible and both paths must agree on raising.
        if rng.random() < 0.5:
            table[rng.integers(0, card), rng.integers(0, columns)] = 0.0
        table /= table.sum(axis=0, keepdims=True)
        network.add_cpd(TabularCPD(name, card, table, parents, parent_cards))
    return network


# ------------------------------------------------------------------ parity
@pytest.mark.parametrize("schedule", ["ve", "jt"])
def test_sprinkler_parity_over_every_evidence_subset(sprinkler_network,
                                                     schedule):
    engine = interpreted_engine(sprinkler_network, schedule)
    nodes = sprinkler_network.nodes
    for size in range(len(nodes) + 1):
        for subset in itertools.combinations(nodes, size):
            program = compile_posteriors(sprinkler_network, subset,
                                         schedule=schedule)
            states = [sprinkler_network.state_names(v)
                      for v in program.evidence_vars]
            for combo in itertools.product(*states) if subset else [()]:
                assert_parity(program, engine,
                              dict(zip(program.evidence_vars, combo)))


@pytest.mark.parametrize("schedule", ["ve", "jt"])
def test_randomised_network_parity(schedule):
    rng = np.random.default_rng(1234)
    for trial in range(6):
        network = random_network(rng, node_count=int(rng.integers(5, 10)))
        nodes = network.nodes
        for _ in range(3):
            count = int(rng.integers(0, len(nodes)))
            subset = [nodes[int(i)] for i in
                      rng.choice(len(nodes), size=count, replace=False)]
            program = compile_posteriors(network, subset, schedule=schedule)
            engine = interpreted_engine(network, schedule)
            for _ in range(4):
                evidence = {
                    variable: network.state_names(variable)[
                        int(rng.integers(0, network.cardinality(variable)))]
                    for variable in program.evidence_vars}
                assert_parity(program, engine, evidence)


@pytest.mark.parametrize("schedule", ["ve", "jt"])
def test_empty_evidence_gives_prior_marginals(sprinkler_network, schedule):
    program = compile_posteriors(sprinkler_network, (), schedule=schedule)
    engine = interpreted_engine(sprinkler_network, schedule)
    expected = engine.posteriors(sprinkler_network.nodes, {})
    actual = program.posteriors({})
    for variable, distribution in expected.items():
        for state, probability in distribution.items():
            assert actual[variable][state] == pytest.approx(
                probability, abs=TOL)


def test_regulator_model_parity(regulator_engine):
    """Both schedules agree with the interpreted JT on the real model."""
    network = regulator_engine.network
    model = regulator_engine.model
    internal = set(model.internal_variables)
    signature = tuple(sorted(v for v in model.variable_names
                             if v not in internal))
    engine = JunctionTree(network)
    rng = np.random.default_rng(7)
    evidences = []
    for _ in range(5):
        evidences.append({
            variable: network.state_names(variable)[
                int(rng.integers(0, network.cardinality(variable)))]
            for variable in signature})
    for schedule in ("ve", "jt"):
        program = compile_posteriors(network, signature, schedule=schedule)
        for evidence in evidences:
            assert_parity(program, engine, evidence)


# ------------------------------------------------------------------- batch
@pytest.mark.parametrize("schedule", ["ve", "jt"])
@pytest.mark.parametrize("batch_size", [1, 2, 7])
def test_run_batch_matches_run(sprinkler_network, schedule, batch_size):
    program = compile_posteriors(sprinkler_network, ("cloudy", "wet"),
                                 schedule=schedule)
    combos = list(itertools.product(
        sprinkler_network.state_names("cloudy"),
        sprinkler_network.state_names("wet")))
    evidences = [dict(zip(("cloudy", "wet"), combos[i % len(combos)]))
                 for i in range(batch_size)]
    batch = program.run_batch(evidences, on_impossible="mask")
    assert batch.planes.shape[0] == batch_size
    assert len(batch) == batch_size
    for row, evidence in enumerate(evidences):
        try:
            single = program.run(evidence)
        except ImpossibleEvidenceError:
            assert not batch.evidence_probability[row] > 0
            assert batch.distributions(row) is None
            assert not batch.planes[row].any()
            continue
        marginals = batch.distributions(row)
        for variable, values in single.items():
            names = program.state_names[variable]
            for state, probability in zip(names, values):
                assert marginals[variable][state] == pytest.approx(
                    float(probability), abs=TOL)


def test_run_batch_accepts_raw_code_matrix(sprinkler_network):
    program = compile_posteriors(sprinkler_network, ("cloudy", "wet"))
    evidences = [
        dict(zip(program.evidence_vars,
                 (program.state_names[variable][(position + offset) % 2]
                  for position, variable
                  in enumerate(program.evidence_vars))))
        for offset in range(2)]
    codes = program.encode(evidences)
    from_codes = program.run_batch(codes, on_impossible="mask")
    from_dicts = program.run_batch(evidences, on_impossible="mask")
    assert np.allclose(from_codes.planes, from_dicts.planes, atol=TOL)
    assert np.allclose(from_codes.evidence_probability,
                       from_dicts.evidence_probability, atol=TOL)


def test_run_batch_empty(sprinkler_network):
    program = compile_posteriors(sprinkler_network, ("wet",))
    batch = program.run_batch([])
    assert len(batch) == 0
    assert batch.planes.shape == (0, len(program.variables),
                                  program.max_states)


def test_evidence_probability_matches_engine(sprinkler_network):
    program = compile_posteriors(sprinkler_network, ("cloudy", "wet"))
    engine = VariableElimination(sprinkler_network)
    evidences = [dict(zip(("cloudy", "wet"), combo)) for combo in
                 itertools.product(sprinkler_network.state_names("cloudy"),
                                   sprinkler_network.state_names("wet"))]
    batch = program.run_batch(evidences, on_impossible="mask")
    for row, evidence in enumerate(evidences):
        assert batch.evidence_probability[row] == pytest.approx(
            engine.probability_of_evidence(evidence), abs=TOL)


# ------------------------------------------------------------------ errors
def impossible_network():
    """wet is deterministically s0, so evidence wet=s1 is impossible."""
    network = BayesianNetwork([("rain", "wet")])
    network.add_cpds(
        TabularCPD("rain", 2, [[0.6], [0.4]]),
        TabularCPD("wet", 2, [[1.0, 1.0], [0.0, 0.0]], ["rain"], [2]),
    )
    return network


@pytest.mark.parametrize("schedule", ["ve", "jt"])
def test_impossible_evidence_raises_on_run(schedule):
    network = impossible_network()
    program = compile_posteriors(network, ("wet",), schedule=schedule)
    impossible = {"wet": network.state_names("wet")[1]}
    with pytest.raises(ImpossibleEvidenceError):
        program.run(impossible)
    with pytest.raises(ImpossibleEvidenceError):
        program.run_batch([impossible])


def test_run_batch_mask_isolates_impossible_rows():
    network = impossible_network()
    program = compile_posteriors(network, ("wet",))
    states = network.state_names("wet")
    batch = program.run_batch([{"wet": states[0]}, {"wet": states[1]},
                               {"wet": states[0]}], on_impossible="mask")
    assert batch.evidence_probability[0] > 0
    assert not batch.evidence_probability[1] > 0
    assert batch.distributions(1) is None
    good = batch.distributions(0)
    again = batch.distributions(2)
    assert good == again
    with pytest.raises(InferenceError):
        program.run_batch([{"wet": states[0]}], on_impossible="typo")


def test_signature_mismatch_raises(sprinkler_network):
    program = compile_posteriors(sprinkler_network, ("cloudy", "wet"))
    with pytest.raises(InferenceError, match="missing"):
        program.run({"cloudy": "s0"})
    extra = {"cloudy": sprinkler_network.state_names("cloudy")[0],
             "wet": sprinkler_network.state_names("wet")[0],
             "rain": sprinkler_network.state_names("rain")[0]}
    with pytest.raises(InferenceError, match="unexpected"):
        program.run(extra)
    bad_state = {"cloudy": "no-such-state",
                 "wet": sprinkler_network.state_names("wet")[0]}
    with pytest.raises(InferenceError, match="unknown state"):
        program.run(bad_state)
    with pytest.raises(InferenceError, match="out of range"):
        program.run_batch(np.array([[0, 99]]))
    with pytest.raises(InferenceError, match="shape"):
        program.run_batch(np.zeros((2, 5), dtype=int))
    with pytest.raises(InferenceError, match="unknown evidence variable"):
        compile_posteriors(sprinkler_network, ("no-such-node",))
    with pytest.raises(InferenceError, match="schedule"):
        compile_posteriors(sprinkler_network, (), schedule="typo")
    with pytest.raises(InferenceError, match="not a free variable"):
        batch = program.run_batch(
            [{"cloudy": sprinkler_network.state_names("cloudy")[0],
              "wet": sprinkler_network.state_names("wet")[0]}],
            on_impossible="mask")
        batch.distribution(0, "wet")


# ------------------------------------------------------- engine integration
@pytest.mark.parametrize("inference", ["ve", "jt"])
def test_diagnosis_engine_compiled_parity(regulator_engine, inference):
    model = regulator_engine.built_model
    plain = DiagnosisEngine(model, inference=inference)
    compiled = DiagnosisEngine(model, inference=inference, compiled=True)
    assert compiled.compiled
    network = model.network
    internal = set(compiled.model.internal_variables)
    signature = sorted(v for v in compiled.model.variable_names
                       if v not in internal)
    rng = np.random.default_rng(21)
    evidences = []
    for _ in range(4):
        evidences.append({
            variable: network.state_names(variable)[
                int(rng.integers(0, network.cardinality(variable)))]
            for variable in signature})
    for evidence in evidences:
        try:
            expected = plain.diagnose_evidence(evidence)
        except ImpossibleEvidenceError:
            with pytest.raises(ImpossibleEvidenceError):
                compiled.diagnose_evidence(evidence)
            continue
        actual = compiled.diagnose_evidence(evidence)
        assert actual.suspects == expected.suspects
        for variable, distribution in expected.posteriors.items():
            for state, probability in distribution.items():
                assert actual.posteriors[variable][state] == pytest.approx(
                    probability, abs=TOL)
    # One signature -> one compile, every query served from the program.
    assert compiled.compile_count >= 1
    assert compiled.compiled_query_count >= 1
    # Prior marginals also go through the compiled path.
    expected = plain.initial_probabilities()
    actual = compiled.initial_probabilities()
    assert list(actual) == list(expected)
    for variable, distribution in expected.items():
        for state, probability in distribution.items():
            assert actual[variable][state] == pytest.approx(
                probability, abs=TOL)


@pytest.mark.parametrize("inference, compiled", [
    pytest.param("ve", True, id="ve"),
    pytest.param("jt", True, id="jt"),
    pytest.param("ve", False, id="ve-interpreted"),
])
def test_diagnose_batch_compiled_parity(regulator_engine, inference, compiled,
                                        regulator_circuit,
                                        regulator_population):
    """Every batched sweep agrees with per-case interpreted-JT ``diagnose``.

    The batch mixes two evidence signatures (one observable dropped from
    some cases) and repeats rows, so grouping and row deduplication are
    both exercised.
    """
    from repro.core import CaseGenerator
    model = regulator_engine.built_model
    generator = CaseGenerator(regulator_circuit.model)
    labeled = generator.cases_from_results(
        regulator_population.failing_results)
    cases = [case.observed() for case in labeled]
    dropped = sorted(cases[0])[-1]
    partial = [{variable: state for variable, state in case.items()
                if variable != dropped} for case in cases[:6]]
    batch = cases + partial + cases[:4] + partial[:3]
    oracle = DiagnosisEngine(model, inference="jt")
    engine = DiagnosisEngine(model, inference=inference, compiled=compiled)
    actual = engine.diagnose_batch(batch, on_error="collect")
    if compiled:
        assert engine.compiled_query_count == len(batch)
        assert engine.compile_count == 2  # one program per signature
    assert len(actual) == len(batch)
    for index, (evidence, ours) in enumerate(zip(batch, actual)):
        try:
            theirs = oracle.diagnose_evidence(evidence, name=f"case-{index}")
        except ImpossibleEvidenceError as error:
            assert not ours.ok
            assert ours.error_type == type(error).__name__
            assert ours.case_name == f"case-{index}"
            continue
        assert ours.ok
        assert ours.case_name == theirs.case_name
        assert ours.evidence == theirs.evidence
        for variable, state in ours.evidence.items():
            # Evidence variables collapse onto their observed state.
            assert ours.posteriors[variable][state] == 1.0
            assert sum(ours.posteriors[variable].values()) == 1.0
        assert ours.suspects == theirs.suspects
        assert list(ours.posteriors) == list(theirs.posteriors)
        for variable, distribution in theirs.posteriors.items():
            assert list(ours.posteriors[variable]) == list(distribution)
            for state, probability in distribution.items():
                assert ours.posteriors[variable][state] == pytest.approx(
                    probability, abs=TOL)
        assert set(ours.fail_probabilities) == set(theirs.fail_probabilities)
        for variable, probability in theirs.fail_probabilities.items():
            assert ours.fail_probabilities[variable] == pytest.approx(
                probability, abs=TOL)
        assert dict(ours.ranked_candidates) == pytest.approx(
            dict(theirs.ranked_candidates), abs=TOL)


def test_compile_on_first_use_and_cpd_invalidation(regulator_engine):
    model = regulator_engine.built_model
    engine = DiagnosisEngine(model, inference="jt", compiled=True)
    first = engine.warm_compile()
    assert first >= 0.0
    count = engine.compile_count
    assert count == 1
    assert engine.warm_compile() == 0.0  # cached: no recompile
    assert engine.compile_count == count
    network = model.network
    network.add_cpd(network.get_cpd(network.nodes[0]))  # bump cpd_version
    assert engine.warm_compile() > 0.0
    assert engine.compile_count == count + 1


def test_warm_compile_noop_on_uncompiled_and_sampler_engines(
        regulator_engine):
    model = regulator_engine.built_model
    assert DiagnosisEngine(model, inference="jt").warm_compile() == 0.0
    sampler = DiagnosisEngine(model, inference="lw", compiled=True)
    assert not sampler.compiled  # samplers have no sweep to trace
    assert sampler.warm_compile() == 0.0


def test_robust_policy_compiled_passthrough(regulator_engine):
    model = regulator_engine.built_model
    policy = FallbackPolicy(chain=("jt", "lw"), compiled=True)
    robust = RobustDiagnosisEngine(model, policy)
    assert robust.compiled
    diagnosis = robust.initial_probabilities()
    assert robust.compiled_query_count == 1
    plain = DiagnosisEngine(model, inference="jt")
    expected = plain.initial_probabilities()
    for variable, distribution in expected.items():
        for state, probability in distribution.items():
            assert diagnosis[variable][state] == pytest.approx(
                probability, abs=TOL)
    # Lazily built fallback engines inherit the flag.
    fallback = robust._engine_for("lw")
    assert not fallback.compiled  # lw has no compiled path


def test_compiled_run_is_thread_safe(sprinkler_network):
    """Concurrent run() calls may not corrupt the preallocated buffers."""
    program = compile_posteriors(sprinkler_network, ("wet",))
    states = sprinkler_network.state_names("wet")
    expected = {state: program.posteriors({"wet": state})
                for state in states}
    failures = []

    def worker(state):
        for _ in range(200):
            actual = program.posteriors({"wet": state})
            for variable, distribution in expected[state].items():
                for name, probability in distribution.items():
                    if abs(actual[variable][name] - probability) > 1e-9:
                        failures.append((state, variable, name))
                        return

    threads = [threading.Thread(target=worker, args=(states[i % 2],))
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures


# --------------------------------------------------------------- path cache
def test_cached_einsum_path_memoises():
    key = ("test-compiled-inference", ((0, 1), (2, 2)), (0,))
    operands = [np.ones((2, 2)), [0, 1], np.ones((2, 2)), [1, 2], [0, 2]]
    first = cached_einsum_path(key, operands)
    second = cached_einsum_path(key, operands)
    assert first is second  # cache hit returns the memoised path object
    assert first[0] == "einsum_path"


def test_engine_compile_posteriors_entry_points(sprinkler_network):
    ve_program = VariableElimination(sprinkler_network).compile_posteriors(
        ["wet"])
    jt_program = JunctionTree(sprinkler_network).compile_posteriors(["wet"])
    assert isinstance(ve_program, CompiledProgram)
    assert ve_program.schedule == "ve"
    assert jt_program.schedule == "jt"
    assert ve_program.evidence_vars == jt_program.evidence_vars == ("wet",)
    assert ve_program.op_count > 0 and jt_program.op_count > 0
    assert ve_program.compile_ms >= 0.0
