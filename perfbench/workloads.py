"""The benchmark's three closed-loop workloads.

Every workload drives the library only through its public API, from one
client thread that sends its next unit of work when the previous one has
returned.  A *unit* is one retrain iteration, one diagnosed lot or one served
request.  Each workload splits into:

* ``setup`` — everything built before the first unit (repeated several times
  per run so ``setup_s`` is a median, not a one-off);
* ``next_input`` / ``call`` — input drawing (untimed) and the library call
  (timed);
* ``check`` — the oracle comparison of one unit's outputs (untimed);
* ``install`` — the layer spans a traced run wraps around public callables.

The designer prior and the paper-gate model keep the paper's fixed seeds;
every measured population derives from the workload seed.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.ate import ATETester, PopulationGenerator
from repro.ate.population import DevicePopulation
from repro.ate.programs import REGULATOR_CONDITION_SETS, build_functional_program
from repro.bayesnet.inference import CompiledProgram
from repro.bayesnet.learning import BayesianEstimator
from repro.circuits import BehavioralSimulator, build_voltage_regulator
from repro.core import DiagnosisEngine, Dlog2BBN, FallbackPolicy
from repro.core import diagnosis as diagnosis_module
from repro.core.behavioral_prior import SimulationPriorBuilder
from repro.core.case_generation import CaseGenerator
from repro.core.paper_cases import PAPER_DIAGNOSTIC_CASES, PAPER_EXPECTED_SUSPECTS
from repro.persist import ModelRegistry
from repro.serving import DiagnosisService, ServiceConfig
from repro.serving import service as service_module

from perfbench.checks import ReferenceAnswers, check_lot, check_paper_gate

#: The paper's fixed seeds (designer prior, 70-return population, simulator).
PRIOR_SEED = 7
POPULATION_SEED = 12
SIMULATOR_SEED = 11
#: The paper fine-tuned on 70 failed customer returns.
PAPER_RETURNS = 70
#: Fine-tuning weight of the designer prior (as in the paper reproduction).
EQUIVALENT_SAMPLE_SIZE = 200
#: Failing returns simulated, tested and learned from per retrain unit.
RETRAIN_DEVICES = 1_000
#: Returned devices behind the diagnosis workloads' pool of failing cases.
POOL_DEVICES = 2_000
#: Cases per diagnosed lot (batch_diagnosis, served_lot).
LOT_CASES = 1_000
#: Worker processes of served_lot (the 2-CPU host's core count).
SERVICE_WORKERS = 2
#: Deadline of a served lot, seconds: five times the slowest lot seen on a
#: 2-vCPU host, so a slow spell of the host cannot fail cases.
REQUEST_DEADLINE_S = 5.0
#: Patience for one served request before the client gives up, seconds.
RESULT_TIMEOUT_S = 60.0


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _seeds(seed: int, count: int) -> list[int]:
    """Independent integer seeds derived from the workload seed."""
    return [int(value) for value in
            np.random.SeedSequence(seed).generate_state(count)]


class Paper:
    """The circuit, the designer prior and the paper-seeded 70-return model."""

    def __init__(self, spans) -> None:
        self.circuit = build_voltage_regulator()
        self.program = build_functional_program(
            "vr_functional", self.circuit.model, REGULATOR_CONDITION_SETS)
        self.builder = Dlog2BBN(self.circuit.model, self.circuit.healthy_states)
        self.cases = self.builder.case_generator()
        with spans.span("setup.prior"):
            self.prior = SimulationPriorBuilder(
                self.circuit.netlist, self.circuit.model,
                [cs.conditions for cs in REGULATOR_CONDITION_SETS],
                fault_probability=self.circuit.designer_fault_probabilities,
                process_variation=self.circuit.process_variation,
                samples=3000, seed=PRIOR_SEED).build()
        with spans.span("setup.model"):
            returns = self.generator(SIMULATOR_SEED, POPULATION_SEED).generate(
                failed_count=PAPER_RETURNS)
            self.model = self.builder.build(
                self.cases.case_matrix(returns.to_store()), method="bayes",
                prior_network=self.prior,
                equivalent_sample_size=EQUIVALENT_SAMPLE_SIZE)

    def generator(self, simulator_seed: int, population_seed: int
                  ) -> PopulationGenerator:
        simulator = BehavioralSimulator(
            self.circuit.netlist,
            process_variation=self.circuit.process_variation,
            seed=simulator_seed)
        return PopulationGenerator(simulator, self.program,
                                   self.circuit.fault_universe,
                                   self.circuit.block_weights,
                                   seed=population_seed)

    def gate(self) -> list[str]:
        """The Table 6 reproduction bar on the paper-seeded model."""
        engine = DiagnosisEngine(self.model, inference="jt", compiled=True)
        return check_paper_gate(engine.diagnose_batch(PAPER_DIAGNOSTIC_CASES),
                                PAPER_EXPECTED_SUSPECTS)


class CaseStream:
    """Failing returns' evidence, served device by device in seeded order.

    The pool is the failing cases of ``POOL_DEVICES`` simulated returns.
    Real returns repeat: many devices fail the same way, so the pool holds
    about a hundred distinct evidence rows among thousands of cases.  Draws
    walk a shuffled device order (reshuffled per pass) and hand out every
    failing case of a device before the next one, so a lot is a run of
    whole devices and ``take`` reports how many devices it finished.
    """

    def __init__(self, paper: Paper, seed: int) -> None:
        simulator_seed, population_seed, order_seed = _seeds(seed, 3)
        population = paper.generator(simulator_seed, population_seed).generate(
            failed_count=POOL_DEVICES)
        matrix = paper.cases.case_matrix(population.to_store())
        names = matrix.state_names
        devices: dict[str, list[dict[str, str]]] = {}
        for row in np.flatnonzero(matrix.failed):
            evidence = {variable: names[variable][code]
                        for variable, code in zip(matrix.variables,
                                                  matrix.codes[row].tolist())
                        if code >= 0}
            devices.setdefault(str(matrix.device_ids[row]), []).append(evidence)
        self.devices = list(devices.items())
        self._rng = np.random.default_rng(order_seed)
        self._order: list[int] = []
        self._case = 0
        self._drawn = 0

    def take(self, count: int) -> tuple[list[dict], list[str], int]:
        """Next ``count`` cases: evidence, unique names, devices finished."""
        evidences, names, finished = [], [], 0
        while len(evidences) < count:
            if not self._order:
                self._order = self._rng.permutation(len(self.devices)).tolist()
                self._order.reverse()
            device_id, cases = self.devices[self._order[-1]]
            evidences.append(cases[self._case])
            names.append(f"{device_id}#{self._case}.{self._drawn}")
            self._drawn += 1
            self._case += 1
            if self._case == len(cases):
                self._order.pop()
                self._case = 0
                finished += 1
        return evidences, names, finished


class Outcome:
    """What one unit did: work counted, failures, wrong answers, summary."""

    def __init__(self, cases: int, devices: int) -> None:
        self.cases = cases
        self.devices = devices
        self.failed = 0
        self.wrong: list[str] = []
        self.wall = 0.0
        self.summary: dict[str, float] = {}


class Workload:
    """Base class: per-run state, set-up bookkeeping and the unit contract."""

    name = ""
    #: What ``attempted``/``failed`` count: "cases" or "devices".
    operation = "cases"
    #: CPUs the workload keeps busy (the host-speed reference runs on each).
    cpus = 1

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.paper: Paper | None = None

    def setup(self, spans) -> None:
        """Build everything the units need (after ``close`` of the last)."""
        self.paper = Paper(spans)

    def next_input(self):
        raise NotImplementedError

    def size(self, unit_input) -> int:
        """Operations (cases or devices) one unit attempts."""
        raise NotImplementedError

    def call(self, unit_input):
        raise NotImplementedError

    def check(self, unit_input, output) -> Outcome:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Checks made once after the timed phase; mismatch descriptions."""
        return []

    def install(self, tracer) -> None:
        """Wrap the public callables of the layers this workload enters."""

    def layer_metrics(self, tracer, outcomes: list[Outcome]) -> dict:
        """Workload-specific per-layer values not derived from span totals."""
        return {}

    def worker_pids(self) -> list[int]:
        return []

    def close(self) -> None:
        """Release processes and files of the current set-up."""


# --------------------------------------------------------------------- retrain
class Retrain(Workload):
    """The learning job: simulate → ATE → encode → fit → compile → publish."""

    name = "retrain"
    operation = "devices"

    def setup(self, spans) -> None:
        super().setup(spans)
        simulator_seed, population_seed = _seeds(self.seed, 2)
        self.generator = self.paper.generator(simulator_seed, population_seed)
        self.registry_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        self.registry = ModelRegistry(self.registry_dir)
        self.version = 0
        self.last = None

    def next_input(self):
        return None

    def size(self, unit_input) -> int:
        return RETRAIN_DEVICES

    def call(self, unit_input):
        population = self.generator.generate(failed_count=RETRAIN_DEVICES)
        matrix = self.paper.cases.case_matrix(population.to_store())
        model = self.paper.builder.build(
            matrix, method="bayes", prior_network=self.paper.prior,
            equivalent_sample_size=EQUIVALENT_SAMPLE_SIZE)
        engine = DiagnosisEngine(model, inference="jt", compiled=True)
        engine.warm_compile()
        version = self.registry.publish(model)
        return population, matrix, model, engine, version

    def check(self, unit_input, output) -> Outcome:
        population, matrix, model, engine, version = output
        outcome = Outcome(cases=len(matrix), devices=len(population))
        outcome.summary["artifact_kb"] = self._artifact_kb(version)
        if len(population) != RETRAIN_DEVICES:
            outcome.wrong.append(f"{len(population)} devices generated")
        if model.training_case_count != len(matrix):
            outcome.wrong.append("model learned from the wrong case count")
        if version != self.version + 1 \
                or self.registry.current_version() < version:
            outcome.wrong.append(f"published version {version} after "
                                 f"{self.version} is not in order")
        self.version = version
        self.last = (matrix, engine)
        return outcome

    def _artifact_kb(self, version: int) -> float:
        """Size of the published artifact, found by its version number."""
        return sum(path.stat().st_size
                   for path in self.registry_dir.glob("model-*.pkl")
                   if int(path.stem.split("-")[-1]) == version) / 1024.0

    def final_checks(self) -> list[str]:
        """The last fitted model's compiled JT against interpreted VE."""
        if self.last is None:
            return ["no retrain unit completed"]
        matrix, engine = self.last
        names = matrix.state_names
        evidences = {}
        for row in matrix.codes[matrix.failed].tolist():
            evidence = {variable: names[variable][code]
                        for variable, code in zip(matrix.variables, row)
                        if code >= 0}
            evidences.setdefault(tuple(sorted(evidence.items())), evidence)
        evidences = list(evidences.values())
        labels = [f"retrain-{index}" for index in range(len(evidences))]
        oracle = ReferenceAnswers(DiagnosisEngine(engine.built_model,
                                                  inference="ve"))
        return check_lot(engine.diagnose_batch(evidences, names=labels,
                                               on_error="collect"),
                         evidences, labels, oracle)

    def install(self, tracer) -> None:
        for attribute in ("run_program", "run_batch", "sample_devices"):
            tracer.wrap(BehavioralSimulator, attribute, "circuits.simulate")
        tracer.wrap(ATETester, "test_devices_store", "ate.test",
                    count=lambda args, kwargs, result: len(args[1]))
        tracer.wrap(PopulationGenerator, "generate", "ate.generate")
        tracer.wrap(DevicePopulation, "to_store", "ate.generate")
        tracer.wrap(CaseGenerator, "case_matrix", "encoding.case_matrix")
        tracer.wrap(BayesianEstimator, "fit", "learning.fit")
        tracer.wrap(Dlog2BBN, "build", "learning.build")
        tracer.wrap(DiagnosisEngine, "__init__", "compiled.compile")
        tracer.wrap(DiagnosisEngine, "warm_compile", "compiled.compile")
        tracer.wrap(ModelRegistry, "publish", "persist.publish")

    def layer_metrics(self, tracer, outcomes) -> dict:
        kept = sum(outcome.devices for outcome in outcomes)
        simulated = tracer.totals().get("ate.test", {}).get("count", 0.0)
        return {
            "ate.simulated_per_kept": simulated / kept if kept else 0.0,
            "persist.artifact_kb": _mean(outcome.summary["artifact_kb"]
                                         for outcome in outcomes),
        }

    def close(self) -> None:
        registry = getattr(self, "registry", None)
        if registry is not None:
            registry.close()
            shutil.rmtree(self.registry_dir, ignore_errors=True)
            self.registry = None


# ------------------------------------------------------------- batch diagnosis
class _Diagnosis(Workload):
    """Shared parts of the three diagnosis workloads."""

    lot_cases = LOT_CASES

    def setup(self, spans) -> None:
        super().setup(spans)
        with spans.span("setup.pool"):
            self.stream = CaseStream(self.paper, self.seed)

    def next_input(self):
        return self.stream.take(self.lot_cases)

    def size(self, unit_input) -> int:
        return len(unit_input[0])

    def _outcome(self, unit_input, results, reference,
                 approximate=lambda result: False) -> Outcome:
        """Count failed slots and check every exact answer against ``reference``.

        A structured failure or an ``approximate(result)`` answer (a sampled
        fallback the library marks as degraded) counts as failed; every
        other answer must agree with the oracle.
        """
        evidences, names, finished = unit_input
        self.last_results = results
        outcome = Outcome(cases=len(evidences), devices=finished)
        if len(results) != len(evidences):
            outcome.wrong = check_lot(results, evidences, names, reference)
            return outcome
        answered = [(result, evidence, name) for result, evidence, name
                    in zip(results, evidences, names)
                    if getattr(result, "ok", False) and not approximate(result)]
        outcome.failed = len(results) - len(answered)
        outcome.wrong = check_lot(*map(list, zip(*answered)), reference) \
            if answered else []
        return outcome

    def layer_metrics(self, tracer, outcomes) -> dict:
        return {"diagnosis.result_kb": len(pickle.dumps(
            self.last_results, protocol=pickle.HIGHEST_PROTOCOL)) / 1024.0}


class BatchDiagnosis(_Diagnosis):
    """In-process compiled ``diagnose_batch`` over 1,000-case lots."""

    name = "batch_diagnosis"

    def setup(self, spans) -> None:
        super().setup(spans)
        with spans.span("setup.compile"):
            self.engine = DiagnosisEngine(self.paper.model, inference="jt",
                                          compiled=True)
            self.engine.warm_compile()
        self.oracle = ReferenceAnswers(DiagnosisEngine(self.paper.model,
                                                       inference="ve"))

    def call(self, unit_input):
        evidences, names, _ = unit_input
        return self.engine.diagnose_batch(evidences, names=names,
                                          on_error="collect")

    def check(self, unit_input, output) -> Outcome:
        return self._outcome(unit_input, output, self.oracle)

    def install(self, tracer) -> None:
        tracer.wrap(DiagnosisEngine, "diagnose_batch", "diagnosis.assemble")
        tracer.wrap(diagnosis_module, "validate_evidence", "evidence.validate")
        tracer.wrap(diagnosis_module, "case_from_evidence", "evidence.wrap")
        tracer.wrap(CompiledProgram, "encode", "compiled.encode")
        tracer.wrap(CompiledProgram, "run_batch", "compiled.sweep",
                    count=lambda args, kwargs, result: len(args[1]))

    def layer_metrics(self, tracer, outcomes) -> dict:
        metrics = super().layer_metrics(tracer, outcomes)
        cases = sum(outcome.cases for outcome in outcomes)
        rows = tracer.totals().get("compiled.sweep", {}).get("count", 0.0)
        metrics["compiled.rows_per_case"] = rows / cases if cases else 0.0
        return metrics


# -------------------------------------------------------------------- serving
class _Served(_Diagnosis):
    """A 2-worker :class:`DiagnosisService`, started fresh per set-up."""

    cpus = SERVICE_WORKERS

    def setup(self, spans) -> None:
        super().setup(spans)
        self.reference = ReferenceAnswers(DiagnosisEngine(
            self.paper.model, inference="jt", compiled=True))
        with spans.span("setup.service_start"):
            self.service = DiagnosisService(
                self.paper.model,
                FallbackPolicy(chain=("jt", "lw", "gibbs"), compiled=True),
                ServiceConfig(num_workers=SERVICE_WORKERS))
            self.service.diagnose_batch(self.stream.take(1)[0],
                                        names=["first"],
                                        deadline=REQUEST_DEADLINE_S,
                                        timeout=RESULT_TIMEOUT_S)

    def call(self, unit_input):
        evidences, names, _ = unit_input
        return self.service.submit(evidences, names=names,
                                   deadline=REQUEST_DEADLINE_S
                                   ).result(RESULT_TIMEOUT_S)

    def check(self, unit_input, output) -> Outcome:
        outcome = self._outcome(
            unit_input, output, self.reference,
            approximate=lambda result: result.provenance.engine
            not in ("jt", "ve"))
        served = [result.provenance for result in output
                  if getattr(result, "ok", False)]
        case_wall = sum(provenance.wall_time for provenance in served)
        parallel = max(1, min(SERVICE_WORKERS, outcome.cases))
        outcome.summary = {
            "served": len(served),
            "case_wall": case_wall,
            "attempts": sum(len(provenance.attempts) for provenance in served),
            "degraded": sum(provenance.degraded for provenance in served),
            "parallel": parallel,
        }
        return outcome

    def install(self, tracer) -> None:
        tracer.wrap(DiagnosisService, "submit", "serving.submit")
        tracer.wrap(service_module, "case_from_evidence", "evidence.wrap")
        self._stats_before = self.service.stats()

    def layer_metrics(self, tracer, outcomes) -> dict:
        metrics = super().layer_metrics(tracer, outcomes)
        stats, before = self.service.stats(), self._stats_before

        def total(key):
            return sum(outcome.summary[key] for outcome in outcomes)

        def ratio(numerator, denominator, scale=1.0):
            return numerator / denominator * scale if denominator else 0.0

        requests, served = len(outcomes), total("served")
        chunks = sum(math.ceil(outcome.cases / max(stats.chunk_size, 1))
                     for outcome in outcomes)
        retries = stats.chunk_retries - before.chunk_retries
        metrics.update({
            # Worker compute of a request, split evenly over the workers
            # that could run it, is subtracted from the request's wall.
            "serving.overhead_ms": _mean(
                outcome.wall - outcome.summary["case_wall"]
                / outcome.summary["parallel"] for outcome in outcomes) * 1e3,
            "serving.case_us": ratio(total("case_wall"), served, 1e6),
            "serving.chunk_p50_ms": (stats.chunk_latency_p50 or 0.0) * 1e3,
            "serving.chunks_per_request": ratio(chunks + retries, requests),
            "serving.retries": float(retries),
            "serving.respawns": float(stats.respawns - before.respawns),
            "serving.shed": float(stats.shed - before.shed),
            "robust.attempts_per_case": ratio(total("attempts"), served),
            "robust.degraded_ratio": ratio(total("degraded"), served),
        })
        return metrics

    def worker_pids(self) -> list[int]:
        return [child.pid for child in multiprocessing.active_children()]

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.shutdown(drain=True)
            self.service = None
            multiprocessing.active_children()


class ServedLot(_Served):
    """1,000-case lots through the service: dispatch, chunk IPC, workers."""

    name = "served_lot"


WORKLOADS = {workload.name: workload
             for workload in (Retrain, BatchDiagnosis, ServedLot)}
