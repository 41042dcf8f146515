"""Deterministic seeded fuzz driver over the differential oracles.

Every trial derives a 32-bit *trial seed* from ``(oracle name, base seed,
trial index)`` via ``zlib.crc32`` — stable across processes and Python
versions (unlike ``hash``, which ``PYTHONHASHSEED`` randomizes).  A trial
seeds ``random.Random(trial_seed)``, generates one instance, and runs its
oracle, so any failure can be replayed in isolation::

    repro verify --oracle mckp --replay-seed 123456789

The report renderer is deliberately timestamp-free: the same base seed and
trial count always produce byte-identical output, which the determinism
tests assert.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..eda.synthesis import balance
from ..obs import (
    Logger,
    MetricsRegistry,
    Tracer,
    get_logger,
    get_metrics,
    get_tracer,
    scoped,
)
from ..obs.log import build_crash_report, crash_scope, write_crash_report
from . import corpus, generators, oracles

__all__ = [
    "ORACLES",
    "FuzzFailure",
    "OracleReport",
    "FuzzReport",
    "trial_seed",
    "run_trial",
    "run_fuzz",
    "dump_trial_forensics",
]


# ----------------------------------------------------------------------
# Oracle trials: generate one instance from an rng, check it
# ----------------------------------------------------------------------
def _mckp_trial(rng: random.Random) -> List[str]:
    stages, deadline = generators.random_mckp_instance(rng)
    return oracles.mckp_violations(stages, deadline)


def _schedule_trial(rng: random.Random) -> List[str]:
    graph, workers = generators.random_task_graph(rng)
    return oracles.schedule_violations(graph, workers)


def _aig_trial(rng: random.Random) -> List[str]:
    aig = generators.random_aig(rng)
    recipe, seed = generators.random_recipe(rng)
    out = oracles.aig_equivalence_violations(aig, balance(aig), label="balance")
    out.extend(oracles.recipe_equivalence_violations(aig, recipe, seed))
    return out


def _cuts_trial(rng: random.Random) -> List[str]:
    aig = generators.random_aig(rng)
    k = rng.randint(2, 6)
    return oracles.cut_function_violations(aig, k=k, cap=rng.randint(2, 8))


def _spot_trial(rng: random.Random) -> List[str]:
    runtime, rate, interval = generators.random_spot_params(rng)
    return oracles.spot_violations(runtime, rate, interval)


def _executor_trial(rng: random.Random) -> List[str]:
    plan, deadline, profile, policy, seed, menus = (
        generators.random_execution_case(rng)
    )
    return oracles.execution_violations(
        plan, deadline, profile, policy, seed, stage_options=menus
    )


def _convergence_trial(rng: random.Random) -> List[str]:
    runtime, rate, interval = generators.random_convergence_params(rng)
    return oracles.convergence_violations(
        runtime, rate, interval, trials=500, seed=rng.randrange(1 << 30)
    )


def _obs_trial(rng: random.Random) -> List[str]:
    plan, deadline, profile, policy, seed, menus = (
        generators.random_execution_case(rng)
    )
    return oracles.obs_violations(
        plan, deadline, profile, policy, seed, stage_options=menus
    )


def _service_trial(rng: random.Random) -> List[str]:
    requests, workers, depth = generators.random_service_case(rng)
    return oracles.service_violations(requests, workers, depth)


def _fleet_trial(rng: random.Random) -> List[str]:
    menus, flows = generators.random_fleet_case(rng)
    return oracles.fleet_violations(menus, flows, seed=rng.randrange(2**31))


def _attrib_trial(rng: random.Random) -> List[str]:
    requests, workers, depth = generators.random_service_case(rng)
    return oracles.attrib_violations(requests, workers, depth)


def _slo_trial(rng: random.Random) -> List[str]:
    requests, workers, depth = generators.random_service_case(rng)
    return oracles.slo_violations(requests, workers, depth)


#: Registered oracles, in report order.
ORACLES: Dict[str, Callable[[random.Random], List[str]]] = {
    "mckp": _mckp_trial,
    "schedule": _schedule_trial,
    "aig": _aig_trial,
    "cuts": _cuts_trial,
    "spot": _spot_trial,
    "executor": _executor_trial,
    "convergence": _convergence_trial,
    "obs": _obs_trial,
    "service": _service_trial,
    "fleet": _fleet_trial,
    "attrib": _attrib_trial,
    "slo": _slo_trial,
}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def trial_seed(base_seed: int, oracle: str, trial: int) -> int:
    """Stable 32-bit per-trial seed (replayable across processes)."""
    return zlib.crc32(f"{oracle}:{base_seed}:{trial}".encode())


def run_trial(oracle: str, seed: int) -> List[str]:
    """Run one oracle trial from an explicit (replay) seed."""
    if oracle not in ORACLES:
        raise ValueError(
            f"unknown oracle {oracle!r}; known: {', '.join(ORACLES)}"
        )
    log = get_logger()
    log.debug("verify.trial", oracle=oracle, seed=seed)
    messages = ORACLES[oracle](random.Random(seed))
    for message in messages:
        log.warn(
            "verify.violation", oracle=oracle, seed=seed, violation=message
        )
    return messages


def dump_trial_forensics(
    oracle: str, seed: int, directory: Optional[str] = None
) -> str:
    """Replay one trial in an isolated deterministic scope and dump it.

    Installs a fresh tick-clock tracer, a fresh metric registry, and a
    fresh deterministic flight recorder, re-runs the trial, and writes a
    ``repro-crash/1`` document carrying the record tail, the span stack
    at the point of any raise, a metric snapshot, and the oracle's
    violation messages.  Because the scope is fully isolated and every
    clock is a tick clock, the same ``(oracle, seed)`` always produces
    **byte-identical** dump files — ``repro verify --replay-seed`` and
    the original fuzz run emit the same bytes.
    """
    if oracle not in ORACLES:
        raise ValueError(
            f"unknown oracle {oracle!r}; known: {', '.join(ORACLES)}"
        )
    tracer = Tracer(deterministic=True)
    registry = MetricsRegistry()
    logger = Logger(deterministic=True)
    messages: List[str] = []
    caught: Optional[Exception] = None
    with scoped(tracer=tracer, metrics=registry, log=logger):
        try:
            with tracer.span("verify.replay", oracle=oracle, seed=seed):
                messages = run_trial(oracle, seed)
        except Exception as exc:
            caught = exc
    doc = build_crash_report(
        component=f"verify.{oracle}",
        seed=seed,
        exc=caught,
        logger=logger,
        tracer=tracer,
        metrics=registry,
    )
    doc["messages"] = list(messages)
    return write_crash_report(doc, directory)


@dataclass(frozen=True)
class FuzzFailure:
    """One failing trial, with everything needed to replay it."""

    oracle: str
    trial: int
    seed: int
    messages: Tuple[str, ...]
    dump_path: Optional[str] = None


@dataclass
class OracleReport:
    """Aggregate result of all trials of one oracle."""

    name: str
    trials: int
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class FuzzReport:
    """Full fuzz-run result with a deterministic text rendering."""

    base_seed: int
    trials_per_oracle: int
    oracles: List[OracleReport] = field(default_factory=list)

    @property
    def num_violations(self) -> int:
        return sum(
            len(f.messages) for o in self.oracles for f in o.failures
        )

    @property
    def ok(self) -> bool:
        return self.num_violations == 0

    def render(self) -> str:
        lines = [
            f"repro verify: seed={self.base_seed} "
            f"trials={self.trials_per_oracle} per oracle"
        ]
        for report in self.oracles:
            status = "ok" if report.ok else f"{len(report.failures)} FAILING"
            lines.append(
                f"  {report.name:<11} {report.trials:>6} trials   {status}"
            )
            for failure in report.failures:
                dump = (
                    f"; dump: {failure.dump_path}"
                    if failure.dump_path is not None
                    else ""
                )
                lines.append(
                    f"    trial {failure.trial} (replay: repro verify "
                    f"--oracle {failure.oracle} --replay-seed {failure.seed}"
                    f"{dump})"
                )
                for message in failure.messages:
                    lines.append(f"      {message}")
        total_trials = sum(o.trials for o in self.oracles)
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {len(self.oracles)} oracles, {total_trials} trials, "
            f"{self.num_violations} violations"
        )
        return "\n".join(lines)


def run_fuzz(
    oracle_names: Optional[Sequence[str]] = None,
    trials: int = 200,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    dump_dir: Optional[str] = None,
    corpus_path: Optional[str] = None,
) -> FuzzReport:
    """Run ``trials`` seeded trials for each selected oracle.

    Parameters
    ----------
    oracle_names:
        Subset of :data:`ORACLES` to run (default: all, in registry order).
    trials:
        Trials per oracle.
    seed:
        Base seed; the same seed always produces the same report.
    progress:
        Optional per-oracle line sink (the CLI passes ``print``).
    dump_dir:
        When set, every failing trial also writes a flight-recorder
        forensics dump (:func:`dump_trial_forensics`) into this
        directory, and the report prints the dump path next to the
        replay seed.
    corpus_path:
        When set, every failing trial's ``(oracle, seed)`` is appended
        (deduplicated) to this replay corpus, so the failure becomes a
        permanent tier-1 regression case (see :mod:`repro.verify.corpus`).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    names = list(ORACLES) if oracle_names is None else list(oracle_names)
    for name in names:
        if name not in ORACLES:
            raise ValueError(
                f"unknown oracle {name!r}; known: {', '.join(ORACLES)}"
            )
    report = FuzzReport(base_seed=seed, trials_per_oracle=trials)
    tracer = get_tracer()
    trial_counter = get_metrics().counter("verify.trials")
    failure_counter = get_metrics().counter("verify.oracle_failures")
    with tracer.span("verify.fuzz", seed=seed, trials=trials):
        for name in names:
            oracle_report = OracleReport(name=name, trials=trials)
            with tracer.span("verify.oracle", oracle=name):
                for trial in range(trials):
                    tseed = trial_seed(seed, name, trial)
                    with tracer.span(
                        "verify.trial", oracle=name, trial=trial
                    ) as span:
                        with crash_scope(
                            f"verify.{name}", tseed, directory=dump_dir
                        ):
                            messages = run_trial(name, tseed)
                        trial_counter.inc()
                        if messages:
                            failure_counter.inc()
                            span.set_tag("violations", len(messages))
                    if messages:
                        dump_path = (
                            dump_trial_forensics(name, tseed, dump_dir)
                            if dump_dir is not None
                            else None
                        )
                        oracle_report.failures.append(
                            FuzzFailure(
                                oracle=name,
                                trial=trial,
                                seed=tseed,
                                messages=tuple(messages),
                                dump_path=dump_path,
                            )
                        )
            report.oracles.append(oracle_report)
            if progress is not None:
                status = "ok" if oracle_report.ok else "FAIL"
                progress(f"oracle {name}: {trials} trials {status}")
    if corpus_path is not None:
        failures = [f for o in report.oracles for f in o.failures]
        if failures:
            added = corpus.append_failures(corpus_path, failures)
            if progress is not None and added:
                progress(
                    f"recorded {added} new corpus entr"
                    f"{'y' if added == 1 else 'ies'} in {corpus_path}"
                )
    return report
