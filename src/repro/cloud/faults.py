"""Deterministic fault injection for the plan executor.

A :class:`FaultProfile` declares *what* can go wrong — Poisson spot
preemptions (the same rate model :func:`~repro.cloud.spot.spot_expected_runtime`
prices), VM boot/provisioning failures, transient control-plane API
errors, and straggler slowdowns.  A :class:`FaultInjector` decides *when*
it goes wrong, drawing every fault from its own ``random.Random`` stream
keyed by ``crc32(f"{seed}:{purpose}:{stage}:{attempt}")`` — the same
stable-seed construction :mod:`repro.verify.fuzz` uses — so an execution
is byte-reproducible from its seed and two seeds diverge immediately.

Keeping the streams independent per (purpose, stage, attempt) means the
preemption schedule of stage 2 does not shift when stage 1 happens to
retry one more time: fault draws are a pure function of where in the plan
they are consumed, which is what makes traces stable under re-planning.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["FaultProfile", "FaultInjector"]


@dataclass(frozen=True)
class FaultProfile:
    """Rates and knobs for every injectable fault class.

    Attributes
    ----------
    spot_interrupt_rate_per_hour:
        Poisson reclaim rate applied to spot stages (on-demand stages are
        never preempted).  Matches the rate parameter of
        :func:`~repro.cloud.spot.spot_expected_runtime`.
    boot_failure_prob:
        Probability that one VM provisioning attempt fails outright.
    api_error_prob:
        Probability that one job submission hits a transient API error.
    straggler_prob:
        Probability that a stage lands on a slow host.
    straggler_slowdown:
        Runtime multiplier (> 1) applied when a stage straggles.
    checkpoint_interval_seconds:
        Checkpointing period of the EDA tool, or ``None`` for
        restart-from-scratch — identical semantics to the spot model.
    """

    spot_interrupt_rate_per_hour: float = 0.0
    boot_failure_prob: float = 0.0
    api_error_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_slowdown: float = 1.5
    checkpoint_interval_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.spot_interrupt_rate_per_hour < 0:
            raise ValueError(
                "spot_interrupt_rate_per_hour must be non-negative, got "
                f"{self.spot_interrupt_rate_per_hour!r}"
            )
        for name in ("boot_failure_prob", "api_error_prob", "straggler_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p!r}")
        if self.straggler_slowdown <= 1.0:
            raise ValueError(
                "straggler_slowdown must be > 1 (a multiplier of 1 is a "
                f"no-op straggler), got {self.straggler_slowdown!r}"
            )
        if (
            self.checkpoint_interval_seconds is not None
            and self.checkpoint_interval_seconds <= 0
        ):
            raise ValueError(
                "checkpoint_interval_seconds must be positive, got "
                f"{self.checkpoint_interval_seconds!r}"
            )

    @property
    def fault_free(self) -> bool:
        """True when nothing can go wrong (the nominal-execution baseline)."""
        return (
            self.spot_interrupt_rate_per_hour == 0
            and self.boot_failure_prob == 0
            and self.api_error_prob == 0
            and self.straggler_prob == 0
        )

    # -- canned profiles --------------------------------------------------
    @classmethod
    def none(cls) -> "FaultProfile":
        """Nothing fails: execution reproduces the plan exactly."""
        return cls()

    @classmethod
    def calm(cls) -> "FaultProfile":
        """A quiet spot pool with rare control-plane hiccups."""
        return cls(
            spot_interrupt_rate_per_hour=0.05,
            boot_failure_prob=0.01,
            api_error_prob=0.02,
            straggler_prob=0.05,
            straggler_slowdown=1.3,
            checkpoint_interval_seconds=600.0,
        )

    @classmethod
    def preemption_heavy(cls) -> "FaultProfile":
        """A volatile spot pool — the ``convergence`` check's anchor."""
        return cls(
            spot_interrupt_rate_per_hour=2.0,
            boot_failure_prob=0.05,
            api_error_prob=0.05,
            straggler_prob=0.10,
            straggler_slowdown=1.5,
            checkpoint_interval_seconds=300.0,
        )

    @classmethod
    def storm(cls) -> "FaultProfile":
        """A full-blown capacity storm: reclaim rates an order of magnitude
        past ``preemption_heavy`` with aggressive checkpointing — what the
        ``fleet_replan`` benchmark executes under."""
        return cls(
            spot_interrupt_rate_per_hour=12.0,
            boot_failure_prob=0.15,
            api_error_prob=0.10,
            straggler_prob=0.25,
            straggler_slowdown=2.0,
            checkpoint_interval_seconds=120.0,
        )


#: Profiles addressable from the CLI (``repro execute --profile calm``).
PROFILES = {
    "none": FaultProfile.none,
    "calm": FaultProfile.calm,
    "heavy": FaultProfile.preemption_heavy,
    "storm": FaultProfile.storm,
}


class FaultInjector:
    """Seeded source of all fault decisions for one execution.

    Every query draws from a dedicated :class:`random.Random` stream keyed
    by ``(seed, purpose, stage, attempt)`` via ``zlib.crc32`` — stable
    across processes and Python versions.  Repeated calls with the same
    key draw successive values from the same stream (the preemption
    sampler consumes one draw per attempted segment).
    """

    def __init__(self, profile: FaultProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, purpose: str, stage: str, attempt: int = 0) -> random.Random:
        key = f"{self.seed}:{purpose}:{stage}:{attempt}"
        rng = self._streams.get(key)
        if rng is None:
            rng = random.Random(zlib.crc32(key.encode()))
            self._streams[key] = rng
        return rng

    def boot_fails(self, stage: str, attempt: int) -> bool:
        p = self.profile.boot_failure_prob
        return p > 0 and self.stream("boot", stage, attempt).random() < p

    def api_errors(self, stage: str, attempt: int) -> bool:
        p = self.profile.api_error_prob
        return p > 0 and self.stream("api", stage, attempt).random() < p

    def straggler_factor(self, stage: str, attempt: int) -> float:
        """Runtime multiplier for this stage attempt (1.0 = healthy host)."""
        p = self.profile.straggler_prob
        if p > 0 and self.stream("straggler", stage, attempt).random() < p:
            return self.profile.straggler_slowdown
        return 1.0

    def time_to_preemption(self, stage: str, attempt: int) -> float:
        """Seconds from segment start to the next spot reclaim (may be inf).

        Exponential with the profile's hourly rate; by memorylessness a
        fresh draw per (re)started segment is a faithful Poisson process.
        """
        lam = self.profile.spot_interrupt_rate_per_hour / 3600.0
        if lam <= 0:
            return math.inf
        return self.stream("preempt", stage, attempt).expovariate(lam)

    def jitter(self, stage: str, attempt: int) -> float:
        """Uniform [0, 1) draw for deterministic backoff jitter."""
        return self.stream("jitter", stage, attempt).random()
