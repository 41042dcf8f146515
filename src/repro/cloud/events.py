"""Structured, replayable execution event traces.

Every decision the plan executor makes — provisioning attempts, fault
injections, backoff sleeps, checkpoint commits, spot preemptions,
on-demand fallbacks, mid-flight re-planning — is recorded as an
:class:`ExecutionEvent` in an :class:`ExecutionTrace`.  The trace is the
executor's ground truth: billing is reconstructed from its ``billed``
events, the verification oracles replay it to check causality (no stage
starts before its predecessor commits, retries stay within policy, cost
equals the sum of billed segments), and byte-reproducibility from a seed
is asserted event-for-event.

Events are frozen dataclasses with a total ordering of ``seq`` numbers,
so two traces compare equal iff every event matches exactly.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["EventKind", "ExecutionEvent", "ExecutionTrace"]


class EventKind(str, enum.Enum):
    """Everything that can happen while executing a deployment plan."""

    FLOW_START = "flow_start"
    STAGE_START = "stage_start"
    BOOT_FAILURE = "boot_failure"
    API_ERROR = "api_error"
    BACKOFF = "backoff"
    STRAGGLER = "straggler"
    CHECKPOINT = "checkpoint"
    PREEMPTION = "preemption"
    AZ_RECLAIM = "az_reclaim"
    REGIME_SHIFT = "regime_shift"
    REGION_FAILOVER = "region_failover"
    TRANSFER = "transfer"
    TIMEOUT = "timeout"
    FALLBACK = "fallback"
    REPLAN = "replan"
    BILLED = "billed"
    STAGE_COMMIT = "stage_commit"
    STAGE_ABORT = "stage_abort"
    FLOW_COMPLETE = "flow_complete"
    FLOW_FAIL = "flow_fail"


@dataclass(frozen=True)
class ExecutionEvent:
    """One timestamped executor decision.

    ``info`` is stored as a sorted tuple of ``(key, value)`` pairs so the
    event is hashable and equality is exact — the determinism oracle
    compares traces event-for-event.
    """

    seq: int
    time: float
    kind: EventKind
    stage: Optional[str] = None
    vm: Optional[str] = None
    attempt: int = 0
    info: Tuple[Tuple[str, object], ...] = ()

    def get(self, key: str, default=None):
        """Look up one ``info`` entry."""
        for k, v in self.info:
            if k == key:
                return v
        return default

    def render(self) -> str:
        """One deterministic human-readable line."""
        parts = [f"[{self.seq:4d}] t={self.time:12.3f}s {self.kind.value:<13}"]
        if self.stage:
            parts.append(self.stage)
        if self.vm:
            parts.append(f"on {self.vm}")
        if self.attempt:
            parts.append(f"attempt {self.attempt}")
        for k, v in self.info:
            parts.append(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}")
        return " ".join(parts)

    def to_json(self) -> str:
        """One JSON line (stable key order) for ``ExecutionTrace.to_jsonl``."""
        return json.dumps(
            {
                "seq": self.seq,
                "time": self.time,
                "kind": self.kind.value,
                "stage": self.stage,
                "vm": self.vm,
                "attempt": self.attempt,
                "info": dict(self.info),
            },
            sort_keys=True,
        )


@dataclass
class ExecutionTrace:
    """Ordered event log of one plan execution.

    ``enabled=False`` turns :meth:`record` into a no-op — the Monte-Carlo
    convergence harness runs hundreds of thousands of simulated stages and
    only needs the totals, not the event objects.
    """

    seed: int = 0
    enabled: bool = True
    events: List[ExecutionEvent] = field(default_factory=list)

    def record(
        self,
        time: float,
        kind: EventKind,
        stage: Optional[str] = None,
        vm: Optional[str] = None,
        attempt: int = 0,
        **info,
    ) -> None:
        if not self.enabled:
            return
        self.events.append(
            ExecutionEvent(
                seq=len(self.events),
                time=time,
                kind=kind,
                stage=stage,
                vm=vm,
                attempt=attempt,
                info=tuple(sorted(info.items())),
            )
        )

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: EventKind) -> List[ExecutionEvent]:
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: EventKind, stage: Optional[str] = None) -> int:
        return sum(
            1
            for e in self.events
            if e.kind == kind and (stage is None or e.stage == stage)
        )

    def preemptions(self, stage: Optional[str] = None) -> int:
        """Number of spot preemptions recorded (optionally per stage)."""
        return self.count(EventKind.PREEMPTION, stage)

    @property
    def billed_cost(self) -> float:
        """Total cost reconstructed from the ``billed`` events."""
        return sum(e.get("cost", 0.0) for e in self.of_kind(EventKind.BILLED))

    @property
    def billed_seconds(self) -> float:
        return sum(e.get("seconds", 0.0) for e in self.of_kind(EventKind.BILLED))

    def render(self) -> str:
        """Deterministic multi-line rendering (same seed ⇒ same bytes)."""
        lines = [f"execution trace (seed={self.seed}, {len(self.events)} events)"]
        lines.extend(e.render() for e in self.events)
        return "\n".join(lines)

    def to_jsonl(self) -> str:
        """The replayable wire format: one JSON object per event."""
        return "\n".join(e.to_json() for e in self.events)
