"""Property tests for the fault profile and the seeded injector streams.

The load-bearing invariant is stream *independence*: every fault draw is
a pure function of ``(seed, purpose, stage, attempt)``, so what one
stage consumes can never shift another stage's schedule.  That is what
keeps executor traces stable under re-planning.
"""

import math

import pytest

from repro.cloud.faults import PROFILES, FaultInjector, FaultProfile


# ----------------------------------------------------------------------
# Profile validation: named errors, not silent nonsense
# ----------------------------------------------------------------------
def test_negative_interrupt_rate_rejected_by_name():
    with pytest.raises(ValueError, match="spot_interrupt_rate_per_hour"):
        FaultProfile(spot_interrupt_rate_per_hour=-0.1)


def test_straggler_slowdown_of_one_rejected():
    # A multiplier of exactly 1 is a no-op straggler — reject it loudly
    # rather than silently injecting faults that change nothing.
    with pytest.raises(ValueError, match="straggler_slowdown must be > 1"):
        FaultProfile(straggler_prob=0.1, straggler_slowdown=1.0)
    with pytest.raises(ValueError, match="straggler_slowdown must be > 1"):
        FaultProfile(straggler_slowdown=0.5)


def test_out_of_range_probabilities_rejected_by_name():
    with pytest.raises(ValueError, match="boot_failure_prob"):
        FaultProfile(boot_failure_prob=1.5)
    with pytest.raises(ValueError, match="api_error_prob"):
        FaultProfile(api_error_prob=-0.01)


def test_nonpositive_checkpoint_interval_rejected():
    with pytest.raises(ValueError, match="checkpoint_interval_seconds"):
        FaultProfile(checkpoint_interval_seconds=0.0)


def test_storm_preset_is_registered_and_harsher_than_heavy():
    storm = FaultProfile.storm()
    heavy = FaultProfile.preemption_heavy()
    assert PROFILES["storm"]() == storm
    assert not storm.fault_free
    assert (
        storm.spot_interrupt_rate_per_hour
        > heavy.spot_interrupt_rate_per_hour
    )
    assert storm.boot_failure_prob > heavy.boot_failure_prob
    assert (
        storm.checkpoint_interval_seconds
        < heavy.checkpoint_interval_seconds
    )


# ----------------------------------------------------------------------
# Stream independence
# ----------------------------------------------------------------------
def test_stage_streams_are_independent_of_other_stages_consumption():
    """Stage 2's draws must not move when stage 1 retries more."""
    profile = FaultProfile.storm()

    def placement_draws(synthesis_attempts):
        injector = FaultInjector(profile, seed=7)
        # Simulate synthesis burning a variable number of attempts.
        for attempt in range(synthesis_attempts):
            injector.boot_fails("synthesis", attempt)
            injector.api_errors("synthesis", attempt)
            injector.time_to_preemption("synthesis", attempt)
            injector.jitter("synthesis", attempt)
        return [
            injector.time_to_preemption("placement", 0) for _ in range(5)
        ]

    baseline = placement_draws(0)
    for attempts in (1, 3, 10):
        assert placement_draws(attempts) == baseline


def test_attempt_streams_are_independent_within_a_stage():
    profile = FaultProfile.storm()
    lone = FaultInjector(profile, seed=3)
    expected = lone.time_to_preemption("routing", 2)

    busy = FaultInjector(profile, seed=3)
    for attempt in (0, 1):
        for _ in range(4):
            busy.time_to_preemption("routing", attempt)
    assert busy.time_to_preemption("routing", 2) == expected


def test_purposes_draw_from_disjoint_streams():
    profile = FaultProfile.storm()
    a = FaultInjector(profile, seed=11)
    b = FaultInjector(profile, seed=11)
    # Interleave purposes on one injector, query them in isolation on
    # the other: each purpose's sequence must match regardless.
    seq_a = []
    for attempt in range(3):
        a.boot_fails("sta", attempt)
        seq_a.append(a.time_to_preemption("sta", attempt))
    seq_b = [b.time_to_preemption("sta", k) for k in range(3)]
    assert seq_a == seq_b


def test_same_key_continues_one_stream():
    profile = FaultProfile.storm()
    injector = FaultInjector(profile, seed=0)
    first = injector.time_to_preemption("placement", 0)
    second = injector.time_to_preemption("placement", 0)
    assert first != second  # successive draws, not a restarted stream


def test_distinct_seeds_diverge_on_the_first_draw():
    profile = FaultProfile.storm()
    draws = {
        FaultInjector(profile, seed=s).time_to_preemption("synthesis", 0)
        for s in range(8)
    }
    assert len(draws) == 8


def test_fault_free_profile_consults_no_streams():
    """Zero rates short-circuit before touching a stream.

    If no stream is ever created, a fault-free run cannot perturb — or
    be perturbed by — any other draw.
    """
    injector = FaultInjector(FaultProfile.none(), seed=5)
    assert injector.boot_fails("synthesis", 0) is False
    assert injector.api_errors("synthesis", 0) is False
    assert injector.straggler_factor("synthesis", 0) == 1.0
    assert injector.time_to_preemption("synthesis", 0) == math.inf
    assert injector._streams == {}
