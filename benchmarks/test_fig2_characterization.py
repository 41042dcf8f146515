"""Figure 2: performance characterization of the four EDA applications.

Asserts the paper's qualitative claims on the SPARC-core proxy's panels
from :func:`repro.core.experiments.run_figure2`:

(a) routing has the highest branch-miss rate;
(b) placement/routing have much higher cache-miss rates than
    synthesis/STA, placement's falls as VMs grow, routing's stays flat;
(c) placement leads AVX utilization with STA second;
(d) routing scales best with vCPUs, synthesis worst.
"""

from repro.cloud import InstanceFamily


def _mean(series):
    return {s: sum(r.values()) / len(r) for s, r in series.items()}


def test_fig2a_branch_misses(fig2):
    mean = _mean(fig2["branch_miss_rates"])
    # Paper: routing clearly highest, attributed to maze search + RRR.
    assert mean["routing"] == max(mean.values())
    assert mean["routing"] > 2 * mean["placement"]
    # Placement's vectorized loops mispredict the least.
    assert mean["placement"] == min(mean.values())


def test_fig2b_cache_misses(fig2):
    rates = fig2["cache_miss_rates"]
    place = rates["placement"]
    route = rates["routing"]
    synth = rates["synthesis"]
    sta = rates["sta"]
    # Placement and routing well above synthesis and STA (paper 2-b).
    assert min(place[1], route[1]) > max(synth[1], sta[1])
    # Placement: ~45% at 1 vCPU falling to ~34% at 8 (shape check).
    assert place[1] > place[8]
    assert 0.30 <= place[8] <= 0.45
    assert place[1] >= 0.40
    # Routing: comparatively flat / insensitive to VM size (27->30% in
    # the paper); allow a band rather than a direction.
    assert abs(route[1] - route[8]) < 0.12
    assert 0.15 <= route[8] <= 0.40


def test_fig2c_fp_avx(fig2):
    mean = _mean(fig2["avx_shares"])
    ordered = sorted(mean, key=mean.get, reverse=True)
    # Paper: placement leads (analytical gradients), STA second (slack
    # arithmetic over the library), synthesis/routing negligible.
    assert ordered[0] == "placement"
    assert ordered[1] == "sta"
    assert mean["synthesis"] < 0.01
    assert mean["routing"] < 0.01


def test_fig2d_speedup(fig2):
    speedups = fig2["speedups"]
    at8 = {s: sp[8] for s, sp in speedups.items()}
    # Paper values at 8 vCPUs: synthesis 1.82, placement 2.32,
    # routing 6.18, STA 2.23.  Check ordering and rough factors.
    assert at8["routing"] == max(at8.values())
    assert at8["synthesis"] == min(at8.values())
    assert 1.4 <= at8["synthesis"] <= 2.4
    assert 1.8 <= at8["placement"] <= 2.9
    assert 4.0 <= at8["routing"] <= 7.5
    assert 1.8 <= at8["sta"] <= 2.8
    # Speedups grow monotonically with vCPUs for every stage.
    for stage, sp in speedups.items():
        assert sp[1] <= sp[2] <= sp[4] <= sp[8] * 1.05


def test_fig2_recommendations(fig2):
    """The 'Main Takeaways' derived from measurements match the paper."""
    families = fig2["recommended_families"]
    assert families["synthesis"] == InstanceFamily.GENERAL_PURPOSE.value
    assert families["sta"] == InstanceFamily.GENERAL_PURPOSE.value
    assert families["placement"] == InstanceFamily.MEMORY_OPTIMIZED.value
    assert families["routing"] == InstanceFamily.MEMORY_OPTIMIZED.value
    avx = fig2["wants_avx"]
    assert avx["placement"] and avx["sta"]
    scales = fig2["scales_well"]
    assert scales["routing"] and not scales["synthesis"]
