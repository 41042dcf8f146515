"""Figure 3: routing speedup across designs of different sizes.

The paper routes the OpenPiton designs (dynamic_node smallest ...
sparc_core largest) and shows that big designs scale with vCPUs while
small ones plateau — "almost equal speedups for 4 and 8 vCPUs" on
dynamic_node and aes.  The series comes from
:func:`repro.core.experiments.run_figure3` at its default lineup.
"""

import pytest

from repro.core.experiments import run_figure3
from repro.core.report import render_figure3


@pytest.fixture(scope="module")
def fig3():
    out = run_figure3()
    print("\n" + render_figure3(out["speedups"]))
    print("instance counts:", out["instances"])
    return out


def test_fig3_routing_speedup_by_design(fig3):
    speedups, sizes = fig3["speedups"], fig3["instances"]
    designs = list(speedups)  # smallest to largest, the paper's x-axis
    smallest, largest = designs[0], designs[-1]
    assert sizes[largest] > 5 * sizes[smallest]

    # Large designs scale well with vCPUs; small ones don't.
    assert speedups[largest][8] > 4.0
    assert speedups[smallest][8] < 3.0
    assert speedups[largest][8] > speedups[smallest][8] + 1.5

    # The plateau: small designs have almost equal speedups at 4 and 8.
    assert abs(speedups[smallest][8] - speedups[smallest][4]) < 0.5

    # Speedup at 8 vCPUs grows with design size (monotone in the lineup).
    at8 = [speedups[name][8] for name in designs]
    assert at8[-1] == max(at8)
    assert at8[0] == min(at8)


def test_fig3_adding_vcpus_never_helps_everywhere(fig3):
    # 'Adding more vCPUs does not eminently scale the routing job in all
    # designs' — at least one design gains < 25% going from 4 to 8.
    speedups = fig3["speedups"]
    gains = [sp[8] / sp[4] for sp in speedups.values()]
    assert min(gains) < 1.25
    # ...but the largest design still gains substantially.
    largest = list(speedups)[-1]
    assert speedups[largest][8] / speedups[largest][4] > 1.2
