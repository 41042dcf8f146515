"""Shared fixtures for the paper-reproduction benchmarks.

Every figure's series comes from :mod:`repro.core.experiments`; these
fixtures build each one once per session and the per-figure tests assert
the paper's bands on them.  Scale knobs come from the environment so a
"paper-sized" run is one variable away:

* ``REPRO_BENCH_SCALE``      — characterization design scale (default 1.5)
* ``REPRO_BENCH_SAMPLE_RATE``— PMU sampling stride (default 2)
* ``REPRO_FIG5_VARIANTS``    — netlist variants per design (default 6;
  the paper's dataset corresponds to ~18)
* ``REPRO_FIG5_SCALE``       — design scale of the GCN dataset netlists
  (default 0.45)
* ``REPRO_FIG5_EPOCHS``      — GCN training epochs (default 80; paper 200)
* ``REPRO_FIG5_LR``          — GCN learning rate (default 1e-3; paper 1e-4)
"""

import pytest

from repro.core.characterize import characterize
from repro.core.env import env_float, env_int
from repro.core.experiments import run_figure2, run_figure5, run_table1_figure6
from repro.core.optimize import build_stage_options
from repro.core.predict import DatasetSpec, build_datasets
from repro.core.report import render_figure2

BENCH_SCALE = env_float("REPRO_BENCH_SCALE", 1.5)
SAMPLE_RATE = env_int("REPRO_BENCH_SAMPLE_RATE", 2)
FIG5_VARIANTS = env_int("REPRO_FIG5_VARIANTS", 6)
FIG5_EPOCHS = env_int("REPRO_FIG5_EPOCHS", 80)
FIG5_LR = env_float("REPRO_FIG5_LR", 1e-3)
FIG5_SCALE = env_float("REPRO_FIG5_SCALE", 0.45)


@pytest.fixture(scope="session")
def char_report():
    """Characterization of the SPARC-core proxy (Figures 2, Table I input)."""
    return characterize(
        "sparc_core",
        scale=BENCH_SCALE,
        vcpu_levels=(1, 2, 4, 8),
        sample_rate=SAMPLE_RATE,
    )


@pytest.fixture(scope="session")
def fig2(char_report):
    """Figure 2's panels (printed once) as the driver's dictionaries."""
    print("\n" + render_figure2(char_report))
    return run_figure2(report=char_report)


@pytest.fixture(scope="session")
def table1_figure6(char_report):
    """Table I's menu and selections plus Figure 6's sweep."""
    return run_table1_figure6(char_report)


@pytest.fixture(scope="session")
def paper_stage_options(char_report):
    """Per-stage VM options priced from the measured runtimes, for the
    algorithm checks (DP vs brute force, ablations)."""
    return build_stage_options(
        char_report.stage_runtimes(),
        families=char_report.recommended_families(),
    )


@pytest.fixture(scope="session")
def fig5_datasets():
    """The GCN dataset (18 designs x variants), built once."""
    spec = DatasetSpec(variants_per_design=FIG5_VARIANTS, scale=FIG5_SCALE, seed=0)
    return build_datasets(spec)


@pytest.fixture(scope="session")
def fig5(fig5_datasets):
    """Figure 5's series from one training run per application."""
    return run_figure5(fig5_datasets, epochs=FIG5_EPOCHS, lr=FIG5_LR)
