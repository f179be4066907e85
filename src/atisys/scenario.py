"""Bundled reference scenario: three excitation experiments on one system.

A second-order single-input affine system (integrator and unstable mode,
both with unit offsets) is driven by three scalar input records of
decreasing richness: a 9-sample mix of a constant and two sinusoids, an
8-sample sum of two sinusoids without a constant component, and a 6-sample
single sinusoid.  States are re-derived by simulation from zero initial
conditions, and the data-driven rank condition at window length 2 is
checked for each record at its nominal experiment length (9, 7 and 6).
The third record fails the affine excitation test at order 4 yet still
satisfies the rank condition, showing that the excitation condition is
sufficient but not necessary.
"""

from __future__ import annotations

import numpy as np

from .affine_ss import AffineStateSpace, simulate
from .datadriven import rank_condition_affine_report
from .excitation import ExcitationReport
from .trajectories import Trajectory, restrict

WINDOW_LENGTH = 2

INPUT_RECORDS: dict[str, tuple[float, ...]] = {
    "experiment-1": (0.91, 0.41, -0.53, -0.99, -0.65, 0.20, 0.87, 0.97, 0.32),
    "experiment-2": (0.640, -0.323, -1.0, 0.248, -0.640, 0.323, 1.0, -0.248),
    "experiment-3": (1.0, -0.12, -1.0, 0.12, 1.0, -0.12),
}

# nominal experiment lengths; the second record carries one extra printed
# sample used only by the excitation classification, not the rank check
EXPERIMENT_LENGTHS = {"experiment-1": 9, "experiment-2": 7, "experiment-3": 6}


def reference_system() -> AffineStateSpace:
    """Order-2 single-input system with unit offsets and full state output."""
    return AffineStateSpace(
        A=[[1.0, 0.0], [0.0, 2.0]],
        B=[[1.0], [1.0]],
        C=np.eye(2),
        D=np.zeros((2, 1)),
        E=[1.0, 1.0],
        F=[0.0, 0.0],
    )


def reference_input(name: str) -> Trajectory:
    return Trajectory.inputs(np.array(INPUT_RECORDS[name]).reshape(-1, 1))


def run_reference_experiments(tol: float | None = None) -> list[ExcitationReport]:
    """Rank-condition report for each record in ``EXPERIMENT_LENGTHS`` order,
    states re-derived by simulation, at window length ``WINDOW_LENGTH``."""
    sys = reference_system()
    reports = []
    for name, T in EXPERIMENT_LENGTHS.items():
        u = restrict(reference_input(name), 1, T)
        sim = simulate(sys, np.zeros(2), u)
        reports.append(rank_condition_affine_report(sim.x, u, WINDOW_LENGTH, tol))
    return reports
