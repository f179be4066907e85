"""Behavioral toolkit for affine time-invariant systems.

Trajectories, Hankel matrices and excitation tests; affine state-space
models with lifting and linearization; data-driven trajectory
representations with kernel recovery and integer invariants; and exact
polynomial-matrix algebra for kernel-representation consistency and
equivalence.
"""

from .affine_ss import (
    AffineStateSpace,
    LiftedStateSpace,
    SimulationResult,
    controllable,
    difference_system,
    lift,
    simulate,
)
from .datadriven import (
    DataDrivenRep,
    IntegerInvariants,
    complete,
    invariants_from_data,
    membership,
    rank_condition_affine,
    rank_condition_affine_report,
    recover_kernel,
)
from .excitation import (
    gape_check,
    gape_report,
    max_pe_order,
    min_data_length,
    pe_order_affine,
    pe_order_affine_report,
    pe_order_linear,
    pe_order_linear_report,
    pe_profile,
    sampling_gap,
)
from .kernelrep import (
    AffineKernelRep,
    OffsetSequence,
    behavior_apply,
    consistent_constant,
    consistent_sequence,
    consistent_sequence_report,
    controllable_kernel,
    equivalent,
    lag_of,
    minimize,
    syzygy_basis,
)
from .plants import NonlinearPlant, expr_from_json, input_var, linearize, state_var
from .poly import Poly, poly_gcd
from .polymatrix import PolyMatrix, SmithDecomposition, smith_form
from .trajectories import (
    HankelMatrix,
    Trajectory,
    hankel,
    numerical_rank,
    restrict,
    shift,
)

__version__ = "0.1.0"

__all__ = [
    "AffineKernelRep",
    "AffineStateSpace",
    "DataDrivenRep",
    "HankelMatrix",
    "IntegerInvariants",
    "LiftedStateSpace",
    "NonlinearPlant",
    "OffsetSequence",
    "Poly",
    "PolyMatrix",
    "SimulationResult",
    "SmithDecomposition",
    "Trajectory",
    "behavior_apply",
    "complete",
    "consistent_constant",
    "consistent_sequence",
    "consistent_sequence_report",
    "controllable",
    "controllable_kernel",
    "difference_system",
    "equivalent",
    "expr_from_json",
    "gape_check",
    "gape_report",
    "hankel",
    "input_var",
    "invariants_from_data",
    "lag_of",
    "lift",
    "linearize",
    "max_pe_order",
    "membership",
    "min_data_length",
    "minimize",
    "numerical_rank",
    "pe_order_affine",
    "pe_order_affine_report",
    "pe_order_linear",
    "pe_order_linear_report",
    "pe_profile",
    "poly_gcd",
    "rank_condition_affine",
    "rank_condition_affine_report",
    "recover_kernel",
    "restrict",
    "sampling_gap",
    "shift",
    "simulate",
    "smith_form",
    "syzygy_basis",
]
