"""Algorithmic differentiation substrate (the paper's dco/c++ analogue).

Provides tape-based adjoint AD (scalar and interval), tangent-linear AD,
dispatching intrinsic functions, and high-level gradient drivers.

The interval-adjoint combination — :class:`ADouble` holding
:class:`~repro.intervals.Interval` values, recorded on a :class:`Tape` —
is the Python counterpart of the paper's ``dco::ia1s::type`` and the engine
underneath :mod:`repro.scorpio`.
"""

from . import intrinsics
from .adouble import ADouble, IntervalAdjoint
from .compiled import CompiledTape, LaneWorkspace, ReplayLanes, lane_workspace
from .replay import ForwardPlan, GuardDivergenceError, ReplayError
from .hessian import hessian, hessian_vector_product
from .derivatives import (
    adjoint_gradient,
    finite_difference_gradient,
    interval_gradient,
    tangent_gradient,
)
from .tangent import Tangent
from .tape import NoActiveTapeError, Node, Tape, active_tape, require_tape

__all__ = [
    "ADouble",
    "IntervalAdjoint",
    "Tangent",
    "Tape",
    "Node",
    "CompiledTape",
    "ReplayLanes",
    "LaneWorkspace",
    "lane_workspace",
    "ForwardPlan",
    "ReplayError",
    "GuardDivergenceError",
    "active_tape",
    "require_tape",
    "NoActiveTapeError",
    "intrinsics",
    "adjoint_gradient",
    "tangent_gradient",
    "finite_difference_gradient",
    "interval_gradient",
]
