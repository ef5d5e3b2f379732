"""Overlap Plan Generation: problem, CP solver, LC-OPG, plans, validation."""

from repro.opg.cpsat import CpModel, CpSolver, SolveStatus
from repro.opg.exact import edf_feasible, prove_window, srpt_window
from repro.opg.lcopg import LcOpgSolver
from repro.opg.plan import OverlapPlan, PlanStats, TransformSegment, WeightSchedule
from repro.opg.problem import OpgConfig, OpgProblem, WeightInfo, build_problem
from repro.opg.validate import validate_plan

__all__ = [
    "CpModel",
    "CpSolver",
    "SolveStatus",
    "edf_feasible",
    "prove_window",
    "srpt_window",
    "LcOpgSolver",
    "OverlapPlan",
    "PlanStats",
    "TransformSegment",
    "WeightSchedule",
    "OpgConfig",
    "OpgProblem",
    "WeightInfo",
    "build_problem",
    "validate_plan",
]
