"""dco/scorpio — the paper's significance-analysis framework in Python.

Workflow (Algorithm 1):

1.  Wrap the kernel in an :class:`Analysis` session; register inputs with
    their ranges (``INPUT``), tag intermediates (``INTERMEDIATE``) and
    outputs (``OUTPUT``).
2.  ``analyse()`` runs the interval-adjoint reverse sweep, computes every
    node's significance (Eq. 11), simplifies aggregation chains (S4) and
    scans levels for significance variance (S5).
3.  Read the :class:`SignificanceReport` to partition the code into tasks
    and assign task significances for :mod:`repro.runtime`.
"""

from .ablation import SIGNIFICANCE_VARIANTS, score_tape
from .advisor import Suggestion, render_advice, suggest_approximations
from .api import Analysis, analyse_function
from .compare import ReportDiff, compare_reports
from .compiled import (
    LaneScanMap,
    TraceStructure,
    analyse_compiled,
    analyse_compiled_tape,
    analyse_replay_lanes,
)
from .decorators import AnalysedFunction, significance
from .tape_store import TapeStore, STORE_VERSION
from .trace_cache import (
    CachedTrace,
    TraceCache,
    TraceDivergenceError,
    op_sequence_hash,
    replay_enabled,
    set_replay_default,
)
from .ranges import RangeStudy, analyse_over_ranges, analyse_with_splitting
from .dyndfg import DFGNode, DynDFG
from .partition import TaskSuggestion, propose_tasks, render_partition
from .montecarlo import (
    perturbation_significance,
    rank_correlation,
    sobol_style_significance,
)
from .report import SignificanceReport
from .serialize import (
    graph_from_dict,
    graph_to_dict,
    report_to_dict,
    report_to_json,
)
from .significance import normalise, significance_map, significance_value
from .simplify import simplify
from .variance import VarianceScan, find_significance_variance, level_variance

__all__ = [
    "Analysis",
    "analyse_function",
    "analyse_compiled",
    "analyse_compiled_tape",
    "analyse_replay_lanes",
    "TraceStructure",
    "LaneScanMap",
    "CachedTrace",
    "TapeStore",
    "STORE_VERSION",
    "TraceCache",
    "TraceDivergenceError",
    "op_sequence_hash",
    "replay_enabled",
    "set_replay_default",
    "DynDFG",
    "DFGNode",
    "SignificanceReport",
    "significance_value",
    "significance_map",
    "normalise",
    "simplify",
    "find_significance_variance",
    "level_variance",
    "VarianceScan",
    "perturbation_significance",
    "sobol_style_significance",
    "rank_correlation",
    "SIGNIFICANCE_VARIANTS",
    "score_tape",
    "TaskSuggestion",
    "propose_tasks",
    "render_partition",
    "RangeStudy",
    "analyse_over_ranges",
    "analyse_with_splitting",
    "Suggestion",
    "suggest_approximations",
    "render_advice",
    "graph_to_dict",
    "graph_from_dict",
    "report_to_dict",
    "report_to_json",
    "ReportDiff",
    "compare_reports",
    "significance",
    "AnalysedFunction",
]
