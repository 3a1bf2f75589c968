"""Flow-aware static analysis: project call graph + effect inference.

Layered on the single-file :mod:`repro.lintkit` engine:

* :mod:`repro.lintkit.flow.graph` builds a project-wide call graph
  (imports, re-exports, method dispatch via annotations and the class
  hierarchy, closures/lambdas conservatively);
* :mod:`repro.lintkit.flow.effects` runs a fixpoint over the graph for
  the effect lattice — ``blocking``, ``draws-rng``, ``raises(T)``.

Checkers consume the result through :func:`ensure_analysis`, which
builds a :class:`FlowAnalysis` the first time a flow checker asks and
keeps it on :attr:`Project.flow`, so one graph serves all four flow
checkers in a run and a run without them never builds it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lintkit.flow.effects import EffectResults, propagate
from repro.lintkit.flow.graph import FlowGraph, build_graph
from repro.lintkit.model import Project

__all__ = [
    "FlowAnalysis",
    "FlowGraph",
    "EffectResults",
    "ensure_analysis",
]


@dataclass
class FlowAnalysis:
    """Call graph + effect fixpoint for one analysed tree.

    Attributes:
        graph: the project call graph.
        effects: per-function effect sets with witnesses.
    """

    graph: FlowGraph
    effects: EffectResults


def ensure_analysis(project: Project) -> FlowAnalysis:
    """The flow analysis of ``project``, built on the first call."""
    if project.flow is None:
        graph = build_graph(project)
        project.flow = FlowAnalysis(graph=graph, effects=propagate(graph))
    return project.flow
