"""The paper's contribution: multi-AS Boolean tomography algorithms.

Public surface: link tokens (:mod:`repro.core.linkspace`), probe paths and
snapshots (:mod:`repro.core.pathset`), the inferred graph, the four
diagnosis algorithms behind the :class:`~repro.core.diagnoser.NetDiagnoser`
facade, the diagnosability metric, and sensitivity/specificity scoring.
"""

from repro.core.consistency import SuspectReport, suspect_working_pairs
from repro.core.control_plane import (
    ControlPlaneView,
    IgpLinkDownObservation,
    WithdrawalObservation,
)
from repro.core.diagnosability import diagnosability, indistinguishable_classes
from repro.core.diagnoser import VARIANTS, NetDiagnoser
from repro.core.graph import InferredGraph
from repro.core.hitting_set import GreedyResult, exact_hitting_set, greedy_hitting_set
from repro.core.linkspace import (
    ORIGIN_TAG,
    UNKNOWN_TAG,
    IpLink,
    LinkToken,
    LogicalLink,
    PhysicalLink,
    UhNode,
    ip_link,
    is_unidentified,
    physical_link,
    physical_projection,
    sort_key,
    undirected_projection,
)
from repro.core.logical import logicalize
from repro.core.metrics import (
    MetricPair,
    as_projection,
    physical_metrics,
    sensitivity,
    specificity,
)
from repro.core.multipath import nd_edge_multipath
from repro.core.nd_bgpigp import nd_bgpigp
from repro.core.nd_edge import nd_edge
from repro.core.nd_lg import nd_lg
from repro.core.pathset import (
    EPOCH_POST,
    EPOCH_PRE,
    MeasurementSnapshot,
    PathStore,
    ProbePath,
    same_mapping,
)
from repro.core.reroute import reroute_sets
from repro.core.result import DiagnosisResult
from repro.core.scfs import scfs
from repro.core.tomo import tomo
from repro.core.uh import uh_tags

__all__ = [
    "ControlPlaneView",
    "DiagnosisResult",
    "EPOCH_POST",
    "EPOCH_PRE",
    "GreedyResult",
    "IgpLinkDownObservation",
    "InferredGraph",
    "IpLink",
    "LinkToken",
    "LogicalLink",
    "MeasurementSnapshot",
    "MetricPair",
    "NetDiagnoser",
    "ORIGIN_TAG",
    "PathStore",
    "PhysicalLink",
    "ProbePath",
    "SuspectReport",
    "UNKNOWN_TAG",
    "UhNode",
    "VARIANTS",
    "WithdrawalObservation",
    "as_projection",
    "diagnosability",
    "exact_hitting_set",
    "greedy_hitting_set",
    "indistinguishable_classes",
    "ip_link",
    "is_unidentified",
    "logicalize",
    "nd_bgpigp",
    "nd_edge",
    "nd_edge_multipath",
    "nd_lg",
    "physical_link",
    "physical_metrics",
    "physical_projection",
    "reroute_sets",
    "same_mapping",
    "scfs",
    "sensitivity",
    "sort_key",
    "specificity",
    "suspect_working_pairs",
    "tomo",
    "uh_tags",
    "undirected_projection",
]
