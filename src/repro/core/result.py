"""Diagnosis results.

Every algorithm returns a :class:`DiagnosisResult`: the hypothesis set H,
the graph it reasoned over (the universe E for specificity), the
constraints it applied, and anything the greedy loop could not explain.
The result object also carries the projections the metrics need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Tuple

from repro.core.graph import InferredGraph
from repro.core.linkspace import LinkToken, PhysicalLink, undirected_projection

__all__ = ["DiagnosisResult"]


@dataclass
class DiagnosisResult:
    """Outcome of one diagnosis run.

    Attributes
    ----------
    algorithm:
        Variant name (``"tomo"``, ``"nd-edge"``, ``"nd-bgpigp"``,
        ``"nd-lg"``).
    hypothesis:
        H — link tokens blamed for the observed unreachabilities.
    graph:
        The inferred graph used: its token set is the universe E when
        computing specificity.
    excluded:
        Tokens ruled out (working paths, withdrawal exoneration).
    unexplained_failures / unexplained_reroutes:
        Observation sets the hypothesis could not intersect; non-empty
        means the evidence was contradictory under the constraints.
    details:
        Free-form diagnostics (counts of reroute sets used, withdrawal
        exonerations applied, UH clusters formed, ...), surfaced in
        reports and asserted on in tests.
    """

    algorithm: str
    hypothesis: FrozenSet[LinkToken]
    graph: InferredGraph
    excluded: FrozenSet[LinkToken] = frozenset()
    unexplained_failures: Tuple[FrozenSet[LinkToken], ...] = ()
    unexplained_reroutes: Tuple[FrozenSet[LinkToken], ...] = ()
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def fully_explained(self) -> bool:
        """True when every failed path and reroute was accounted for."""
        return not (self.unexplained_failures or self.unexplained_reroutes)

    def physical_hypothesis(self) -> FrozenSet[PhysicalLink]:
        """H projected to undirected physical links (metric space)."""
        return undirected_projection(self.hypothesis)

    def physical_universe(self) -> FrozenSet[PhysicalLink]:
        """E projected to undirected physical links."""
        return undirected_projection(self.graph)

    def hypothesis_size(self) -> int:
        """|H| at the algorithm's native granularity."""
        return len(self.hypothesis)
