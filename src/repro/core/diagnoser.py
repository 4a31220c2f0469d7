"""The NetDiagnoser facade: one entry point, four variants.

Downstream users pick a variant and call
:meth:`NetDiagnoser.diagnose`; the facade dispatches to the right
algorithm and checks that the inputs the variant needs were supplied.

=============  ===============================================  =========
variant        extra inputs required                            paper
=============  ===============================================  =========
``scfs``       —  (single-source trees over T- paths)           §2.1
``tomo``       —                                                §2.4
``nd-edge``    —  (uses T+ paths from the snapshot)             §3.1-3.2
``nd-bgpigp``  ``control`` (AS-X's IGP + BGP observations)      §3.3
``nd-lg``      ``lg_lookup`` (Looking Glass path callback)      §3.4
=============  ===============================================  =========

Every variant satisfies the :class:`repro.core.protocol.Diagnoser`
protocol; sibling engines (``repro.empathy``) register alongside these
names in :mod:`repro.diagnosers`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.control_plane import ControlPlaneView
from repro.core.nd_bgpigp import nd_bgpigp
from repro.core.nd_edge import nd_edge
from repro.core.nd_lg import LgLookup, nd_lg
from repro.core.pathset import MeasurementSnapshot
from repro.core.result import DiagnosisResult
from repro.core.scfs import scfs_diagnose
from repro.core.tomo import tomo
from repro.errors import DiagnosisError

__all__ = ["NetDiagnoser", "VARIANTS"]

VARIANTS = ("scfs", "tomo", "nd-edge", "nd-bgpigp", "nd-lg")


class NetDiagnoser:
    """Configured troubleshooter.

    Parameters
    ----------
    variant:
        One of :data:`VARIANTS`.
    failure_weight / reroute_weight:
        The a/b score weights of §3.2 (both 1 in the paper).
    use_partial_traces:
        Enable the truncated-trace exoneration extension (``DESIGN.md``
        §6; not part of the paper's algorithms).
    ignore_unidentified:
        For ``nd-bgpigp`` only: drop UH links from failure sets, the §5.4
        comparison behaviour.
    """

    def __init__(
        self,
        variant: str = "nd-bgpigp",
        failure_weight: int = 1,
        reroute_weight: int = 1,
        use_partial_traces: bool = False,
        ignore_unidentified: bool = False,
    ) -> None:
        if variant not in VARIANTS:
            raise DiagnosisError(
                f"unknown variant {variant!r}; expected one of {VARIANTS}"
            )
        self.variant = variant
        self.failure_weight = failure_weight
        self.reroute_weight = reroute_weight
        self.use_partial_traces = use_partial_traces
        self.ignore_unidentified = ignore_unidentified

    def diagnose(
        self,
        snapshot: MeasurementSnapshot,
        control: Optional[ControlPlaneView] = None,
        lg_lookup: Optional[LgLookup] = None,
    ) -> DiagnosisResult:
        """Diagnose one event from its measurement snapshot."""
        if not snapshot.any_failure():
            raise DiagnosisError(
                "nothing to diagnose: every probed pair is reachable "
                "(the troubleshooter is only invoked on unreachabilities)"
            )
        if self.variant == "scfs":
            result = scfs_diagnose(snapshot)
        elif self.variant == "tomo":
            result = tomo(snapshot)
        elif self.variant == "nd-edge":
            result = nd_edge(
                snapshot,
                failure_weight=self.failure_weight,
                reroute_weight=self.reroute_weight,
                use_partial_traces=self.use_partial_traces,
            )
        elif self.variant == "nd-bgpigp":
            if control is None:
                raise DiagnosisError("nd-bgpigp requires a ControlPlaneView")
            result = nd_bgpigp(
                snapshot,
                control,
                failure_weight=self.failure_weight,
                reroute_weight=self.reroute_weight,
                use_partial_traces=self.use_partial_traces,
                ignore_unidentified=self.ignore_unidentified,
            )
        else:
            if lg_lookup is None:
                raise DiagnosisError(
                    "nd-lg requires a Looking Glass lookup callback"
                )
            result = nd_lg(
                snapshot,
                control,
                lg_lookup,
                failure_weight=self.failure_weight,
                reroute_weight=self.reroute_weight,
            )
        return result
