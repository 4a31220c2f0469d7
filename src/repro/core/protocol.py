"""The ``Diagnoser`` protocol: the shape every diagnosis engine satisfies.

Everything that can turn a :class:`~repro.core.pathset.MeasurementSnapshot`
into a :class:`~repro.core.result.DiagnosisResult` — the paper's
:class:`~repro.core.diagnoser.NetDiagnoser` facade, the traceroute-empathy
engine (:mod:`repro.empathy`), and the ensemble wrapper — implements this
structural protocol.  Downstream code (experiment runner, streaming engine,
figures, CLIs) depends only on the protocol, never on a concrete class, so
new engines plug in by registering a constructor in :mod:`repro.diagnosers`.

The two optional keyword inputs mirror the paper's information tiers: a
diagnoser that does not use control-plane observations or Looking Glass
callbacks simply ignores them.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.core.control_plane import ControlPlaneView
from repro.core.pathset import MeasurementSnapshot
from repro.core.result import DiagnosisResult

__all__ = ["Diagnoser", "LgLookupLike"]

#: Looking Glass callback shape (``repro.core.nd_lg.LgLookup`` compatible).
LgLookupLike = Callable[..., Any]


@runtime_checkable
class Diagnoser(Protocol):
    """Structural interface of every diagnosis engine.

    Attributes
    ----------
    variant:
        Stable algorithm name (``"nd-edge"``, ``"empathy"``, ...) — used
        in journal fingerprints, report labels and empty-result
        placeholders, so it must be a plain string constant per instance.
    """

    variant: str

    def diagnose(
        self,
        snapshot: MeasurementSnapshot,
        control: Optional[ControlPlaneView] = None,
        lg_lookup: Optional[LgLookupLike] = None,
    ) -> DiagnosisResult:
        """Diagnose one event from its measurement snapshot."""
        ...
