"""Probe paths and the stores the troubleshooter receives them in.

A :class:`ProbePath` is one traceroute as the troubleshooter sees it:
endpoint sensor addresses, the hop sequence (identified addresses and
:class:`~repro.core.linkspace.UhNode` stars) and whether the destination
answered.  A :class:`PathStore` holds one full-mesh measurement round; a
:class:`MeasurementSnapshot` pairs the round taken before a failure event
(``T-``) with the one taken after (``T+``) plus the IP-to-AS mapping
callable — the complete edge-data input of every NetDiagnoser variant.

Each derives its diagnosis inputs once (a path its tokens, a store its
graphs, a snapshot its edge inputs); the stores are frozen by the time a
diagnosis reads them, and no memo travels in a pickle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Optional, Tuple

from repro.core.linkspace import Endpoint, IpLink, ip_link
from repro.errors import DiagnosisError

if TYPE_CHECKING:
    from repro.core.graph import InferredGraph

__all__ = [
    "EPOCH_PRE",
    "EPOCH_POST",
    "ProbePath",
    "PathStore",
    "MeasurementSnapshot",
    "same_mapping",
]

EPOCH_PRE = "pre"
EPOCH_POST = "post"

#: A probe pair: (source sensor address, destination sensor address).
Pair = Tuple[str, str]


def same_mapping(a: Callable, b: Callable) -> bool:
    """Whether a memo built under IP-to-AS mapping ``a`` serves ``b``: by
    equality, as each snapshot gets a fresh bound ``mapper.asn_of``, and
    never by hash, as a worker's ``StaticAsnMap`` has none."""
    return a is b or a == b


@dataclass(frozen=True)
class ProbePath:
    """One traceroute between two sensors.

    ``hops`` starts at the source sensor's own address and, when the probe
    reached, ends at the destination sensor's address.  A failed probe's
    hops stop at the last responding position before the blackhole.
    """

    src: str
    dst: str
    hops: Tuple[Endpoint, ...]
    reached: bool
    epoch: str = EPOCH_PRE

    def __post_init__(self) -> None:
        if not self.hops:
            raise DiagnosisError(f"probe {self.src}->{self.dst} has no hops")
        if self.hops[0] != self.src:
            raise DiagnosisError(
                f"probe {self.src}->{self.dst}: first hop must be the source sensor"
            )
        if self.reached and self.hops[-1] != self.dst:
            raise DiagnosisError(
                f"probe {self.src}->{self.dst} reached but does not end at "
                "the destination sensor"
            )
        # Memo slot for links(); the dataclass is frozen so it must be set
        # through object.__setattr__ (same trick TraceResult.addresses uses).
        object.__setattr__(self, "_links_memo", None)

    #: logicalize()'s memo slot, set on first use: most paths never need it.
    _tokens_memo = None

    def __getstate__(self) -> Dict[str, Any]:
        # Memos never travel: a warm path pickles to a cold path's bytes.
        state = dict(self.__dict__, _links_memo=None)
        state.pop("_tokens_memo", None)
        return state

    @property
    def pair(self) -> Pair:
        return (self.src, self.dst)

    def links(self) -> Tuple[IpLink, ...]:
        """The directed physical-level link tokens along this path.

        Memoised: suspect-set construction walks every failed path's links
        once per diagnosis variant, and the hops are immutable.
        """
        memo = self._links_memo
        if memo is None:
            memo = tuple(
                ip_link(a, b) for a, b in zip(self.hops, self.hops[1:])
            )
            object.__setattr__(self, "_links_memo", memo)
        return memo

    def token_memo(self) -> Dict[int, tuple]:
        """:func:`~repro.core.logical.logicalize`'s memo, by terminal tag
        (shared with a hop-identical T- path, see
        :class:`MeasurementSnapshot`)."""
        memo = self._tokens_memo
        if memo is None:
            memo = {}
            object.__setattr__(self, "_tokens_memo", memo)
        return memo

    def has_unidentified_hops(self) -> bool:
        """True when at least one hop is a star."""
        return any(not isinstance(hop, str) for hop in self.hops)


class PathStore:
    """One full-mesh measurement round, indexed by probe pair."""

    def __init__(self, paths: Optional[Dict[Pair, ProbePath]] = None) -> None:
        self._paths: Dict[Pair, ProbePath] = {}
        self._pairs_memo: Optional[Tuple[Pair, ...]] = None
        self._graphs: Dict[str, Any] = {}
        for path in (paths or {}).values():
            self.add(path)

    def __getstate__(self) -> Dict[str, Any]:
        return dict(self.__dict__, _pairs_memo=None, _graphs={})

    def add(self, path: ProbePath) -> None:
        """Insert one probe path (pairs must be unique)."""
        if path.pair in self._paths:
            raise DiagnosisError(f"duplicate probe for pair {path.pair}")
        self._paths[path.pair] = path
        self._pairs_memo = None
        self._graphs = {}

    def get(self, pair: Pair) -> ProbePath:
        try:
            return self._paths[pair]
        except KeyError:
            raise DiagnosisError(f"no probe recorded for pair {pair}") from None

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def pairs(self) -> Tuple[Pair, ...]:
        """All probe pairs, sorted for determinism.

        The sorted tuple is memoised (invalidated by :meth:`add`): at
        internet scale a full mesh holds thousands of pairs and every
        diagnosis variant iterates them several times.
        """
        if self._pairs_memo is None:
            self._pairs_memo = tuple(sorted(self._paths))
        return self._pairs_memo

    def paths(self) -> Iterator[ProbePath]:
        """All paths in pair order."""
        for pair in self.pairs():
            yield self._paths[pair]

    def working_pairs(self) -> Tuple[Pair, ...]:
        """Pairs whose probe reached the destination."""
        return tuple(p for p in self.pairs() if self._paths[p].reached)

    def failed_pairs(self) -> Tuple[Pair, ...]:
        """Pairs whose probe did not reach the destination."""
        return tuple(p for p in self.pairs() if not self._paths[p].reached)

    def physical_graph(self) -> "InferredGraph":
        """This round's physical graph, built once: a session's T- round
        serves Tomo, the runner's ``before_graph`` and diagnosability."""
        if "physical" not in self._graphs:
            from repro.core.graph import InferredGraph  # imports this module

            self._graphs["physical"] = InferredGraph.from_paths(self.paths())
        return self._graphs["physical"]

    def logical_graph(self, asn_of: Callable) -> "InferredGraph":
        """This round's logical graph, built once; one slot, replaced when
        the mapping is not the :func:`same_mapping`."""
        memo = self._graphs.get("logical")
        if memo is None or not same_mapping(memo[0], asn_of):
            from repro.core.graph import InferredGraph

            graph = InferredGraph.from_logical_paths(self.paths(), asn_of)
            memo = self._graphs["logical"] = (asn_of, graph)
        return memo[1]


@dataclass
class MeasurementSnapshot:
    """Everything the edge gives the troubleshooter about one event.

    ``asn_of`` maps an identified hop address to its AS number (or ``None``)
    — the IP-to-AS technique of the paper.  The reachability matrix R of
    §2.3 is the ``reached`` flag of the *after* store
    (:meth:`failed_pairs` / :meth:`working_pairs`).
    """

    before: PathStore
    after: PathStore
    asn_of: Callable[[str], Optional[int]] = field(default=lambda _a: None)

    def __post_init__(self) -> None:
        if set(self.before.pairs()) != set(self.after.pairs()):
            raise DiagnosisError(
                "before/after measurement rounds cover different probe pairs"
            )
        changed = []
        for pair in self.before.pairs():
            old = self.before.get(pair)
            if not old.reached:
                raise DiagnosisError(
                    f"pre-failure probe for pair {pair} did not reach; the "
                    "troubleshooter is only invoked on previously-working pairs"
                )
            new = self.after.get(pair)
            if new.reached and new.hops == old.hops:
                # Same hops, same tokens: the T+ path reads and fills the
                # T- path's memo instead of logicalizing again.
                object.__setattr__(new, "_tokens_memo", old.token_memo())
            else:
                changed.append(pair)
        self._changed: Tuple[Pair, ...] = tuple(changed)
        self._rerouted_memo: Optional[Tuple[Pair, ...]] = None
        self._derived: Dict[tuple, Any] = {}

    def __getstate__(self) -> Dict[str, Any]:
        return {"before": self.before, "after": self.after, "asn_of": self.asn_of}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def derived(self, key: tuple, build: Callable[[], Any]) -> Any:
        """``build()`` once per ``key`` (a bounded set of flags, never
        data); every diagnoser shares the result, so it must be read-only."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def changed_pairs(self) -> Tuple[Pair, ...]:
        """Pairs whose T+ path is not hop-identical to their T- path
        (failed pairs included): only these add to the rounds' union."""
        return self._changed

    def failed_pairs(self) -> Tuple[Pair, ...]:
        """Pairs that became unreachable (R_ij = 0)."""
        return self.after.failed_pairs()

    def working_pairs(self) -> Tuple[Pair, ...]:
        """Pairs still reachable after the event (R_ij = 1)."""
        return self.after.working_pairs()

    def rerouted_pairs(self) -> Tuple[Pair, ...]:
        """Working pairs whose T+ path differs from their T- path (§3.2).

        UH hops are compared by position only (a star at hop 4 before and
        after is assumed to be the same hidden router — the troubleshooter
        cannot tell otherwise, and the paper’s blocked-traceroute scenarios
        only use single link failures where this is exact).

        Memoised: the snapshot's stores are frozen by the time a diagnosis
        starts, and every variant that weighs reroute evidence asks for
        this tuple.
        """
        if self._rerouted_memo is None:
            rerouted = []
            for pair in self.working_pairs():
                old = _normalised_hops(self.before.get(pair))
                new = _normalised_hops(self.after.get(pair))
                if old != new:
                    rerouted.append(pair)
            self._rerouted_memo = tuple(rerouted)
        return self._rerouted_memo

    def any_failure(self) -> bool:
        """True when the troubleshooter has something to diagnose."""
        return bool(self.failed_pairs())


def _normalised_hops(path: ProbePath) -> Tuple:
    """Hop sequence with UH identity reduced to position (see
    :meth:`MeasurementSnapshot.rerouted_pairs`)."""
    return tuple(
        hop if isinstance(hop, str) else ("*", index)
        for index, hop in enumerate(path.hops)
    )
