"""The empathy diagnosis engine, packaged as a standard ``Diagnoser``.

Mines empathy events from the snapshot and emits the union of their
localized segments as the hypothesis.  One refinement on top of raw
mining: a link demonstrably alive at T+ (it carries a *working* T+ path)
is subtracted from every event segment — the event cannot have been
caused there.  When subtraction would empty a segment (every lost link is
also on some working path — a pure forwarding change), the original
segment is kept so the event stays attributed rather than silently
vanishing.
"""

from __future__ import annotations

from typing import Set

from repro.core.graph import InferredGraph
from repro.core.linkspace import LinkToken, sort_key
from repro.core.pathset import MeasurementSnapshot, ProbePath
from repro.core.result import DiagnosisResult
from repro.errors import DiagnosisError
from repro.empathy.delta import KIND_FAILED, compute_deltas
from repro.empathy.mining import mine_events

__all__ = ["EmpathyDiagnoser"]


class EmpathyDiagnoser:
    """Empathy-based event miner behind the ``Diagnoser`` protocol.

    Ignores ``control`` and ``lg_lookup`` — empathy needs only the two
    measurement rounds, which is exactly what makes it an independent
    check on the control-plane-assisted variants.
    """

    variant = "empathy"

    def diagnose(
        self,
        snapshot: MeasurementSnapshot,
        control: object = None,
        lg_lookup: object = None,
    ) -> DiagnosisResult:
        if not snapshot.any_failure():
            raise DiagnosisError(
                "nothing to diagnose: every probed pair is reachable "
                "(the troubleshooter is only invoked on unreachabilities)"
            )
        deltas = compute_deltas(snapshot)
        events = mine_events(deltas)

        before_graph = snapshot.before.physical_graph()
        alive = snapshot.working_tokens(before_graph, ProbePath.links)

        hypothesis: Set[LinkToken] = set()
        excluded: Set[LinkToken] = set()
        refined = 0
        attribution = []
        for event in events:
            segment = event.segment - alive
            if segment:
                if segment != event.segment:
                    refined += 1
                    excluded.update(event.segment & alive)
            else:
                segment = event.segment
            hypothesis.update(segment)
            attribution.append(
                {
                    "pairs": [f"{src}->{dst}" for src, dst in event.pairs],
                    "failures": event.failures,
                    "segment": [str(link) for link in sorted(segment, key=sort_key)],
                    "segment_size": len(segment),
                }
            )

        unexplained = tuple(
            delta.lost
            for delta in deltas
            if delta.kind == KIND_FAILED and not (delta.lost & hypothesis)
        )
        # Both rounds' union, over the T- graph (built once per round):
        # only the changed pairs' T+ paths add to it.
        graph = InferredGraph(base=before_graph)
        for pair in snapshot.changed_pairs():
            graph.add_path(pair, snapshot.after.get(pair).links())
        failed = sum(1 for d in deltas if d.kind == KIND_FAILED)
        return DiagnosisResult(
            algorithm="empathy",
            hypothesis=frozenset(hypothesis),
            graph=graph,
            excluded=frozenset(excluded - hypothesis),
            unexplained_failures=unexplained,
            details={
                "empathy": {
                    "changed_traces": len(deltas),
                    "failed_traces": failed,
                    "rerouted_traces": len(deltas) - failed,
                    "events": len(events),
                    "refined_events": refined,
                },
                "empathy_events": attribution,
            },
        )
