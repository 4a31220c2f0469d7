#!/usr/bin/env python3
"""AS-level localisation when ASes block traceroute (§3.4 / Figure 11).

Generates the 165-AS research-Internet topology, deploys ten sensors at
random stub ASes, makes 40 % of the covered transit ASes block traceroute,
fails an intradomain link, and compares

* **ND-bgpigp** (ignoring unidentified links) — blind whenever the
  failure hides inside a blocked AS, and
* **ND-LG** — which maps the stars to candidate ASes via Looking Glasses
  and clusters unidentified links that may be the same hidden link.

Run with::

    python examples/blocked_traceroute_localization.py [seed]
"""

import random
import sys

from repro.core import NetDiagnoser, as_projection
from repro.experiments.runner import (
    choose_blocked_ases,
    ground_truth_ases,
    make_session,
)
from repro.measurement import (
    collect_control_plane,
    make_lg_lookup,
    random_stub_placement,
    take_snapshot,
)
from repro.netsim import LookingGlassService
from repro.netsim.gen import research_internet


def main(seed: int = 7) -> None:
    rng = random.Random(seed)
    topo = research_internet(seed=seed)
    session = make_session(
        topo,
        random_stub_placement(topo, 10, rng),
        rng,
        intra_failures_only=True,  # failures attributable to a single AS
    )
    asx = topo.core_asns[0]
    blocked = choose_blocked_ases(
        session, 0.4, rng, protected=frozenset({asx})
    )
    names = {a.asn: a.name for a in session.net.ases()}
    print("blocked ASes:", ", ".join(names[a] for a in sorted(blocked)))

    # Find a failure hiding inside a blocked AS (the interesting case).
    for _attempt in range(60):
        scenario = session.sampler.sample("link-1")
        truth_ases = ground_truth_ases(session.net, scenario.event)
        if truth_ases & blocked:
            break
    else:
        print("no blocked-AS failure sampled; try another seed")
        return
    print("injected:", scenario.event.describe(session.net))
    print("failed AS:", ", ".join(names[a] for a in sorted(truth_ases)))

    snapshot = take_snapshot(
        session.sim,
        session.sensors,
        session.base_state,
        scenario.after_state,
        blocked_ases=blocked,
    )
    control = collect_control_plane(
        session.sim, asx, session.base_state, scenario.after_state
    )
    lg = LookingGlassService.everywhere(session.net)
    lookup = make_lg_lookup(
        session.sim, lg, session.base_state, scenario.after_state, asx=asx
    )

    blind = NetDiagnoser("nd-bgpigp", ignore_unidentified=True).diagnose(
        snapshot, control=control
    )
    sighted = NetDiagnoser("nd-lg").diagnose(
        snapshot, control=control, lg_lookup=lookup
    )

    for label, result in (("nd-bgpigp (ignores UHs)", blind), ("nd-lg", sighted)):
        ases = as_projection(
            result.hypothesis,
            snapshot.asn_of,
            result.details.get("uh_tags", {}),
        )
        found = "FOUND" if truth_ases & ases else "missed"
        print(f"\n{label}: blames ASes "
              f"{sorted(names.get(a, a) for a in ases) or '(none)'} -> {found}")
    tags = sighted.details["uh_tags"]
    ambiguous = sum(1 for tag in tags.values() if len(tag) > 1)
    print(f"\nND-LG mapped {len(tags)} unidentified hops "
          f"({ambiguous} with ambiguous multi-AS tags), "
          f"formed {len(sighted.details['clusters'])} link clusters")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
