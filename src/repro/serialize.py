"""JSON serialization for topologies, states, events, tokens and results.

A reproduction is only useful if its artefacts can leave the process:
operators want to archive the topology a diagnosis ran against, replay a
recorded failure scenario, and plot figure series with their own tools.
Everything here is plain-JSON (no pickle): stable across Python versions
and safe to publish.

Round-trip guarantees:

* ``topology_from_dict(topology_to_dict(net))`` reproduces the same ASes,
  routers (ids *and* addresses), links and relationships — address
  determinism is verified during reconstruction and a mismatch raises
  rather than silently renumbering;
* network states, events and link tokens round-trip exactly;
* figure results export as ``{series: [...], summaries: ..., notes: ...}``
  ready for any plotting pipeline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.core.linkspace import (
    IpLink,
    LinkToken,
    LogicalLink,
    PhysicalLink,
    UhNode,
)
from repro.errors import ReproError
from repro.netsim.addressing import PrefixAllocator
from repro.netsim.events import (
    CompositeEvent,
    Event,
    LinkFailureEvent,
    MisconfigurationEvent,
    RouterFailureEvent,
    WeightChangeEvent,
)
from repro.netsim.topology import (
    ExportFilter,
    Internetwork,
    NetworkState,
    Relationship,
    Tier,
)

__all__ = [
    "topology_to_dict",
    "topology_from_dict",
    "save_topology",
    "load_topology",
    "state_to_dict",
    "state_from_dict",
    "event_to_dict",
    "event_from_dict",
    "endpoint_to_json",
    "endpoint_from_json",
    "token_to_dict",
    "token_from_dict",
    "figure_result_to_dict",
]


# ---------------------------------------------------------------- topology


def topology_to_dict(net: Internetwork) -> Dict[str, Any]:
    """Serialise an internetwork (structure + address plan).

    ``address_plan`` records the allocator parameters so topologies built
    against a non-default plan (e.g. the /24 blocks of
    :mod:`repro.netsim.gen.powerlaw`) reconstruct with the same
    deterministic addresses.
    """
    return {
        "format": "repro-topology-v1",
        "address_plan": net.allocator.plan(),
        "ases": [
            {
                "asn": autsys.asn,
                "name": autsys.name,
                "tier": autsys.tier.value,
                "prefix": autsys.prefix,
            }
            for autsys in net.ases()
        ],
        "routers": [
            {
                "rid": router.rid,
                "asn": router.asn,
                "name": router.name,
                "address": router.address,
            }
            for router in net.routers()
        ],
        "links": [
            {"lid": link.lid, "a": link.a, "b": link.b, "weight": link.weight}
            for link in net.links()
        ],
        "relationships": [
            {
                "a": min(x.asn, y.asn),
                "b": max(x.asn, y.asn),
                "rel": net.relationship(min(x.asn, y.asn), max(x.asn, y.asn)).value,
            }
            for x in net.ases()
            for y in net.ases()
            if x.asn < y.asn and net.relationship(x.asn, y.asn) is not None
        ],
    }


def topology_from_dict(data: Dict[str, Any]) -> Internetwork:
    """Reconstruct an internetwork serialised by :func:`topology_to_dict`."""
    if data.get("format") != "repro-topology-v1":
        raise ReproError(f"unknown topology format {data.get('format')!r}")
    plan = data.get("address_plan")
    if plan is None:
        # Archives written before address_plan existed used the default.
        net = Internetwork()
    else:
        net = Internetwork(
            allocator=PrefixAllocator(
                base=plan["base"],
                as_prefix_len=plan["as_prefix_len"],
                sensor_pool=plan["sensor_pool"],
            )
        )
    for autsys in data["ases"]:
        created = net.add_as(autsys["asn"], autsys["name"], Tier(autsys["tier"]))
        if created.prefix != autsys["prefix"]:
            raise ReproError(
                f"prefix mismatch for AS {autsys['asn']}: allocation is not "
                f"deterministic ({created.prefix} != {autsys['prefix']})"
            )
    for router in sorted(data["routers"], key=lambda r: r["rid"]):
        created = net.add_router(router["asn"], router["name"])
        if created.rid != router["rid"] or created.address != router["address"]:
            raise ReproError(
                f"router reconstruction mismatch for rid {router['rid']}"
            )
    for relationship in data["relationships"]:
        net.set_relationship(
            relationship["a"], relationship["b"], Relationship(relationship["rel"])
        )
    for link in sorted(data["links"], key=lambda l: l["lid"]):
        created = net.add_link(link["a"], link["b"], weight=link["weight"])
        if created.lid != link["lid"]:
            raise ReproError(f"link id mismatch for lid {link['lid']}")
    return net


def save_topology(net: Internetwork, path: Union[str, Path]) -> None:
    """Write a topology to a JSON file."""
    Path(path).write_text(json.dumps(topology_to_dict(net), indent=1))


def load_topology(path: Union[str, Path]) -> Internetwork:
    """Read a topology from a JSON file."""
    return topology_from_dict(json.loads(Path(path).read_text()))


# ------------------------------------------------------------------- state


def state_to_dict(state: NetworkState) -> Dict[str, Any]:
    """Serialise a network state (failures + filters)."""
    return {
        "failed_links": sorted(state.failed_links),
        "failed_routers": sorted(state.failed_routers),
        "weight_overrides": [list(pair) for pair in state.weight_overrides],
        "filters": [
            {
                "link_id": f.link_id,
                "at_router": f.at_router,
                "prefixes": sorted(f.prefixes),
            }
            for f in state.filters
        ],
    }


def state_from_dict(data: Dict[str, Any]) -> NetworkState:
    """Reconstruct a network state."""
    state = NetworkState(
        failed_links=frozenset(data.get("failed_links", ())),
        failed_routers=frozenset(data.get("failed_routers", ())),
        weight_overrides=tuple(
            (lid, weight) for lid, weight in data.get("weight_overrides", ())
        ),
    )
    for f in data.get("filters", ()):
        state = state.with_filter(
            ExportFilter(
                link_id=f["link_id"],
                at_router=f["at_router"],
                prefixes=frozenset(f["prefixes"]),
            )
        )
    return state


# ------------------------------------------------------------------ events


def event_to_dict(event: Event) -> Dict[str, Any]:
    """Serialise a failure event."""
    if isinstance(event, LinkFailureEvent):
        return {"type": "link-failure", "link_ids": list(event.link_ids)}
    if isinstance(event, RouterFailureEvent):
        return {"type": "router-failure", "router_id": event.router_id}
    if isinstance(event, MisconfigurationEvent):
        f = event.export_filter
        return {
            "type": "misconfiguration",
            "link_id": f.link_id,
            "at_router": f.at_router,
            "prefixes": sorted(f.prefixes),
        }
    if isinstance(event, WeightChangeEvent):
        return {
            "type": "weight-change",
            "link_id": event.link_id,
            "new_weight": event.new_weight,
        }
    if isinstance(event, CompositeEvent):
        return {
            "type": "composite",
            "events": [event_to_dict(sub) for sub in event.events],
        }
    raise ReproError(f"cannot serialise event type {type(event).__name__}")


def event_from_dict(data: Dict[str, Any]) -> Event:
    """Reconstruct a failure event."""
    kind = data.get("type")
    if kind == "link-failure":
        return LinkFailureEvent(tuple(data["link_ids"]))
    if kind == "router-failure":
        return RouterFailureEvent(data["router_id"])
    if kind == "misconfiguration":
        return MisconfigurationEvent(
            ExportFilter(
                link_id=data["link_id"],
                at_router=data["at_router"],
                prefixes=frozenset(data["prefixes"]),
            )
        )
    if kind == "weight-change":
        return WeightChangeEvent(
            link_id=data["link_id"], new_weight=data["new_weight"]
        )
    if kind == "composite":
        return CompositeEvent(tuple(event_from_dict(e) for e in data["events"]))
    raise ReproError(f"unknown event type {kind!r}")


# ------------------------------------------------------------------ tokens


def endpoint_to_json(endpoint) -> Any:
    """Serialise a path hop or link end: an address, or a star
    (:class:`~repro.core.linkspace.UhNode`) as a tagged dict."""
    if isinstance(endpoint, str):
        return endpoint
    return {
        "uh": True,
        "src": endpoint.src,
        "dst": endpoint.dst,
        "epoch": endpoint.epoch,
        "index": endpoint.index,
    }


def endpoint_from_json(data) -> Any:
    """Inverse of :func:`endpoint_to_json`."""
    if isinstance(data, str):
        return data
    return UhNode(
        src=data["src"], dst=data["dst"], epoch=data["epoch"], index=data["index"]
    )


def token_to_dict(token: Union[LinkToken, PhysicalLink]) -> Dict[str, Any]:
    """Serialise any link token."""
    if isinstance(token, LogicalLink):
        return {
            "type": "logical",
            "src": token.src,
            "dst": token.dst,
            "tag": token.tag,
        }
    if isinstance(token, IpLink):
        return {
            "type": "ip",
            "src": endpoint_to_json(token.src),
            "dst": endpoint_to_json(token.dst),
        }
    if isinstance(token, PhysicalLink):
        return {
            "type": "physical",
            "lo": endpoint_to_json(token.lo),
            "hi": endpoint_to_json(token.hi),
        }
    raise ReproError(f"cannot serialise token type {type(token).__name__}")


def token_from_dict(data: Dict[str, Any]) -> Union[LinkToken, PhysicalLink]:
    """Reconstruct a link token."""
    kind = data.get("type")
    if kind == "logical":
        return LogicalLink(src=data["src"], dst=data["dst"], tag=data["tag"])
    if kind == "ip":
        return IpLink(
            src=endpoint_from_json(data["src"]),
            dst=endpoint_from_json(data["dst"]),
        )
    if kind == "physical":
        return PhysicalLink(
            lo=endpoint_from_json(data["lo"]),
            hi=endpoint_from_json(data["hi"]),
        )
    raise ReproError(f"unknown token type {kind!r}")


# ----------------------------------------------------------------- figures


def figure_result_to_dict(result) -> Dict[str, Any]:
    """Export a figure result for external plotting."""
    return {
        "figure_id": result.figure_id,
        "title": result.title,
        "series": [
            {
                "name": series.name,
                "x_label": series.x_label,
                "y_label": series.y_label,
                "points": [[x, y] for x, y in series.points],
            }
            for series in result.series
        ],
        "summaries": result.summaries,
        "notes": list(result.notes),
    }
