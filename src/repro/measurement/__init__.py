"""Sensor overlay, probing mesh, and the AS-X-side collector."""

from repro.measurement.collector import (
    collect_control_plane,
    make_lg_lookup,
    take_snapshot,
)
from repro.measurement.paris import MultipathStore, paris_mesh, paris_probe_pair
from repro.measurement.probing import probe_mesh, probe_pair
from repro.measurement.skew import pick_stale_sensors, remeasure, take_skewed_snapshot
from repro.measurement.sensors import (
    Sensor,
    deploy_sensors,
    distant_as_placement,
    distant_split_placement,
    random_stub_placement,
    same_as_placement,
)

__all__ = [
    "Sensor",
    "collect_control_plane",
    "deploy_sensors",
    "distant_as_placement",
    "distant_split_placement",
    "make_lg_lookup",
    "MultipathStore",
    "paris_mesh",
    "paris_probe_pair",
    "pick_stale_sensors",
    "probe_mesh",
    "probe_pair",
    "remeasure",
    "random_stub_placement",
    "same_as_placement",
    "take_skewed_snapshot",
    "take_snapshot",
]
