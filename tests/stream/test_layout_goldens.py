"""Pinned outputs of the stream engine under four process layouts.

The other stream tests compare one run against another (sharded against
serial, recovered against undisturbed), so a change that moves both
sides at once passes them.  These digests pin the outputs themselves:
the sha256 of the canonical JSON of every :class:`EpisodeReport` (link
tokens via :func:`repro.serialize.token_to_dict`) and, for supervised
runs, of the whole ``supervision_stats()`` record.
"""

import hashlib
import json

import pytest

from repro.monitor import make_monitor_setup, run_monitor, scenario
from repro.serialize import token_to_dict
from repro.stream import (
    ReplayConfig,
    TenantConfig,
    make_replay_setup,
    run_stream_replay,
    source_tenant_of,
)

FAULTY_CONFIG = ReplayConfig(
    kind="link-1",
    episodes=2,
    incident_rounds=2,
    recovery_rounds=2,
    fault_rate=0.1,
    seed=3,
)
CHAOS_CONFIG = ReplayConfig(
    kind="link-1",
    episodes=2,
    incident_rounds=2,
    recovery_rounds=2,
    seed=7,
    chaos_rate=0.15,
)
TENANTS = (TenantConfig("t0"), TenantConfig("t1"), TenantConfig("t2"))


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _report_dict(report) -> dict:
    return {
        "report_index": report.report_index,
        "episode_id": report.episode_id,
        "trigger": report.trigger,
        "tick": report.tick,
        "diagnosed_at": report.diagnosed_at,
        "pairs": [list(pair) for pair in report.pairs],
        "diagnoses": [
            {
                "algorithm": d.algorithm,
                "hypothesis": sorted(
                    (token_to_dict(token) for token in d.hypothesis),
                    key=_canonical,
                ),
                "hypothesis_size": d.hypothesis_size,
                "fully_explained": d.fully_explained,
                "error": d.error,
                "verdict": d.verdict,
            }
            for d in report.diagnoses
        ],
    }


def digest(value) -> str:
    return hashlib.sha256(_canonical(value).encode("utf-8")).hexdigest()


def layout_digests(result) -> dict:
    """The pinned digests of one run: reports, plus supervision if any."""
    digests = {"reports": digest([_report_dict(r) for r in result.reports])}
    if result.supervision is not None:
        digests["supervision"] = digest(result.supervision)
    return digests


def serial_run():
    return run_stream_replay(
        make_replay_setup(seed=3, n_sensors=6), FAULTY_CONFIG
    )


def sharded_tenant_run():
    return run_stream_replay(
        make_replay_setup(seed=3, n_sensors=6),
        FAULTY_CONFIG,
        shards=4,
        tenants=TENANTS,
        tenant_of=source_tenant_of(TENANTS),
    )


def chaos_run():
    return run_stream_replay(make_replay_setup(seed=7, n_sensors=6), CHAOS_CONFIG)


def monitor_chaos_run():
    return run_monitor(
        make_monitor_setup(seed=7),
        scenario("mixed-ops", 500),
        7,
        chaos_rate=0.05,
        shards=2,
    )


RUNS = {
    "serial": serial_run,
    "sharded-tenants": sharded_tenant_run,
    "chaos": chaos_run,
    "monitor-chaos": monitor_chaos_run,
}

SERIAL_REPORTS = "8e81a2e58c4fb2d125aa663555f8161d1c7583b9b361f0f120073a879395f9a1"
GOLDEN = {
    "serial": {"reports": SERIAL_REPORTS},
    "sharded-tenants": {"reports": SERIAL_REPORTS},
    "chaos": {
        "reports": "b300206bb160455f3aedeab31591fe2e45245ead2e3396d9e42593d100ecfd5d",
        "supervision": "0e9ab670d9223aab63ef0c09f113cf323c1533031569d629324528f7e28f8902",
    },
    "monitor-chaos": {
        "reports": "529d01f0c94987b7143ff5357222c9d59f908794feff33e0111661948f815b1a",
        "supervision": "507b1a8e9caa8e2a09320487536a9305d5b8ff32069a3ce19b5d9e18336e7f44",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_layout_outputs_match_the_pinned_digests(name):
    assert layout_digests(RUNS[name]()) == GOLDEN[name]
