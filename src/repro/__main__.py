"""Top-level command line: generate topologies, inject failures, diagnose.

Examples::

    # Generate and archive a research-Internet topology
    python -m repro topology --seed 42 --out topo.json

    # Run one randomised scenario end to end and print the diagnosis
    python -m repro diagnose --kind link-2 --sensors 10 --seed 7

    # Archive the sampled scenario, then replay it later (e.g. on another
    # machine, or after changing the algorithms)
    python -m repro diagnose --kind misconfig --save-scenario case.json
    python -m repro replay case.json --algorithms nd-edge

    # Sweep topology sizes in parallel worker processes (§5.3 study)
    python -m repro scaling --workers 0

    # Sweep measurement fault rates and plot each algorithm's decay,
    # checkpointing every completed placement so the sweep can resume
    python -m repro degradation --rates 0 0.1 0.2 0.3 0.4 0.5 \
        --journal sweep.journal --resume

    # Replay a deterministic event stream through the online engine and
    # report throughput, backpressure and episode-diagnosis latency
    python -m repro stream --rates 0 0.1 --window 4 --policy quarantine

    # Replay a seeded long-horizon monitoring scenario and print the
    # health timeline, bad intervals and blocked-vs-failed verdicts
    python -m repro monitor --scenario mixed-ops --ticks 2000 --seed 7

    # Regenerate evaluation figures (delegates to repro.experiments)
    python -m repro.experiments --figure 6
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from repro.diagnosers import DIAGNOSER_NAMES, make_diagnoser, make_diagnosers
from repro.errors import (
    ControlPlaneFeedError,
    EmpathyError,
    FaultInjectionError,
    JournalError,
    MonitorError,
    StreamError,
    TopologyError,
    ValidationError,
)
from repro.experiments.__main__ import worker_count
from repro.experiments.runner import ground_truth_links, make_session, run_scenario
from repro.experiments.scenarios import SCENARIO_KINDS
from repro.faults import CHAOS_MODES
from repro.measurement.collector import collect_control_plane, take_snapshot
from repro.measurement.sensors import deploy_sensors, random_stub_placement
from repro.netsim.gen.internet import research_internet
from repro.netsim.gen.powerlaw import powerlaw_internet
from repro.netsim.simulator import Simulator
from repro.netsim.topology import NetworkState
from repro.serialize import (
    event_from_dict,
    event_to_dict,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.validate import POLICIES


def _cmd_topology(args: argparse.Namespace) -> int:
    if args.style == "powerlaw":
        topo = powerlaw_internet(args.ases, seed=args.seed)
    else:
        topo = research_internet(
            n_tier2=args.tier2, n_stub=args.stubs, seed=args.seed
        )
    save_topology(topo.net, args.out)
    print(
        f"wrote {args.out}: {topo.net.num_ases} ASes, "
        f"{topo.net.num_routers} routers, {topo.net.num_links} links "
        f"(seed {args.seed})"
    )
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    topo = research_internet(seed=args.topo_seed)
    session = make_session(
        topo, random_stub_placement(topo, args.sensors, rng), rng
    )
    scenario = session.sampler.sample(args.kind)
    print(f"scenario: {scenario.event.describe(session.net)}")

    diagnosers = make_diagnosers(
        # nd-lg needs blocked ASes + LGs; see the figures CLI
        [name for name in args.algorithms if name != "nd-lg"]
    )
    record = run_scenario(
        session, scenario, diagnosers, asx=topo.core_asns[0]
    )
    truth = sorted(map(str, ground_truth_links(session.net, scenario.event)))
    print(f"ground truth: {', '.join(truth)}")
    print(
        f"observations: {record.n_failed_pairs} failed pairs, "
        f"{record.n_rerouted_pairs} rerouted, D(G)={record.diagnosability:.3f}"
    )
    for label, score in record.scores.items():
        print(
            f"  {label:10s} sensitivity={score.link.sensitivity:.2f} "
            f"specificity={score.link.specificity:.3f} "
            f"|H|={score.physical_hypothesis_size} "
            f"explained={score.fully_explained}"
        )
    if args.save_scenario:
        archive = {
            "format": "repro-scenario-v1",
            "topology": topology_to_dict(session.net),
            "sensor_routers": [s.router_id for s in session.sensors],
            "event": event_to_dict(scenario.event),
            "asx": topo.core_asns[0],
        }
        Path(args.save_scenario).write_text(json.dumps(archive))
        print(f"scenario archived to {args.save_scenario}")
    return 0


def _size_pair(text: str) -> tuple:
    """argparse type for --sizes: ``T2xSTUB`` -> ``(tier2, stubs)``.

    A bare integer (``5000``) is accepted too and means a total AS count —
    only meaningful with ``--topology powerlaw``.
    """
    if "x" not in text.lower():
        try:
            total = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected T2xSTUB or a total AS count, got {text!r}"
            ) from None
        if total < 1:
            raise argparse.ArgumentTypeError(f"sizes must be >= 1, got {text!r}")
        return total
    try:
        tier2, stubs = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected T2xSTUB (e.g. 22x140), got {text!r}"
        ) from None
    if tier2 < 1 or stubs < 1:
        raise argparse.ArgumentTypeError(f"sizes must be >= 1, got {text!r}")
    return (tier2, stubs)


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.experiments.scaling import DEFAULT_SIZES, render_scaling, scaling_sweep

    sizes = tuple(args.sizes) if args.sizes else DEFAULT_SIZES
    points = scaling_sweep(
        sizes=sizes,
        n_sensors=args.sensors,
        failures=args.failures,
        seed=args.seed,
        workers=args.workers,
        topology=args.topology,
    )
    print(render_scaling(points))
    return 0


def _fault_rate(text: str) -> float:
    """argparse type for --rates: probability in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"fault rate must be within [0, 1], got {value}"
        )
    return value


def _cmd_degradation(args: argparse.Namespace) -> int:
    from repro.experiments.figures import degradation
    from repro.experiments.figures.base import FigureConfig

    config = FigureConfig(
        seed=args.seed,
        topo_seed=args.topo_seed,
        placements=args.placements,
        failures_per_placement=args.failures,
        n_sensors=args.sensors,
        workers=args.workers,
    )
    validation = args.validation
    if args.corrupt and validation is None:
        validation = "quarantine"
    try:
        result = degradation.run(
            config,
            fault_rates=tuple(args.rates),
            journal=args.journal,
            resume=args.resume,
            corrupt=args.corrupt,
            validation=validation,
        )
    except KeyboardInterrupt:
        return _interrupted("degradation", args.journal)
    print(result.render())
    return 0


def _interrupted(command: str, journal) -> int:
    """One-line SIGINT epilogue for long-running degradation, stream and
    monitor runs.

    Placements completed and reports emitted were durably appended to
    the journal as they happened, so the interrupt loses no completed
    work; exit 130 is the conventional fatal-SIGINT status.
    """
    if journal:
        hint = (
            f"resume with: python -m repro {command} ... "
            f"--journal {journal} --resume"
        )
    else:
        hint = f"re-run with --journal PATH to make {command} runs resumable"
    print(f"interrupted — journal checkpoints are durable; {hint}",
          file=sys.stderr)
    return 130


def _chaos_fingerprint(fingerprint: dict, chaos: float) -> dict:
    """A journal fingerprint, naming the chaos modes when ``chaos > 0``:
    the rate alone does not say which failures a journalled run
    injected.  Runs without chaos keep the plain fingerprint."""
    if chaos > 0:
        fingerprint["chaos_modes"] = CHAOS_MODES
    return fingerprint


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.experiments.journal import RunJournal
    from repro.experiments.report import render_stream_report
    from repro.stream import (
        ReplayConfig,
        TenantConfig,
        make_replay_setup,
        run_stream_replay,
        source_tenant_of,
    )

    if args.dlq_inspect:
        from repro.stream import load_dead_letters

        entries = load_dead_letters(args.dlq)
        print(f"=== dead letters ({len(entries)} entries) ===")
        for index, entry in enumerate(entries):
            shard = entry["shard"]
            where = f"shard {shard}" if shard is not None else "unsharded"
            print(
                f"  {index}: event {entry['event'].get('type')} "
                f"@tick {entry['tick']} ({where}) — {entry['reason']}"
            )
        return 0

    tenants = tenant_of = None
    if args.tenants > 0:
        tenants = tuple(
            TenantConfig(f"tenant-{index}", rate=args.tenant_rate)
            for index in range(args.tenants)
        )
        tenant_of = source_tenant_of(tenants)
    setup_args = dict(
        seed=args.seed,
        topo_seed=args.topo_seed,
        n_tier2=args.tier2,
        n_stub=args.stubs,
        n_sensors=args.sensors,
        blocked_fraction=args.blocked_fraction,
        algorithms=tuple(args.algorithms),
    )
    runs = []
    for rate in args.rates:
        config = ReplayConfig(
            kind=args.kind,
            episodes=args.episodes,
            incident_rounds=args.incident_rounds,
            recovery_rounds=args.recovery_rounds,
            fault_rate=rate,
            corrupt=args.corrupt,
            seed=args.seed,
            chaos_rate=args.chaos,
        )
        journal = None
        if args.journal:
            # Everything that shapes the reports but the shard count, so
            # serial and sharded runs resume each other's journals.
            fingerprint = _chaos_fingerprint(
                {
                    "format": "repro-stream-journal",
                    "setup": setup_args,
                    "config": config,
                    "policy": args.policy,
                    "window": args.window,
                    "tenants": tenants,
                },
                args.chaos,
            )
            # Opening checks the header: every rate's journal is checked
            # before the first replay, so a refusal leaves no output.
            journal = RunJournal(f"{args.journal}.rate{rate}", fingerprint)
        runs.append((rate, config, journal))
    for rate, config, journal in runs:
        cached = None
        if journal is not None and args.resume:
            cached = journal.load_completed()
        setup = make_replay_setup(**setup_args)
        try:
            result = run_stream_replay(
                setup,
                config,
                policy=args.policy,
                window_width=args.window,
                shards=args.shards,
                tenants=tenants,
                tenant_of=tenant_of,
                journal=journal,
                cached_reports=cached,
                save_log=args.save_log,
                supervise=bool(args.dlq),
                dlq_path=args.dlq,
            )
        except KeyboardInterrupt:
            return _interrupted("stream", args.journal)
        print(f"=== stream replay @ fault rate {rate} "
              f"(policy={args.policy}, window={args.window}"
              + (f", chaos={args.chaos}" if args.chaos else "")
              + ") ===")
        for index, episode in enumerate(result.episodes):
            print(f"injected episode {index}: {episode.description} "
                  f"[ticks {episode.baseline_tick}-{episode.last_tick}]")
        for report in result.reports:
            verdicts = "  ".join(
                f"{d.algorithm}:|H|={d.hypothesis_size}"
                + (f"[{d.verdict}]" if d.verdict else "")
                + ("!" if d.error else "")
                for d in report.diagnoses
            ) or "(episode summary only)"
            print(
                f"  report {report.report_index}: episode "
                f"{report.episode_id} {report.trigger} @tick {report.tick} "
                f"(+{report.latency_ticks} latency, "
                f"{len(report.pairs)} pairs)  {verdicts}"
            )
        print(render_stream_report(result))
    return 0


def _cmd_crossval(args: argparse.Namespace) -> int:
    from repro.experiments.crossval import CrossvalConfig, run_crossval

    config = CrossvalConfig(
        seed=args.seed,
        topo_seed=args.topo_seed,
        placements=args.placements,
        failures_per_kind=args.failures,
        n_sensors=args.sensors,
        kinds=tuple(args.kinds),
        diagnosers=tuple(args.diagnosers),
    )
    result = run_crossval(config)
    print(result.render())
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.experiments.journal import RunJournal
    from repro.monitor import (
        make_monitor_setup,
        render_monitor_report,
        run_monitor,
        scenario,
        scenario_names,
    )

    if args.list_scenarios:
        from repro.monitor import SCENARIOS

        for name in scenario_names():
            config = SCENARIOS[name]
            print(f"{name:18s} {config.ticks} ticks")
        return 0

    config = scenario(args.scenario, args.ticks)
    setup_args = dict(
        seed=args.seed,
        topo_seed=args.topo_seed,
        n_tier2=args.tier2,
        n_stub=args.stubs,
        n_sensors=args.sensors,
    )
    journal = cached = None
    if args.journal:
        # As for stream: every report-shaping argument but the shard
        # count (--retention sizes the flight recorder, not the reports).
        fingerprint = _chaos_fingerprint(
            {
                "format": "repro-monitor-journal",
                "setup": setup_args,
                "scenario": config,
                "policy": args.policy,
                "window": args.window,
                "chaos": args.chaos,
            },
            args.chaos,
        )
        journal = RunJournal(args.journal, fingerprint)
        if args.resume:
            cached = journal.load_completed()
    setup = make_monitor_setup(**setup_args)
    print(
        f"=== monitor {config.name} ({config.ticks} ticks, seed {args.seed}"
        + (f", shards={args.shards}" if args.shards > 1 else "")
        + (f", chaos={args.chaos}" if args.chaos else "")
        + ") ==="
    )
    try:
        result = run_monitor(
            setup,
            config,
            args.seed,
            policy=args.policy,
            window_width=args.window,
            shards=args.shards,
            chaos_rate=args.chaos,
            journal=journal,
            cached_reports=cached,
            retention=args.retention,
        )
    except KeyboardInterrupt:
        return _interrupted("monitor", args.journal)
    print(render_monitor_report(result))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    archive = json.loads(Path(args.scenario).read_text())
    if archive.get("format") != "repro-scenario-v1":
        print(f"unknown scenario format {archive.get('format')!r}")
        return 2
    net = topology_from_dict(archive["topology"])
    event = event_from_dict(archive["event"])
    sensors = deploy_sensors(net, archive["sensor_routers"])
    sensor_asns = {net.asn_of_router(s.router_id) for s in sensors}
    sim = Simulator(net, sensor_asns)
    before = NetworkState.nominal()
    after = event.apply_to(before)
    print(f"replaying: {event.describe(net)}")

    snapshot = take_snapshot(sim, sensors, before, after)
    if not snapshot.any_failure():
        print("the archived event no longer breaks any pair")
        return 1
    asx = archive.get("asx")
    control = (
        collect_control_plane(sim, asx, before, after) if asx is not None else None
    )
    truth = ground_truth_links(net, event)
    for name in args.algorithms:
        if name == "nd-lg":
            continue  # needs the blocked/LG configuration, not archived
        result = make_diagnoser(name).diagnose(snapshot, control=control)
        hypothesis = result.physical_hypothesis()
        hits = len(truth & hypothesis)
        print(
            f"  {name:10s} |H|={len(hypothesis)} "
            f"true-positives={hits}/{len(truth)} "
            f"explained={result.fully_explained}"
        )
        for link in sorted(map(str, hypothesis)):
            marker = "**" if any(str(t) == link for t in truth) else "  "
            print(f"    {marker} {link}")
    return 0


def _check_prerequisites(command: argparse.ArgumentParser, args) -> None:
    """Refuse flags whose prerequisite is missing, as usage errors
    (stderr, exit 2) rather than silently ignoring them."""
    if getattr(args, "resume", False) and not args.journal:
        command.error("--resume needs --journal PATH")
    if args.command != "stream":
        return
    if args.tenants < 0:
        command.error(f"--tenants must be >= 0, got {args.tenants}")
    if args.tenant_rate is not None and not args.tenants:
        command.error("--tenant-rate requires --tenants")
    if args.dlq_inspect and not args.dlq:
        command.error("--dlq-inspect needs --dlq PATH")
    if args.save_log and len(args.rates) > 1:
        command.error(
            "--save-log takes one --rates value: each rate replays its own "
            "event log"
        )
    if args.dlq and not args.dlq_inspect and len(args.rates) > 1:
        command.error(
            "--dlq takes one --rates value: each rate writes its own "
            "dead-letter journal"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NetDiagnoser reproduction: end-to-end pipeline tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topology = sub.add_parser("topology", help="generate and save a topology")
    topology.add_argument("--seed", type=int, default=0)
    topology.add_argument(
        "--style",
        choices=("research", "powerlaw"),
        default="research",
        help="'research' is the paper's 165-AS evaluation topology; "
        "'powerlaw' is the internet-scale preferential-attachment tier",
    )
    topology.add_argument("--tier2", type=int, default=22)
    topology.add_argument("--stubs", type=int, default=140)
    topology.add_argument(
        "--ases",
        type=int,
        default=5000,
        help="total AS count (powerlaw style only)",
    )
    topology.add_argument("--out", default="topology.json")
    topology.set_defaults(func=_cmd_topology)

    diagnose = sub.add_parser(
        "diagnose", help="sample one failure scenario and diagnose it"
    )
    diagnose.add_argument("--kind", choices=SCENARIO_KINDS, default="link-1")
    diagnose.add_argument("--sensors", type=int, default=10)
    diagnose.add_argument("--seed", type=int, default=0)
    diagnose.add_argument("--topo-seed", type=int, default=100)
    diagnose.add_argument(
        "--algorithms",
        "--diagnosers",
        nargs="+",
        choices=DIAGNOSER_NAMES,
        default=["tomo", "nd-edge", "nd-bgpigp"],
    )
    diagnose.add_argument(
        "--save-scenario",
        default=None,
        help="archive the sampled scenario (topology + event) to this file",
    )
    diagnose.set_defaults(func=_cmd_diagnose)

    scaling = sub.add_parser(
        "scaling", help="run the §5.3 topology-size sweep"
    )
    scaling.add_argument(
        "--sizes",
        nargs="+",
        type=_size_pair,
        default=None,
        metavar="T2xSTUB",
        help="sizes as tier2xstub pairs, e.g. 6x40 22x140, or total AS "
        "counts for --topology powerlaw, e.g. 1000 5000 (default: the "
        "built-in sweep)",
    )
    scaling.add_argument(
        "--topology",
        choices=("research", "powerlaw"),
        default="research",
        help="topology tier to sweep ('powerlaw' sizes are total AS counts)",
    )
    scaling.add_argument("--sensors", type=int, default=10)
    scaling.add_argument("--failures", type=int, default=5)
    scaling.add_argument("--seed", type=int, default=0)
    scaling.add_argument(
        "--workers",
        type=worker_count,
        default=1,
        help="worker processes, one size point each (0 = all cores)",
    )
    scaling.set_defaults(func=_cmd_scaling)

    degradation = sub.add_parser(
        "degradation",
        help="sweep measurement fault rates and report each algorithm's decay",
    )
    degradation.add_argument(
        "--rates",
        nargs="+",
        type=_fault_rate,
        default=[0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
        help="uniform fault rates to sweep (each in [0, 1])",
    )
    degradation.add_argument("--placements", type=int, default=3)
    degradation.add_argument("--failures", type=int, default=10)
    degradation.add_argument("--sensors", type=int, default=10)
    degradation.add_argument("--seed", type=int, default=0)
    degradation.add_argument("--topo-seed", type=int, default=100)
    degradation.add_argument(
        "--workers",
        type=worker_count,
        default=1,
        help="worker processes per batch (0 = all cores, 1 = serial)",
    )
    degradation.add_argument(
        "--journal",
        default=None,
        help="checkpoint base path; each rate appends to <journal>.rate<r>",
    )
    degradation.add_argument(
        "--resume",
        action="store_true",
        help="replay completed placements from the journal files",
    )
    degradation.add_argument(
        "--corrupt",
        action="store_true",
        help="sweep corruption modes (lying data) instead of omission faults",
    )
    degradation.add_argument(
        "--validation",
        choices=POLICIES,
        default=None,
        help="screen inputs under this repro.validate policy "
        "(--corrupt defaults to 'quarantine'; omit for undefended runs "
        "only when --corrupt is not set)",
    )
    degradation.set_defaults(func=_cmd_degradation)

    stream = sub.add_parser(
        "stream",
        help="replay a deterministic event stream through the online engine",
    )
    stream.add_argument("--kind", choices=SCENARIO_KINDS, default="link-1")
    stream.add_argument("--episodes", type=int, default=2)
    stream.add_argument("--incident-rounds", type=int, default=2)
    stream.add_argument("--recovery-rounds", type=int, default=2)
    stream.add_argument(
        "--rates",
        nargs="+",
        type=_fault_rate,
        default=[0.0],
        help="fault rates to replay, one full stream each (each in [0, 1])",
    )
    stream.add_argument(
        "--corrupt",
        action="store_true",
        help="inject corruption (lying data) instead of omission faults",
    )
    stream.add_argument(
        "--policy",
        choices=POLICIES,
        default="quarantine",
        help="repro.validate policy applied to every ingested event",
    )
    stream.add_argument(
        "--window",
        type=int,
        default=4,
        help="sliding window width in logical ticks (>= 1)",
    )
    stream.add_argument("--sensors", type=int, default=6)
    stream.add_argument("--tier2", type=int, default=6)
    stream.add_argument("--stubs", type=int, default=40)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--topo-seed", type=int, default=100)
    stream.add_argument(
        "--blocked-fraction",
        type=_fault_rate,
        default=0.0,
        help="fraction of covered ASes blocking traceroutes (enables nd-lg "
        "scenarios when combined with --algorithms nd-lg)",
    )
    stream.add_argument(
        "--algorithms",
        "--diagnosers",
        nargs="+",
        choices=DIAGNOSER_NAMES,
        default=["tomo", "nd-edge", "nd-bgpigp"],
        help="registry diagnosers to run per episode; 'ensemble' runs "
        "hitting-set + empathy and grades their agreement",
    )
    stream.add_argument(
        "--shards",
        type=int,
        default=1,
        help="ingest shards behind the consistent-hash router "
        "(1 = serial single-shard engine)",
    )
    stream.add_argument(
        "--tenants",
        type=int,
        default=0,
        help="number of synthetic tenants sharing the stream (0 = "
        "single-tenant, admission control disabled)",
    )
    stream.add_argument(
        "--tenant-rate",
        type=int,
        default=None,
        help="per-tenant admitted events per tick (default: unlimited); "
        "requires --tenants",
    )
    stream.add_argument(
        "--journal",
        default=None,
        help="checkpoint base path; each rate appends to <journal>.rate<r>",
    )
    stream.add_argument(
        "--resume",
        action="store_true",
        help="reuse episode reports already in the journal files",
    )
    stream.add_argument(
        "--save-log",
        default=None,
        help="also write the built event log (repro-event-log-v1) here "
        "(one --rates value only)",
    )
    stream.add_argument(
        "--chaos",
        type=_fault_rate,
        default=0.0,
        help="service-chaos rate in [0, 1]: seeded shard crashes/stalls "
        "and slow shards, handled by the supervision layer "
        "(implies >= 2 shards)",
    )
    stream.add_argument(
        "--dlq",
        default=None,
        help="dead-letter journal path (repro-dlq-v1); written during the "
        "run (one --rates value only), or inspected with --dlq-inspect",
    )
    stream.add_argument(
        "--dlq-inspect",
        action="store_true",
        help="print the entries of the --dlq journal and exit (no replay)",
    )
    stream.set_defaults(func=_cmd_stream)

    crossval = sub.add_parser(
        "crossval",
        help="cross-validate hitting-set vs empathy on identical scenarios",
    )
    crossval.add_argument("--placements", type=int, default=2)
    crossval.add_argument(
        "--failures",
        type=int,
        default=6,
        help="failure scenarios per kind per placement",
    )
    crossval.add_argument("--sensors", type=int, default=8)
    crossval.add_argument("--seed", type=int, default=0)
    crossval.add_argument("--topo-seed", type=int, default=100)
    crossval.add_argument(
        "--kinds",
        nargs="+",
        choices=SCENARIO_KINDS,
        default=["link-1", "link-2", "misconfig"],
    )
    crossval.add_argument(
        "--diagnosers",
        nargs="+",
        choices=[name for name in DIAGNOSER_NAMES if name != "nd-lg"],
        default=["nd-edge", "empathy"],
        help="at least two registry diagnosers to compare "
        "(nd-lg needs a Looking Glass deployment and is excluded)",
    )
    crossval.set_defaults(func=_cmd_crossval)

    monitor = sub.add_parser(
        "monitor",
        help="replay a long-horizon monitoring scenario (flight recorder)",
    )
    monitor.add_argument(
        "--scenario",
        default="mixed-ops",
        help="catalog scenario name (see --list-scenarios)",
    )
    monitor.add_argument(
        "--ticks",
        type=int,
        default=0,
        help="override the scenario's run length (0 = catalog default)",
    )
    monitor.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the scenario catalog and exit",
    )
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument("--topo-seed", type=int, default=100)
    monitor.add_argument("--sensors", type=int, default=6)
    monitor.add_argument("--tier2", type=int, default=6)
    monitor.add_argument("--stubs", type=int, default=40)
    monitor.add_argument(
        "--policy",
        choices=POLICIES,
        default="quarantine",
        help="repro.validate policy applied to every ingested event",
    )
    monitor.add_argument(
        "--window",
        type=int,
        default=4,
        help="sliding window width in logical ticks (>= 1)",
    )
    monitor.add_argument(
        "--retention",
        type=int,
        default=256,
        help="flight-recorder ring-buffer size (observations kept per pair)",
    )
    monitor.add_argument(
        "--shards",
        type=int,
        default=1,
        help="ingest shards behind the consistent-hash router "
        "(1 = serial single-shard engine)",
    )
    monitor.add_argument(
        "--chaos",
        type=_fault_rate,
        default=0.0,
        help="service-chaos rate in [0, 1]: seeded shard crashes/stalls "
        "under the supervision layer (implies >= 2 shards)",
    )
    monitor.add_argument(
        "--journal",
        default=None,
        help="checkpoint journal path for crash-safe --resume",
    )
    monitor.add_argument(
        "--resume",
        action="store_true",
        help="reuse episode reports already in the journal file",
    )
    monitor.set_defaults(func=_cmd_monitor)

    replay = sub.add_parser(
        "replay", help="re-diagnose an archived scenario file"
    )
    replay.add_argument("scenario", help="file written by diagnose --save-scenario")
    replay.add_argument(
        "--algorithms",
        "--diagnosers",
        nargs="+",
        choices=DIAGNOSER_NAMES,
        default=["tomo", "nd-edge", "nd-bgpigp"],
    )
    replay.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    _check_prerequisites(sub.choices[args.command], args)
    try:
        return args.func(args)
    except (
        ControlPlaneFeedError,
        EmpathyError,
        FaultInjectionError,
        JournalError,
        MonitorError,
        StreamError,
        TopologyError,
        ValidationError,
    ) as error:
        # Typed pipeline failures are user-diagnosable (bad inputs, strict
        # validation, a misconfigured or overflowing stream, a journal
        # from another run): one line on stderr, nonzero exit, no
        # traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream reader (e.g. `| head`) closed the pipe: exit quietly
        # like other Unix tools. Detach stdout so the interpreter does not
        # raise again while flushing at shutdown.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
