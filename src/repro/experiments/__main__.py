"""Command-line entry point: regenerate any evaluation figure.

Examples::

    python -m repro.experiments --figure 6
    python -m repro.experiments --figure all --placements 10 --failures 100
    python -m repro.experiments --figure 11 --paper-scale
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.errors import (
    ControlPlaneFeedError,
    EmpathyError,
    StreamError,
    TopologyError,
    ValidationError,
)
from repro.experiments.figures import FIGURES, FigureConfig, figure_sort_key
from repro.serialize import figure_result_to_dict


def worker_count(text: str) -> int:
    """argparse type for --workers: non-negative int (0 = all cores).
    Shared with ``python -m repro``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 = all cores)")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the NetDiagnoser evaluation figures (5-12).",
    )
    parser.add_argument(
        "--figure",
        default="all",
        help="figure id (5..12), 'degradation', or 'all'",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--topo-seed", type=int, default=100, help="topology generator seed"
    )
    parser.add_argument(
        "--placements", type=int, default=3, help="sensor placements per figure"
    )
    parser.add_argument(
        "--failures", type=int, default=10, help="failures per placement"
    )
    parser.add_argument(
        "--sensors", type=int, default=10, help="number of sensors (N)"
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's 10 placements x 100 failures (slow)",
    )
    parser.add_argument(
        "--workers",
        type=worker_count,
        default=1,
        help="worker processes per batch (0 = all cores, 1 = serial); "
        "results are identical to a serial run",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        help="directory to additionally write <figure>.json series files to",
    )
    args = parser.parse_args(argv)

    placements = 10 if args.paper_scale else args.placements
    failures = 100 if args.paper_scale else args.failures
    config = FigureConfig(
        seed=args.seed,
        topo_seed=args.topo_seed,
        placements=placements,
        failures_per_placement=failures,
        n_sensors=args.sensors,
        workers=args.workers,
    )
    wanted = (
        sorted(FIGURES, key=figure_sort_key)
        if args.figure == "all"
        else [args.figure]
    )
    for figure_id in wanted:
        if figure_id not in FIGURES:
            parser.error(f"unknown figure {figure_id!r}; choose from {sorted(FIGURES)}")
        started = time.time()
        try:
            result = FIGURES[figure_id](config)
        except (
            ControlPlaneFeedError,
            EmpathyError,
            StreamError,
            TopologyError,
            ValidationError,
        ) as error:
            # Typed pipeline failures are user-diagnosable: one line on
            # stderr, nonzero exit, no traceback.
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(result.render())
        if args.json_out:
            out_dir = pathlib.Path(args.json_out)
            out_dir.mkdir(parents=True, exist_ok=True)
            out_path = out_dir / f"{result.figure_id}.json"
            out_path.write_text(json.dumps(figure_result_to_dict(result), indent=1))
            print(f"[series written to {out_path}]")
        print(f"\n[figure {figure_id} regenerated in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
