"""Launch a live Oscar overlay over TCP loopback and health-check it.

Boots a seed endpoint plus ``--peers`` peer tasks, each an asyncio
:class:`repro.net.NetNode` speaking length-prefixed JSON frames over
real sockets,
runs the join protocol to quiescence, prints a topology summary, and
routes ``--probes`` greedy lookups. Exit status is the health check:
nonzero when any probe misses the responsible peer, any in-cap is
violated, or any peer's directory disagrees with the seed's membership
view — the CI ``net-smoke`` job gates on it.

Usage::

    PYTHONPATH=src python scripts/launch_network.py --peers 50 --probes 100
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import OscarConfig, SamplingMode  # noqa: E402
from repro.degree import ConstantDegrees  # noqa: E402
from repro.net import NetConfig, NetHarness  # noqa: E402
from repro.workloads import UniformKeys  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--peers", type=int, default=50, help="peer count (default: 50)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--cap", type=int, default=4, help="per-peer degree cap (default: 4)")
    parser.add_argument("--probes", type=int, default=100, help="route probes (default: 100)")
    parser.add_argument(
        "--walk",
        action="store_true",
        help="sample via restricted walks over links instead of the directory",
    )
    args = parser.parse_args(argv)

    mode = SamplingMode.WALK if args.walk else SamplingMode.UNIFORM
    config = NetConfig(
        overlay=OscarConfig(sampling_mode=mode),
        seed=args.seed,
        transport="tcp",
    )
    started = time.perf_counter()
    with NetHarness(config) as harness:
        harness.build(args.peers, UniformKeys(), ConstantDegrees(args.cap))
        build_seconds = time.perf_counter() - started
        success, mean_hops = harness.route_check(args.probes)
        summary = harness.summary()

    print(
        f"[launch-network] {summary.n} peers over TCP loopback in "
        f"{build_seconds:.2f}s: {summary.links} links, "
        f"{summary.gave_up} slots given up"
    )
    print(
        f"[launch-network] routed {summary.routes_delivered}/"
        f"{summary.routes_attempted} probes to the responsible peer "
        f"(mean {mean_hops:.2f} hops); {summary.cap_violations} cap violations; "
        f"{summary.directory_mismatches} directory mismatches"
    )

    if success < 1.0:
        print("[launch-network] FAIL: routing missed the responsible peer", file=sys.stderr)
        return 1
    if summary.cap_violations:
        print("[launch-network] FAIL: in-degree cap violated", file=sys.stderr)
        return 1
    if summary.directory_mismatches:
        print(
            "[launch-network] FAIL: peer directories disagree with the seed's",
            file=sys.stderr,
        )
        return 1
    print("[launch-network] OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
