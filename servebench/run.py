"""Serving benchmark for the TASD runtime: one command, three workloads.

Run from the repository root::

    python3 servebench/run.py --workload resnet18-b1-closed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
records spans around the runtime's public entry points and reports the
per-layer metrics.  The program under test is imported from ``src/`` next
to this directory.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (provenance, autotune picks,
the open-loop ladder, per-layer GEMM floors) and, when traced, the spans
are written under ``.servebench-out/`` in the repository root.  Every
process the run starts (pool workers, the multiprocessing resource
tracker) is stopped and waited for before it exits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".servebench-out"
WORKLOAD_NAMES = ("resnet18-b1-closed", "resnet18-poisson-proc2", "mlp-tasd-b16")


def _import_program() -> None:
    """Put ``src/`` first on the path and make sure ``repro`` comes from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"servebench: no program sources at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"servebench: imported repro from {repro.__file__}, not {src}")


def _line(name: str, value, unit: str) -> str:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<36s} {text:>14s} {unit}"


def stop_children(grace_s: float = 5.0) -> None:
    """Stop and reap every child process of this run.

    Pool workers a failed run left behind are terminated first, so that
    nothing else holds the resource tracker's pipe; then the tracker, which
    multiprocessing starts for shared memory and never waits for, is told
    to exit and reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(grace_s)
        if proc.is_alive():
            proc.kill()
            proc.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    import bench
    from models import WORKLOADS
    from provenance import provenance

    wl = WORKLOADS[args.workload]
    traced = bool(args.trace)
    prov = provenance(ROOT, wl.name, args.seed, traced)
    print(f"servebench {wl.name} seed={args.seed} seconds={args.seconds:g} traced={traced}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    run = bench.run_traced if traced else bench.run_untraced
    result = run(wl, args.seed, args.seconds)
    units = bench.PER_LAYER if traced else bench.END_TO_END

    print("per-layer metrics (traced run):" if traced else "end-to-end metrics (untraced run):")
    for name, unit in units.items():
        print(_line(name, result.metrics[name], unit))
    for name, (value, unit) in result.extra.items():
        print(_line(name, value, unit))
    picks = result.record["setups"]["backend_picks"]
    for k, p in enumerate(picks):
        counts = {b: list(p.values()).count(b) for b in sorted(set(p.values()))}
        print(f"  autotune picks, set-up {k + 1}: {counts}")
    print(
        f"  requests attempted {result.attempted}, failed {result.failed}, "
        f"failed the reference check {result.wrong}"
    )

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": prov,
        "metrics": {n: {"value": result.metrics[n], "unit": u} for n, u in units.items()},
        "extra": {n: {"value": v, "unit": u} for n, (v, u) in result.extra.items()},
        "attempted": result.attempted,
        "failed": result.failed,
        **result.record,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if result.recorder is not None:
        result.recorder.dump(OUT_DIR / f"{stem}-spans.json")

    bad = [n for n in units if not math.isfinite(float(result.metrics[n]))]
    if bad:
        print(f"servebench: metrics not measured: {bad}", file=sys.stderr)
        return 1
    out = {
        # failed counts errors, refusals and wrong outputs alike.
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": result.metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
