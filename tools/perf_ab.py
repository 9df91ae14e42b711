"""A/B one perfbench workload between a base tree and this checkout.

Usage, from the repository root::

    python tools/perf_ab.py --base REV|DIR --workload W --pairs N --seconds S
        [--trace 0|1] [--tiny] [--seed S0] [--out LEDGER]

``--base`` is a directory holding another checkout, used as it is, or a git
revision of this repository, unpacked with ``git archive`` under
``.perfbench/ab/``.  Pair ``i`` runs ``perfbench/run.py`` in both trees with
seed ``S0 + i``, the base first in even pairs and this checkout first in odd
ones, and reads each run's last JSON line; a run that fails, answers wrongly
or fails an operation stops the A/B with an error.

Per metric it prints each side's median, min and max, the base side's
interquartile range, the median paired delta, how many pairs this checkout
won, and a verdict against the metric's ``BENCHMARK.json`` entry, read in
its ``better`` direction:

* ``worse``: the medians differ by more than the bound in the wrong
  direction;
* ``better``: this checkout won at least nine pairs in ten and its median
  is better by more than the base IQR;
* ``within`` otherwise, and ``-`` for a metric without a bound (the
  per-layer ones of ``--trace 1``).

The JSON ledger (default ``.perfbench/ab/ledger-<workload>-<utc>.json``)
holds every run's metrics, the summary, the base revision's commit and
both trees' ``source_sha256`` and host provenance.  Exits 1 when any metric
is ``worse``.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import math
import pathlib
import statistics
import subprocess
import sys
import tarfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".perfbench" / "ab"
#: share of pairs a ``better`` verdict needs.
WIN_SHARE = 0.9


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def base_tree(base: str) -> tuple[pathlib.Path, str | None]:
    """The base checkout's directory and the commit it was unpacked from
    (``None`` for a directory given as it is)."""
    if pathlib.Path(base).is_dir():
        return pathlib.Path(base).resolve(), None
    commit = _git("rev-parse", "--verify", f"{base}^{{commit}}")
    tree = AB_DIR / commit
    if not (tree / "perfbench" / "run.py").is_file():
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                                 check=True, capture_output=True).stdout
        tree.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
    return tree, commit


def run_once(tree: pathlib.Path, args, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line, plus the
    provenance line it prints."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = None
    if (done.returncode != 0 or record is None or not record["correct"]
            or record["failed"]):
        raise RuntimeError(f"run in {tree} (seed {seed}) failed with exit "
                           f"{done.returncode}:\n{done.stdout[-2000:]}"
                           f"{done.stderr[-2000:]}")
    record["provenance"] = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines
         if line.startswith("provenance ")), None)
    return record


def _quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, bounds: dict) -> dict:
    """Per-metric summary of ``pairs`` — ``[(base_metrics, head_metrics)]``
    with each side ``{name: value}`` — against ``bounds``, ``{name:
    (better, bound)}`` from ``BENCHMARK.json``."""
    summary = {}
    for name in pairs[0][0]:
        base = [pair[0][name] for pair in pairs]
        head = [pair[1][name] for pair in pairs]
        better, bound = bounds.get(name, ("lower", None))
        sign = 1.0 if better == "lower" else -1.0
        base_median, head_median = statistics.median(base), statistics.median(head)
        q1, q3 = _quartiles(base)
        gain = sign * (base_median - head_median)   # > 0: this checkout is better
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        loss = (-gain / abs(base_median) if base_median
                else (math.inf if gain < 0 else 0.0))
        if bound is None:
            verdict = "-"
        elif loss > bound:
            verdict = "worse"
        elif wins >= math.ceil(WIN_SHARE * len(pairs)) and gain > q3 - q1:
            verdict = "better"
        else:
            verdict = "within"
        summary[name] = {
            "better": better, "bound": bound,
            "base": {"median": base_median, "min": min(base), "max": max(base)},
            "head": {"median": head_median, "min": min(head), "max": max(head)},
            "base_iqr": q3 - q1,
            "median_delta": statistics.median(h - b for b, h in zip(base, head)),
            "change": (head_median - base_median) / base_median
            if base_median else None,
            "wins": wins, "verdict": verdict}
    return summary


def benchmark_bounds(path: pathlib.Path = ROOT / "BENCHMARK.json") -> dict:
    """``{name: (better, bound)}`` of every metric ``BENCHMARK.json`` lists
    (the per-layer ones have no bound: ``None``)."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {metric["name"]: (metric["better"], metric.get("bound"))
            for metric in spec["end_to_end"] + spec["per_layer"]}


def _host(provenance: dict | None) -> dict | None:
    keys = ("python", "numpy", "scipy", "nproc", "cpu_count", "machine",
            "blas_threads")
    return None if provenance is None else {k: provenance.get(k) for k in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair (default 1)")
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base, commit = base_tree(args.base)
    trees, runs = {"base": base, "head": ROOT}, []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        run = {"pair": i, "seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_once(trees[side], args, seed)
        runs.append(run)
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first)",
              file=sys.stderr, flush=True)
    pairs = [tuple({name: entry["value"] for name, entry
                    in run[side]["metrics"].items()} for side in ("base", "head"))
             for run in runs]
    summary = summarize(pairs, benchmark_bounds())
    stamp = datetime.datetime.now(datetime.timezone.utc)
    out = args.out or AB_DIR / (f"ledger-{args.workload}-"
                                f"{stamp.strftime('%Y%m%dT%H%M%SZ')}.json")
    sides = {side: runs[0][side]["provenance"] or {} for side in ("base", "head")}
    ledger = {
        "workload": args.workload, "pairs": args.pairs,
        "seconds": args.seconds, "trace": bool(args.trace), "tiny": args.tiny,
        "utc": stamp.isoformat(timespec="seconds"),
        "base": {"rev": args.base, "commit": commit, "tree": str(base),
                 "source_sha256": sides["base"].get("source_sha256"),
                 "host": _host(sides["base"])},
        "head": {"tree": str(ROOT), "commit": sides["head"].get("commit"),
                 "dirty": sides["head"].get("dirty"),
                 "source_sha256": sides["head"].get("source_sha256"),
                 "host": _host(sides["head"])},
        "metrics": summary,
        "runs": runs,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
    print(f"{'metric':<34} {'base median [min, max]':>28} "
          f"{'head median [min, max]':>28} {'base IQR':>9} {'delta':>9} "
          f"{'wins':>5}  verdict")
    for name, entry in summary.items():
        cells = [f"{entry[side]['median']:.4g} [{entry[side]['min']:.4g}, "
                 f"{entry[side]['max']:.4g}]" for side in ("base", "head")]
        print(f"{name:<34} {cells[0]:>28} {cells[1]:>28} "
              f"{entry['base_iqr']:>9.3g} {entry['median_delta']:>9.3g} "
              f"{entry['wins']:>2}/{args.pairs:<2}  {entry['verdict']}")
    print(f"ledger {out}")
    return 1 if any(entry["verdict"] == "worse"
                    for entry in summary.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
