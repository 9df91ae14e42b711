"""Dump or compare the refined answers of a perfbench ``refine-*`` workload.

A change that claims bit identity on the Algorithm 2 path is checked against
the same oracle every time: the refined ``x``, the refinement iterations and
the block-encoding calls of every system of a ``refine-small`` or
``refine-large`` workload, solved once through ``solve()`` and once more,
all together, through ``solve_batch()`` — the two paths the benchmark times.
The cases and right-hand sides come from ``perfbench.refine.build_cases``
(read only), so a dump covers exactly the systems the benchmark solves.

Usage::

    python tools/refine_oracle.py --workload refine-large --seeds 1 7 --out a.npz
    python tools/refine_oracle.py --workload refine-small --seeds 1 --tiny --out t.npz
    python tools/refine_oracle.py --compare a.npz b.npz [--rtol R]

``--root DIR`` dumps the library and perfbench of another checkout (say, a
``git archive`` of the parent commit) with this script.  ``--compare``
prints the largest absolute and relative difference of ``x`` and exits 1
when the keys differ, any iteration or block-encoding count differs, or an
``x`` differs by more than ``R`` relative to its largest entry (``R = 0``,
the default, demands ``np.array_equal``).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: arrays compared exactly whatever ``--rtol`` is.
_COUNTS = ("iterations", "be_calls")


def dump(workload: str, seeds, *, tiny: bool = False) -> dict:
    """``{key: array}`` of every refined answer of ``workload`` at ``seeds``.

    Keys are ``seed<S>/<case>/<path>/<field>`` with ``path`` ``single`` or
    ``batch`` and ``field`` ``x`` (``(reps, batch, N)``), ``iterations`` or
    ``be_calls`` (``(reps, batch)``).
    """
    import numpy as np
    from perfbench.refine import build_cases

    out = {}
    for seed in seeds:
        for case in build_cases(workload, int(seed), tiny):
            refiner = case.synthesize()
            rhs = case.rhs
            single = [[refiner.solve(b) for b in rep] for rep in rhs]
            batch = [refiner.solve_batch(rep) for rep in rhs]
            for path, results in (("single", single), ("batch", batch)):
                prefix = f"seed{seed}/{case.spec.name}/{path}/"
                out[prefix + "x"] = np.array(
                    [[r.x for r in rep] for rep in results])
                out[prefix + "iterations"] = np.array(
                    [[r.iterations for r in rep] for rep in results])
                out[prefix + "be_calls"] = np.array(
                    [[r.total_block_encoding_calls for r in rep]
                     for rep in results])
    return out


def compare(first: dict, second: dict, *, rtol: float = 0.0
            ) -> tuple[list[str], float, float]:
    """``(mismatches, max_abs_diff, max_rel_diff)`` between two dumps.

    The relative difference of an ``x`` array is its largest absolute
    difference over the largest ``|x|`` of ``second``.
    """
    import numpy as np

    mismatches = [f"key only in one dump: {key}"
                  for key in sorted(set(first) ^ set(second))]
    max_abs = max_rel = 0.0
    for key in sorted(set(first) & set(second)):
        a, b = np.asarray(first[key]), np.asarray(second[key])
        if a.shape != b.shape:
            mismatches.append(f"{key}: shape {a.shape} != {b.shape}")
            continue
        if key.rsplit("/", 1)[-1] in _COUNTS:
            if not np.array_equal(a, b):
                mismatches.append(f"{key}: {a.ravel().tolist()} != "
                                  f"{b.ravel().tolist()}")
            continue
        diff = float(np.max(np.abs(a - b))) if a.size else 0.0
        rel = diff / max(float(np.max(np.abs(b))) if b.size else 0.0,
                         np.finfo(float).tiny)
        max_abs, max_rel = max(max_abs, diff), max(max_rel, rel)
        exact = rtol == 0.0 and not np.array_equal(a, b)
        if exact or rel > rtol:
            mismatches.append(f"{key}: max |diff| {diff:.3e} "
                              f"(relative {rel:.3e})")
    return mismatches, max_abs, max_rel


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("refine-small", "refine-large"))
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--tiny", action="store_true",
                        help="the benchmark's shrunken cases")
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument("--root", type=pathlib.Path, default=ROOT,
                        help="checkout whose src/ and perfbench/ are dumped")
    parser.add_argument("--compare", nargs=2, type=pathlib.Path,
                        metavar=("A", "B"))
    parser.add_argument("--rtol", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.compare is None and (args.workload is None or not args.seeds
                                 or args.out is None):
        parser.error("dump needs --workload, --seeds and --out "
                     "(or use --compare A B)")
    if args.rtol < 0:
        parser.error("--rtol must be non-negative")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.provenance import THREAD_ENV_VARS

    # one BLAS/OpenMP thread, as the benchmark pins it, so that dumps of
    # the same code agree bit for bit; effective only before numpy loads
    for var in THREAD_ENV_VARS:
        os.environ.setdefault(var, "1")
    import numpy as np

    if args.compare is not None:
        with np.load(args.compare[0]) as a, np.load(args.compare[1]) as b:
            mismatches, max_abs, max_rel = compare(dict(a), dict(b),
                                                   rtol=args.rtol)
        print(f"max |x diff| {max_abs:.3e}, relative {max_rel:.3e}; "
              f"{len(mismatches)} mismatch(es)")
        for line in mismatches[:20]:
            print("  " + line)
        return 1 if mismatches else 0
    arrays = dump(args.workload, args.seeds, tiny=args.tiny)
    np.savez(args.out, **arrays)
    systems = sum(a.size for k, a in arrays.items() if k.endswith("/be_calls"))
    print(f"{args.out}: {systems} refined systems of {args.workload} "
          f"at seeds {args.seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
