"""``tools/refine_oracle.py``: dumps of the refine workloads and their comparison."""

from __future__ import annotations

import importlib.util
import os
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location(
        "refine_oracle", ROOT / "tools" / "refine_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny_dump(oracle, tmp_path_factory):
    """The command-line dump of one tiny ``refine-small`` seed."""
    path = tmp_path_factory.mktemp("oracle") / "tiny.npz"
    with pytest.MonkeyPatch.context() as patch:
        # main() pins the thread pools and prepends the checkout to sys.path
        patch.setattr(sys, "path", [str(ROOT)] + sys.path)
        from perfbench.provenance import THREAD_ENV_VARS

        for var in THREAD_ENV_VARS:
            patch.setenv(var, os.environ.get(var, "1"))
        assert oracle.main(["--workload", "refine-small", "--seeds", "3",
                            "--tiny", "--out", str(path)]) == 0
    with np.load(path) as saved:
        return path, dict(saved)


def test_dump_covers_both_paths_of_every_case(tiny_dump):
    _, arrays = tiny_dump
    cases = {key.split("/")[1] for key in arrays}
    assert cases == {"circuit-n16", "ideal-n16-k100", "ideal-n256"}
    for case in cases:
        for path in ("single", "batch"):
            prefix = f"seed3/{case}/{path}/"
            x = arrays[prefix + "x"]
            assert x.ndim == 3 and np.all(np.isfinite(x))
            assert arrays[prefix + "iterations"].shape == x.shape[:2]
            assert np.all(arrays[prefix + "be_calls"] > 0)


def test_a_dump_matches_itself_and_not_a_perturbed_copy(oracle, tiny_dump,
                                                        tmp_path, capsys):
    path, arrays = tiny_dump
    assert oracle.main(["--compare", str(path), str(path)]) == 0
    key = "seed3/ideal-n256/batch/x"
    nudged = dict(arrays)
    nudged[key] = arrays[key].copy()
    nudged[key][0, 0, 0] *= 1.0 + 1e-13
    other = tmp_path / "nudged.npz"
    np.savez(other, **nudged)
    assert oracle.main(["--compare", str(path), str(other)]) == 1
    assert key in capsys.readouterr().out
    # a tolerance admits the nudge; a changed count never passes
    assert oracle.main(["--compare", str(path), str(other),
                        "--rtol", "1e-12"]) == 0
    counted = dict(arrays)
    counted["seed3/circuit-n16/single/iterations"] = (
        arrays["seed3/circuit-n16/single/iterations"] + 1)
    np.savez(other, **counted)
    assert oracle.main(["--compare", str(path), str(other),
                        "--rtol", "1.0"]) == 1
    del counted["seed3/circuit-n16/single/be_calls"]
    np.savez(other, **counted)
    mismatches, _, _ = oracle.compare(dict(arrays), counted)
    assert any("key only in one dump" in line for line in mismatches)
