"""``tools/perf_ab.py``: the A/B verdicts and one end-to-end ledger."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def perf_ab():
    spec = importlib.util.spec_from_file_location(
        "perf_ab", ROOT / "tools" / "perf_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _side(cpu_ms: float, throughput: float, jitter: float) -> dict:
    return {"cpu_ms_per_op": cpu_ms * (1.0 + jitter),
            "throughput_per_s": throughput * (1.0 - jitter),
            "peak_rss_mb": 100.0}


JITTERS = [0.01 * ((3 * i) % 7 - 3) for i in range(10)]


def test_identical_sides_flag_nothing(perf_ab):
    pairs = [(_side(1.5, 900.0, j), _side(1.5, 900.0, j)) for j in JITTERS]
    summary = perf_ab.summarize(pairs, perf_ab.benchmark_bounds())
    assert {entry["verdict"] for entry in summary.values()} == {"within"}
    assert all(entry["wins"] == 0 and entry["median_delta"] == 0.0
               for entry in summary.values())


def test_a_slower_side_is_flagged_on_cpu_ms_per_op(perf_ab):
    pairs = [(_side(1.5, 900.0, j), _side(1.5 * 1.3, 900.0, j))
             for j in JITTERS]
    summary = perf_ab.summarize(pairs, perf_ab.benchmark_bounds())
    cpu = summary["cpu_ms_per_op"]
    assert cpu["verdict"] == "worse" and cpu["wins"] == 0
    assert cpu["change"] == pytest.approx(0.3)
    assert summary["throughput_per_s"]["verdict"] == "within"
    # the same gap read the other way round is a gain on every pair
    flipped = perf_ab.summarize([(head, base) for base, head in pairs],
                                perf_ab.benchmark_bounds())
    assert flipped["cpu_ms_per_op"]["verdict"] == "better"
    assert flipped["cpu_ms_per_op"]["wins"] == len(pairs)


def test_one_tiny_pair_writes_the_ledger(perf_ab, tmp_path, capsys):
    out = tmp_path / "ledger.json"
    status = perf_ab.main(["--base", str(ROOT), "--workload", "refine-small",
                           "--pairs", "1", "--seconds", "0.3", "--tiny",
                           "--out", str(out)])
    assert f"ledger {out}" in capsys.readouterr().out
    ledger = json.loads(out.read_text())
    # one short pair of the same tree can still differ by more than a
    # bound; the exit status reports exactly that
    verdicts = {entry["verdict"] for entry in ledger["metrics"].values()}
    assert status == int("worse" in verdicts)
    [run] = ledger["runs"]
    assert run["first"] == "base"
    for side in ("base", "head"):
        assert run[side]["correct"] and run[side]["attempted"] > 0
        assert ledger[side]["source_sha256"] == ledger["head"]["source_sha256"]
        assert ledger[side]["host"]["nproc"] >= 1
    assert ledger["base"]["commit"] is None
    assert verdicts <= {"within", "better", "worse"}
