"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run ``run.py`` in subprocesses, one pass (pair) each, and check that
the exact counts repeat across runs and seeds, that each cell's counts do
not depend on where the seed put it, that a run leaves the git tree as it
was, and that a checkout without sources is refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cells  # noqa: E402
from tracing import CELL_SPAN, layer_times  # noqa: E402

#: units of metrics that are exact (simulated or counted), not timed
EXACT_UNITS = ("count", "B", "ratio", "sim_us")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(workload: str, seed: int, trace: int) -> dict:
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return result


def _cell_counts(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.cells.json"
    records = json.loads(path.read_text())
    by_key: dict = {}
    for rec in records:
        by_key.setdefault(rec["key"], []).append(
            (rec["pass"], rec["pos"], rec["counts"], rec["sim_us"])
        )
    return by_key


def _git_status() -> str:
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
        text=True, check=True,
    ).stdout


@pytest.mark.parametrize("workload", cells.WORKLOADS)
def test_counts_repeat_across_runs_and_seeds(workload):
    tracked = (ROOT / ".git").exists() and shutil.which("git")
    before = _git_status() if tracked else None
    runs = [_result(workload, 1, 1), _result(workload, 1, 1),
            _result(workload, 2, 1)]
    if tracked:
        assert _git_status() == before

    exact = [
        {name: m["value"] for name, m in r["metrics"].items()
         if m["unit"] in EXACT_UNITS}
        for r in runs
    ]
    assert "sim_time_us.geomean" in exact[0]
    assert exact[0] == exact[1] == exact[2]

    # the two seeds ran the cells at different positions; each cell's
    # simulated counts and result must not care
    seed1 = _cell_counts(workload, 1, 1)
    seed2 = _cell_counts(workload, 2, 1)
    assert seed1.keys() == seed2.keys()
    moved = 0
    for key, samples in seed1.items():
        values = {json.dumps(s[2:], sort_keys=True)
                  for s in samples + seed2[key]}
        assert len(values) == 1, key
        moved += samples[0][1] != seed2[key][0][1]
    assert moved > 0


def test_untraced_run_reports_end_to_end_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _result("fig09-stream", 3, 0)
    names = [m["name"] for m in bench["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("fig09-stream", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    spans = [
        [CELL_SPAN, 0, 100, -1],
        ["mpi.init", 10, 40, 0],
        ["simulator.run", 40, 90, 0],
        ["datatypes.flatten", 50, 60, 2],
        ["datatypes.flatten", 52, 58, 3],
    ]
    t = layer_times(spans)
    assert t["self"] == pytest.approx({
        "unattributed": 20e-9, "mpi": 30e-9, "simulator": 40e-9,
        "datatypes": 10e-9,
    })
    # nested spans of one name count once in inclusive time
    assert t["inclusive"]["datatypes.flatten"] == pytest.approx(10e-9)
    assert t["count"]["datatypes.flatten"] == 2


def test_end_to_end_scales_cell_medians_by_the_reference():
    from hostspeed import REFERENCE_S
    from run import end_to_end

    ref_ms = REFERENCE_S * 1e3

    def rec(key, npass, wall_ms, setup_ms, slowdown):
        # a host ``slowdown`` times slower stretches cell and reference alike
        return {"key": key, "pass": npass, "sim_us": 1.0,
                "wall_ns": wall_ms * slowdown * 10**6,
                "setup_ns": setup_ms * slowdown * 10**6,
                "ref_ns": ref_ms * slowdown * 10**6}

    records = [
        rec("a", 0, 100, 10, 1.0), rec("b", 0, 300, 30, 1.7),
        rec("a", 1, 100, 10, 1.5), rec("b", 1, 300, 30, 1.0),
        rec("a", 2, 400, 40, 1.0),
    ]
    metrics, _ = end_to_end(records)
    assert metrics["wall_s"][0] == pytest.approx(0.4)
    assert metrics["setup_s"][0] == pytest.approx(0.04)
    assert metrics["cell_ms.p50"][0] == pytest.approx(200.0)
    assert metrics["cell_ms.tail"][0] == pytest.approx(280.0)


def test_untimed_presets_replay_to_the_reference():
    """``scenario-replay`` times one preset; the suite's other presets
    must deliver the same digests and payloads."""
    from repro.schemes import SCHEME_NAMES
    from repro.workloads.fuzz import expected_payloads
    from repro.workloads.suite import DEFAULT_PRESETS

    reference = json.loads(cells.REPLAY_REFERENCE.read_text())
    presets = [p for p in DEFAULT_PRESETS if p not in cells.REPLAY_PRESETS]
    assert presets
    for name, trace in cells.load_traces(ROOT).items():
        payloads = name in cells.PAYLOAD_CHECKED
        expected = expected_payloads(trace) if payloads else None
        for preset in presets:
            for scheme in SCHEME_NAMES:
                result = cells.replay_cell(trace, scheme, preset, payloads)
                assert cells.check_replay(
                    reference[name], expected, result
                ) is None, (name, scheme, preset)
