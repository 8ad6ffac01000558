"""Self-test of the benchmark: reduced runs of every workload, metric names
and units against BENCHMARK.json, oracle sensitivity, absent targets, and
the refusal to run without the program.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reduced_run_reports_declared_metrics(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    report = json.loads(lines[-2])["report"]
    assert report["seed"] == 7 and report["inputs_sha256"]
    assert report["environment"]["nproc"] >= 1


def test_end_to_end_metrics_are_never_zero():
    result = json.loads(run_bench("couple", 0).stdout.strip().splitlines()[-1])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def one_op(cls, tmp_path, i=0):
    work = cls(3, tmp_path)
    work.setup()
    for argv in work.calls(i):
        wl.run_cli(argv)
    work.check(i)
    return work


def tamper(path: str, old: str, new: str) -> None:
    text = Path(path).read_text(encoding="utf-8")
    assert old in text
    Path(path).write_text(text.replace(old, new, 1), encoding="utf-8")


def test_map_oracle_catches_a_wrong_channel(tmp_path):
    work = one_op(wl.MapWorkload, tmp_path)
    out = work.path("map.csv")
    row = Path(out).read_text(encoding="utf-8").splitlines()[-1].split(",")
    header = [ln for ln in Path(out).read_text().splitlines()
              if not ln.startswith("#")][0].split(",")
    cell = row[header.index("enh_EQ_EQ")]
    tamper(out, cell, repr(float(cell) * (1 + 1e-7)))
    with pytest.raises(wl.OracleError):
        work.check(0)


def test_couple_oracles_catch_wrong_xi_and_rates(tmp_path):
    work = one_op(wl.CoupleWorkload, tmp_path)       # pair 0 is ED-ED
    out = work.path("couple.json")
    doc = json.loads(Path(out).read_text(encoding="utf-8"))
    for key in ("xi_rad_per_s", "gamma_cross_per_s", "gamma_a_per_s"):
        bad = json.loads(json.dumps(doc))
        bad[key]["re"] *= 1 + 1e-5
        Path(out).write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(wl.OracleError):
            work.check(0)


def test_dynamics_oracles_catch_wrong_trajectories(tmp_path):
    work = one_op(wl.DynamicsWorkload, tmp_path, i=1)   # n7-single
    out = Path(work.path("trajectory.json"))
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["trajectory"]["sigma_z"][20][3] += 1e-6
    out.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(wl.OracleError, match="propagator"):
        work.check(1)
    doc["trajectory"]["sigma_z"][20][3] += 0.1          # inversion rises
    out.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(wl.OracleError, match="increases"):
        work.check(0)


def test_failed_oracle_counts_as_failed_op(tmp_path, monkeypatch):
    work = wl.DynamicsWorkload(3, tmp_path)
    work.setup()

    def wrong(i):
        raise wl.OracleError("deliberately wrong")
    monkeypatch.setattr(work, "check", wrong)
    ops, cycles = run.run_ops(work, wl, 0.0, None,
                              calibration.Calibration("none"))
    assert len(ops) == work.cycle and not any(op.ok for op in ops)
    metrics = run.end_to_end(ops, cycles, 1.0, run.peak_rss_bytes())
    assert metrics["throughput_ops_per_s"]["value"] == 0.0
    json.dumps(metrics, allow_nan=False)   # still a valid result line


def test_missing_target_is_absent_not_zero(monkeypatch):
    targets = [t if t[0] != "grid.jet_at" else
               (t[0], t[1], "TensorGrid.no_such_method", t[3])
               for t in tracing.TARGETS]
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    tracer = tracing.Tracer()
    assert tracer.absent == ["grid.jet_at"]
    tracer.begin_op(0)
    tracer.end_op()
    metrics = tracer.layer_metrics({0: "map"}, {}, {}, 0, 0.0)
    assert "grid.jet_at_calls_per_op" not in metrics
    assert "grid.jet_at_us_per_call" not in metrics
    assert "grid.load_grid_s_per_call" in metrics


def test_wrappers_are_removed_after_each_op():
    import polyemit.cli
    import polyemit.grid
    before = (polyemit.cli.main, polyemit.grid.TensorGrid.jet_at)
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    assert polyemit.cli.main is not before[0]
    tracer.end_op()
    assert (polyemit.cli.main, polyemit.grid.TensorGrid.jet_at) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("map", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
