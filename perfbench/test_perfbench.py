"""Tests of the benchmark itself: a tiny-size smoke run of every workload,
the tracer, the seed contract and the output checks.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import layers  # noqa: E402
from scenarios import DEFAULT_SEED, WORKLOADS, draw_params, scenario_ini  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def test_spec_matches_the_benchmark_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.PER_LAYER
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in names
    assert max(len(scns) for scns in WORKLOADS.values()) == \
        sum(n.startswith("scenario") for n in names)
    assert all(len(scns) == 4 for scns in WORKLOADS.values())


def test_seed_draws_only_the_stated_parameters():
    for scns in WORKLOADS.values():
        for scn in scns:
            a, b = draw_params(scn, 5), draw_params(scn, 6)
            for key, val in a.items():
                if key in scn.drawn:
                    lo, hi = scn.drawn[key]
                    assert lo <= val <= hi and val != b[key]
                else:
                    assert val == b[key]
            assert scenario_ini(scn, 5, "full") == scenario_ini(scn, 5, "full")


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", str(DEFAULT_SEED), "--seconds", "0.2",
                     "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "1":
        assert "self_check ok" in proc.stdout
        assert "trace_overhead" in proc.stdout
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "series", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_patches_every_binding_and_restores():
    from halfcavity import bloch, decay, numerics, spectrum, weakdrive

    original = numerics.kummer_minus_exp
    with Tracer() as tracer:
        assert decay.kummer_minus_exp is weakdrive.kummer_minus_exp is numerics.kummer_minus_exp
        assert decay.kummer_minus_exp is not original
        assert spectrum.matrix_exponential is bloch.matrix_exponential
        assert spectrum.delay_bloch_steady is bloch.delay_bloch_steady
        p = decay.SystemParams(epsilon=0.4, tau=0.4, theta0=0.0)
        decay.series_population(p, [0.5, 1.0])
        assert tracer.value("numerics.poisson_weight.calls") > 0
        assert tracer.value("decay.series_amplitude.calls") == 2
        assert tracer.value("params.SystemParams.calls") == 1
        assert not tracer.missing
    assert numerics.kummer_minus_exp is original
    assert decay.kummer_minus_exp is original and weakdrive.kummer_minus_exp is original


def test_self_check_names_an_unexercised_layer():
    calls = {func: 1 for func in layers.EXERCISED}
    values = {name: 0 for name, _, _ in layers.PER_LAYER}
    assert layers.self_check("series", calls, values, []) == []
    calls["numerics.poisson_weight"] = 0
    values["dde.integrate.calls"] = 3
    problems = layers.self_check("series", calls, values, ["dde.solve_ode"])
    assert len(problems) == 3


def _reference_table(name):
    with open(checks.reference_path("tiny", name)) as fh:
        ref = json.load(fh)
    assert ref["index"] == list(range(ref["rows"]))
    return ref["columns"], np.array(ref["values"])


def test_checks_catch_a_moved_value_and_a_known_defect():
    scn = next(s for s in WORKLOADS["series"] if s.name == "weak-population")
    names, data = _reference_table("weak-population")
    assert checks.check_output(scn, DEFAULT_SEED, "tiny", names, data, {"x"}).ok
    bad = data.copy()
    bad[7, 1] *= 1.0 + 1e-6
    assert not checks.check_output(scn, DEFAULT_SEED, "tiny", names, bad, {"x"}).ok
    assert not checks.check_output(scn, DEFAULT_SEED, "tiny", names, data, {"x", "y"}).ok

    # the int(t/tau) plateau on exactly the predicted rows is the known defect
    tau = draw_params(scn, DEFAULT_SEED)["gamma_tau"]
    times = checks.requested_grid(scn, "tiny")
    rows = [i for i, t in enumerate(times) if int(t / tau) != np.floor(t / tau + 1e-12)]
    assert rows
    defect = data.copy()
    defect[rows, 2] = data[[r - 1 for r in rows], 2]
    res = checks.check_output(scn, DEFAULT_SEED, "tiny", names, defect, {"x"})
    assert res.ok and res.defects
    for row in (rows[0], rows[0] + 1):    # a wrong value on a defect row, or elsewhere
        moved = defect.copy()
        moved[row, 2] *= 2.0
        assert not checks.check_output(scn, DEFAULT_SEED, "tiny", names, moved, {"x"}).ok


def test_checks_compare_every_bloch_transient_row():
    scn = next(s for s in WORKLOADS["transient"] if s.name == "bloch-transient")
    with open(checks.reference_path("tiny", scn.name)) as fh:
        ref = json.load(fh)
    names, correct = ref["columns"], np.array(ref["values"])
    assert checks.check_output(scn, DEFAULT_SEED, "tiny", names, correct, {"x"}).ok

    # the snapping defect writes the own-grid row at or after each requested time
    times = checks.requested_grid(scn, "tiny")
    landed = np.searchsorted(np.linspace(0.0, times[-1], len(times)), times)
    snapped = np.array(ref["own_grid_values"])[landed]
    res = checks.check_output(scn, DEFAULT_SEED, "tiny", names, snapped, {"x"})
    assert res.ok and res.defects
    moved = np.flatnonzero(snapped[:, 0] != times)
    assert moved.size and np.ptp(correct[:, 1]) > 1e-2    # the window holds the transient
    for table, row in ((correct, 1), (snapped, moved[0])):
        bad = table.copy()
        bad[row, 1] *= 1.0 + 1e-5
        assert not checks.check_output(scn, DEFAULT_SEED, "tiny", names, bad, {"x"}).ok
