"""Command-line front end: config parsing, mode runners, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from halfcavity import cli


def write_config(tmp_path, body, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def read_table(path):
    """Parse a CLI output table into (column names, data array)."""
    lines = [ln for ln in open(path).read().splitlines()
             if ln and not ln.startswith("#")]
    names = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return names, data


BASE = """
[scenario]
mode = {mode}
out = {out}

[params]
epsilon = 0.4
gamma_tau = 0.4
theta0 = 0.0
{extra_params}
{grids}
"""


def run_main(args):
    return cli.main(args)


class TestValidate:
    def test_ok_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.format(
            mode="decay-population", out=tmp_path / "o.csv", extra_params="",
            grids="[grid.time]\nstart = 0\nstop = 2\npoints = 10\n"))
        assert run_main(["--config", cfg, "--validate-only"]) == 0
        out = capsys.readouterr().out
        assert "ok: mode decay-population" in out
        assert "gamma_tilde = 0.6" in out
        assert "delay_regime" in out

    def test_epsilon_out_of_range_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[scenario]
mode = decay-population
[params]
epsilon = 1.2
[grid.time]
start = 0
stop = 2
points = 10
""")
        assert run_main(["--config", cfg, "--validate-only"]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_phase_inconsistency_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[scenario]
mode = weak-population
[params]
epsilon = 0.1
tau = 2.0
theta0 = 1.0
theta_l = 0.9
delta = 0.3
rabi = 0.05
[grid.time]
start = 0
stop = 2
points = 10
""")
        assert run_main(["--config", cfg, "--validate-only"]) == 2
        assert "phases" in capsys.readouterr().err

    def test_missing_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE.format(
            mode="decay-population", out=tmp_path / "o.csv",
            extra_params="", grids=""))
        assert run_main(["--config", cfg]) == 2
        assert "grid.time" in capsys.readouterr().err

    def test_bad_grid(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            mode="decay-population", out=tmp_path / "o.csv", extra_params="",
            grids="[grid.time]\nstart = 2\nstop = 0\npoints = 10\n"))
        assert run_main(["--config", cfg]) == 2

    @pytest.mark.parametrize("scenario, params, args, field", [
        ("tol = abc\n", "", [], "tol"),
        ("tol = 0.5\n", "", [], "tol"),
        ("", "", ["--tol", "0.5"], "tol"),
        ("threads = two\n", "", [], "threads"),
        ("", "tau = 0.4\n", [], "gamma_tau"),
    ])
    def test_bad_scenario_values_exit_2(self, tmp_path, capsys, scenario, params, args, field):
        cfg = write_config(tmp_path, f"""
[scenario]
mode = decay-population
out = {tmp_path / "o.csv"}
{scenario}
[params]
epsilon = 0.4
gamma_tau = 0.4
theta0 = 0.0
{params}
[grid.time]
start = 0
stop = 2
points = 10
""")
        assert run_main(["--config", cfg, *args]) == 2
        assert field in capsys.readouterr().err

    def test_unknown_mode(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            mode="nonsense", out=tmp_path / "o.csv", extra_params="",
            grids="[grid.time]\nstart = 0\nstop = 2\npoints = 10\n"))
        assert run_main(["--config", cfg]) == 2


class TestModes:
    def test_decay_population_values(self, tmp_path):
        out = tmp_path / "node.csv"
        cfg = write_config(tmp_path, BASE.format(
            mode="decay-population", out=out, extra_params="",
            grids="[grid.time]\nstart = 0\nstop = 4\npoints = 30\n"))
        assert run_main(["--config", cfg]) == 0
        names, data = read_table(out)
        import halfcavity as hc
        from halfcavity.params import SystemParams
        p = SystemParams(epsilon=0.4, tau=0.4, theta0=0.0)
        expect = hc.series_population(p, data[:, 0])
        assert np.allclose(data[:, names.index("population")], expect, atol=1e-12)
        meta = json.loads(open(str(out) + ".meta.json").read())
        assert meta["params"]["epsilon"] == 0.4

    def test_every_mode_runs(self, tmp_path):
        cases = {
            "decay-population": ("", "[grid.time]\nstart = 0\nstop = 2\npoints = 8\n"),
            "decay-field": ("time = 1.0\n",
                            "[grid.position]\nstart = 0\nstop = 1.5\npoints = 8\n"),
            "decay-spectrum": ("channel = 2\n",
                               "[grid.frequency]\nstart = -5\nstop = 5\npoints = 16\n"),
            "weak-population": ("rabi = 0.05\n",
                                "[grid.time]\nstart = 0\nstop = 2\npoints = 8\n"),
            "weak-g2": ("rabi = 0.05\n",
                        "[grid.delay]\nstart = 0\nstop = 2\npoints = 8\n"),
            "bloch-transient": ("rabi = 1.0\n",
                                "[grid.time]\nstart = 0\nstop = 2\npoints = 8\n"),
            "bloch-steady-sweep": ("rabi = 2.0\nsweep_variable = theta_l\n",
                                   "[grid.sweep]\nstart = 0\nstop = 6.28\npoints = 6\n"),
            "emission-spectrum": ("rabi = 1.0\n",
                                  "[grid.frequency]\nstart = -8\nstop = 8\npoints = 33\n"),
            "flux-check": ("rabi = 1.0\n",
                           "[grid.frequency]\nstart = -25\nstop = 25\npoints = 2001\n"),
        }
        for mode, (extra, grids) in cases.items():
            out = tmp_path / f"{mode}.csv"
            cfg = write_config(tmp_path, BASE.format(
                mode=mode, out=out, extra_params=extra, grids=grids),
                name=f"{mode}.ini")
            assert run_main(["--config", cfg]) == 0, mode
            text = out.read_text()
            assert text.startswith("# mode =")
            assert (tmp_path / f"{mode}.csv.meta.json").exists()

    def test_weak_population_plateau_on_a_multiple_of_tau(self, tmp_path):
        # 0.6/0.2 rounds to 2.9999999999999996; the row still holds plateau 3
        out = tmp_path / "weak.csv"
        cfg = write_config(tmp_path, f"""
[scenario]
mode = weak-population
out = {out}

[params]
epsilon = 0.4
gamma_tau = 0.2
theta0 = 0.0
rabi = 0.05

[grid.time]
start = 0
stop = 1.2
points = 7
""")
        assert run_main(["--config", cfg]) == 0
        names, data = read_table(out)
        from halfcavity import weakdrive
        from halfcavity.params import SystemParams
        p = SystemParams(epsilon=0.4, tau=0.2, theta0=0.0, rabi=0.05)
        row = data[3]
        assert row[0] == pytest.approx(0.6, abs=1e-12)
        assert row[names.index("population_staircase")] == pytest.approx(
            abs(weakdrive.rabi_staircase(p, 3)) ** 2, rel=1e-11)
        assert row[names.index("population_staircase")] != pytest.approx(
            abs(weakdrive.rabi_staircase(p, 2)) ** 2, rel=1e-6)

    def test_bloch_transient_rows_at_requested_times(self, tmp_path):
        # a window that does not start at 0: rows must not snap onto
        # linspace(0, 10, 3) = 0, 5, 10
        out = tmp_path / "transient.csv"
        cfg = write_config(tmp_path, BASE.format(
            mode="bloch-transient", out=out, extra_params="rabi = 1.0\n",
            grids="[grid.time]\nstart = 5\nstop = 10\npoints = 3\n"))
        assert run_main(["--config", cfg]) == 0
        names, data = read_table(out)
        assert data[:, 0].tolist() == [5.0, 7.5, 10.0]
        import halfcavity as hc
        from halfcavity.params import SystemParams
        p = SystemParams(epsilon=0.4, tau=0.4, theta0=0.0, rabi=1.0)
        # linspace(0, 10, 5) holds the requested times as its last three points
        expect = hc.delay_bloch_transient(p, 10.0, n_out=5).pop_e[2:]
        assert np.allclose(data[:, names.index("pop_e")], expect, rtol=1e-12, atol=0.0)

    def test_emission_spectrum_metadata_carries_coherent_weight(self, tmp_path):
        out = tmp_path / "spec.csv"
        cfg = write_config(tmp_path, BASE.format(
            mode="emission-spectrum", out=out, extra_params="rabi = 3.0\n",
            grids="[grid.frequency]\nstart = -12\nstop = 12\npoints = 41\n"))
        assert run_main(["--config", cfg]) == 0
        meta = json.loads((tmp_path / "spec.csv.meta.json").read_text())
        assert meta["coherent_weight"] > 0

    def test_flux_check_row_consistent(self, tmp_path):
        out = tmp_path / "flux.csv"
        cfg = write_config(tmp_path, BASE.format(
            mode="flux-check", out=out, extra_params="rabi = 1.0\nepsilon = 0.1\n",
            grids=""))
        # override epsilon via the second params line; last wins in configparser?
        # configparser rejects duplicate keys, so write a dedicated config
        cfg = write_config(tmp_path, """
[scenario]
mode = flux-check
out = %s

[params]
epsilon = 0.1
gamma_tau = 0.4
theta0 = 0.0
rabi = 1.0
""" % out, name="flux.ini")
        assert run_main(["--config", cfg]) == 0
        names, data = read_table(out)
        row = dict(zip(names, data[0]))
        assert row["relative_error"] < 0.02
        assert row["total"] == pytest.approx(
            row["coherent_weight"] + row["incoherent_integral"])

    @pytest.mark.parametrize("detuning", [0.0, 0.5])
    def test_gamma_tau_sweep_envelopes_only_on_resonance(self, tmp_path, detuning):
        # the strong-drive envelope is a resonant formula: detuned sweeps
        # write NaN in both envelope columns
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, BASE.format(
            mode="bloch-steady-sweep", out=out, extra_params=f"rabi = 2.0\ndelta = {detuning}\n",
            grids="[grid.sweep]\nstart = 0\nstop = 2\npoints = 5\n"))
        assert run_main(["--config", cfg]) == 0
        names, data = read_table(out)
        assert names == ["gamma_tau", "pop_e_node", "pop_e_antinode",
                         "envelope_node", "envelope_antinode"]
        assert np.all(np.isfinite(data[:, :3]))
        envelopes = data[:, 3:]
        assert np.all(np.isnan(envelopes)) if detuning else np.all(np.isfinite(envelopes))

    @pytest.mark.parametrize("sweep, params, grid, named", [
        ("theta_l", "tau = 0.0\ntheta_l = 0.0\n", "start = -2\nstop = 2\npoints = 5\n",
         "theta_l = 0:"),
        ("gamma_tau", "gamma_tau = 0.0\ntheta0 = 0.0\n", "start = 0\nstop = 1\npoints = 3\n",
         "gamma_tau = 0 (node):"),
    ])
    def test_degenerate_sweep_point_exits_3_naming_it(self, tmp_path, capsys,
                                                      sweep, params, grid, named):
        # epsilon = 1 at a node with no delay leaves no decay: the steady state
        # is not isolated there, and only there
        cfg = write_config(tmp_path, f"""
[scenario]
mode = bloch-steady-sweep
out = {tmp_path / "sweep.csv"}

[params]
epsilon = 1.0
rabi = 1.0
sweep_variable = {sweep}
{params}
[grid.sweep]
{grid}""")
        assert run_main(["--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "DegenerateKernelError" in err and named in err

    def test_writer_formats_special_values(self, tmp_path, monkeypatch):
        table = np.array([[np.nan, np.inf, -np.inf],
                          [-0.0, 5e-324, 1e300],
                          [0.1, -2.5, 123456789.0]])
        monkeypatch.setitem(cli._RUNNERS, "decay-population",
                            lambda cfg: (["a", "b", "c"], table))
        monkeypatch.setattr(cli, "_WRITE_ROWS", 2)  # the rows span two blocks
        out = tmp_path / "special.csv"
        cfg = write_config(tmp_path, BASE.format(
            mode="decay-population", out=out, extra_params="",
            grids="[grid.time]\nstart = 0\nstop = 1\npoints = 3\n"))
        assert run_main(["--config", cfg]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "a,b,c"
        assert lines[1:] == [",".join(f"{v:.12e}" for v in row) for row in table]


class TestDeterminismAndOverrides:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        body = BASE.format(mode="decay-population", out=out1, extra_params="",
                           grids="[grid.time]\nstart = 0\nstop = 3\npoints = 40\n")
        cfg = write_config(tmp_path, body)
        assert run_main(["--config", cfg]) == 0
        assert run_main(["--config", cfg, "--out", str(out2)]) == 0
        a = out1.read_text().splitlines()
        b = out2.read_text().splitlines()
        assert a == b

    def test_threads_do_not_change_output(self, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t4.csv"
        body = BASE.format(mode="weak-g2", out=out1, extra_params="rabi = 0.05\n",
                           grids="[grid.delay]\nstart = 0\nstop = 3\npoints = 24\n")
        cfg = write_config(tmp_path, body)
        assert run_main(["--config", cfg]) == 0
        assert run_main(["--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
        assert out1.read_text().splitlines() == out2.read_text().splitlines()

    def test_mode_override(self, tmp_path):
        out = tmp_path / "o.csv"
        body = BASE.format(mode="decay-population", out=out, extra_params="",
                           grids="[grid.time]\nstart = 0\nstop = 2\npoints = 6\n"
                                 "[grid.position]\nstart = 0\nstop = 1.5\npoints = 6\n")
        cfg = write_config(tmp_path, body + "\n")
        # same config serves another mode when overridden
        assert run_main(["--config", cfg, "--mode", "decay-field"]) == 0
        names, _ = read_table(out)
        assert "intensity" in names


def test_numerical_failure_exits_3(tmp_path, capsys):
    # the spectrum machinery rejects zero drive; the CLI maps that to exit 3
    cfg = write_config(tmp_path, """
[scenario]
mode = emission-spectrum
out = %s

[params]
epsilon = 0.1
gamma_tau = 0.5
theta0 = 0.0
rabi = 0.0

[grid.frequency]
start = -5
stop = 5
points = 11
""" % (tmp_path / "n.csv"))
    assert run_main(["--config", cfg]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_console_entry_point_runs(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(BASE.format(mode="decay-population", out=tmp_path / "x.csv",
                               extra_params="",
                               grids="[grid.time]\nstart = 0\nstop = 1\npoints = 5\n"))
    proc = subprocess.run([sys.executable, "-m", "halfcavity.cli",
                           "--config", str(cfg)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
