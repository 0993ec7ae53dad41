"""Command-line front end: scenario configs in, figure-ready tables out.

A scenario is described by an INI-style config (flat key = value pairs,
one section per grid), for example::

    [scenario]
    mode = decay-population
    out = node.csv

    [params]
    epsilon = 0.4
    gamma_tau = 0.4
    theta0 = 0.0

    [grid.time]
    start = 0.0
    stop = 4.0
    points = 400

Every mode maps onto exactly one chain of library calls; no physics lives
in this layer.  Output is a comma-separated table with ``#``-prefixed
metadata lines and a JSON sidecar carrying all parameters, derived
quantities and tolerances.  Identical configs produce byte-identical
tables.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, bloch, dde, decay, spectrum, weakdrive
from .numerics import completed_round_trips
from .params import SystemParams

MODES = (
    "decay-population",
    "decay-field",
    "decay-spectrum",
    "weak-population",
    "weak-g2",
    "bloch-steady-sweep",
    "bloch-transient",
    "emission-spectrum",
    "flux-check",
)

# grids each mode requires (section names without the "grid." prefix)
_REQUIRED_GRIDS = {
    "decay-population": ("time",),
    "decay-field": ("position",),
    "decay-spectrum": ("frequency",),
    "weak-population": ("time",),
    "weak-g2": ("delay",),
    "bloch-steady-sweep": ("sweep",),
    "bloch-transient": ("time",),
    "emission-spectrum": (),
    "flux-check": (),
}


class ConfigError(ValueError):
    """Malformed scenario configuration; message names the offending field."""


@dataclass
class ScenarioConfig:
    mode: str
    params: SystemParams
    grids: dict = field(default_factory=dict)
    out: str = "out.csv"
    tol: float = 1e-10
    extras: dict = field(default_factory=dict)


def _parse_float(section, key, raw):
    try:
        val = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number ({raw!r})") from exc
    if not math.isfinite(val):
        raise ConfigError(f"[{section}] {key}: must be finite")
    return val


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not an integer ({raw!r})") from exc


def _build_grid(name, sec):
    start = _parse_float(f"grid.{name}", "start", sec.get("start", ""))
    stop = _parse_float(f"grid.{name}", "stop", sec.get("stop", ""))
    n = _parse_int(f"grid.{name}", "points", sec.get("points", ""))
    if n < 2:
        raise ConfigError(f"[grid.{name}] points: need at least 2, got {n}")
    if stop <= start:
        raise ConfigError(f"[grid.{name}] stop must exceed start")
    return np.linspace(start, stop, n)


def load_config(path: str, mode_override: str | None = None,
                out_override: str | None = None,
                tol: float | None = None) -> ScenarioConfig:
    """Parse and fully validate a scenario file; ``tol`` overrides the file's."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    if "scenario" not in cp:
        raise ConfigError("missing [scenario] section")
    scen = cp["scenario"]
    mode = mode_override or scen.get("mode", "")
    if mode not in MODES:
        raise ConfigError(f"[scenario] mode: unknown mode {mode!r}; "
                          f"choose from {', '.join(MODES)}")
    if tol is None:
        tol = _parse_float("scenario", "tol", scen.get("tol", "1e-10"))
    lo, hi = dde.TOL_RANGE
    if not lo <= tol <= hi:
        raise ConfigError(f"[scenario] tol: must lie in [{lo:g}, {hi:g}], got {tol:g}")
    if "threads" in scen:  # deprecated no-op, still rejected when malformed
        _parse_int("scenario", "threads", scen["threads"])

    prm = cp["params"] if "params" in cp else {}
    if "tau" in prm and "gamma_tau" in prm:
        raise ConfigError("[params] give either tau or gamma_tau, not both")
    kwargs = {}
    key_map = {
        "gamma": "gamma", "epsilon": "epsilon", "rabi": "rabi",
        "omega0": "rabi", "detuning": "detuning", "delta": "detuning",
    }
    for key, raw in prm.items():
        if key in key_map:
            kwargs[key_map[key]] = _parse_float("params", key, raw)
        elif key in ("tau", "gamma_tau"):
            kwargs["tau"] = _parse_float("params", key, raw)
        elif key in ("theta0", "theta_l", "thetal"):
            kwargs["theta_l" if key != "theta0" else "theta0"] = \
                _parse_float("params", key, raw)
        elif key in ("fringe_cycles", "time", "channel", "include_delayed_source",
                     "normalized", "sweep_variable"):
            continue  # mode extras, handled below
        else:
            raise ConfigError(f"[params] unknown key {key!r}")
    if "gamma_tau" in prm and "gamma" in kwargs and kwargs["gamma"] != 1.0:
        kwargs["tau"] = kwargs["tau"] / kwargs["gamma"]
    try:
        params = SystemParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[params] {exc}") from exc

    grids = {}
    for section in cp.sections():
        if section.startswith("grid."):
            grids[section[5:]] = _build_grid(section[5:], cp[section])
    for need in _REQUIRED_GRIDS[mode]:
        if need not in grids:
            raise ConfigError(f"mode {mode} requires a [grid.{need}] section")

    extras = {}
    if "channel" in prm:
        ch = prm.get("channel")
        if ch not in ("1", "2"):
            raise ConfigError(f"[params] channel: must be 1 or 2, got {ch!r}")
        extras["channel"] = int(ch)
    if "time" in prm:
        extras["time"] = _parse_float("params", "time", prm.get("time"))
    if "fringe_cycles" in prm:
        extras["fringe_cycles"] = int(_parse_float("params", "fringe_cycles",
                                                   prm.get("fringe_cycles")))
    if "include_delayed_source" in prm:
        extras["include_delayed_source"] = prm.get("include_delayed_source") \
            .strip().lower() in ("1", "true", "yes")
    if "sweep_variable" in prm:
        sv = prm.get("sweep_variable")
        if sv not in ("gamma_tau", "theta_l"):
            raise ConfigError("[params] sweep_variable: must be gamma_tau or theta_l")
        extras["sweep_variable"] = sv

    return ScenarioConfig(
        mode=mode, params=params, grids=grids,
        out=out_override or scen.get("out", "out.csv"),
        tol=tol,
        extras=extras,
    )


def derived_report(p: SystemParams) -> dict:
    """Derived parameters and the delay-regime classification."""
    g0t = p.triplet_width * p.tau
    if g0t < 0.05:
        regime = "markov"
    elif g0t <= 1.0:
        regime = "intermediate"
    else:
        regime = "large-delay"
    return {
        "gamma_tilde": p.gamma_tilde,
        "gamma_tilde_l": p.gamma_tilde_l,
        "delta_tilde": p.delta_tilde,
        "generalized_rabi": p.generalized_rabi,
        "triplet_width_x_tau": g0t,
        "delay_regime": regime,
    }


def validate(path: str) -> list[str]:
    """Validate a config without computing; returns human-readable lines."""
    cfg = load_config(path)
    lines = [f"ok: mode {cfg.mode}"]
    for key, val in derived_report(cfg.params).items():
        lines.append(f"{key} = {val}")
    return lines


# ---------------------------------------------------------------------------
# mode runners
# ---------------------------------------------------------------------------

def _run_decay_population(cfg):
    p = cfg.params
    ts = cfg.grids["time"]
    pop = decay.series_population(p, ts)
    free = np.exp(-p.gamma * ts)
    markov = np.array([decay.markov_population(p, t) for t in ts])
    return ["time", "population", "population_markov", "population_free"], \
        np.column_stack([ts, pop, markov, free])


def _run_decay_field(cfg):
    p = cfg.params
    zs = cfg.grids["position"]
    t = cfg.extras.get("time", 1.0)
    cyc = cfg.extras.get("fringe_cycles", 6)
    inten = decay.field_intensity(p, zs, t, fringe_cycles=cyc)
    return ["position", "intensity"], np.column_stack([zs, inten])


def _run_decay_spectrum(cfg):
    p = cfg.params
    grid = cfg.grids["frequency"]
    channel = cfg.extras.get("channel", 2)
    if "time" in cfg.extras:
        spec = decay.transient_spectrum(p, cfg.extras["time"], channel, grid)
    else:
        spec = decay.steady_spectrum(p, channel, grid)
    return ["delta_omega", "density"], np.column_stack([grid, spec.density])


def _run_weak_population(cfg):
    p = cfg.params
    ts = cfg.grids["time"]
    pop = np.abs(np.array([weakdrive.perturbative_amplitude(p, t) for t in ts])) ** 2
    plateau = np.empty_like(ts)
    for i, t in enumerate(ts):
        om = weakdrive.rabi_staircase(p, completed_round_trips(t, p.tau))
        plateau[i] = abs(om) ** 2 / (p.gamma ** 2 + 4.0 * p.detuning ** 2)
    return ["time", "population", "population_staircase"], \
        np.column_stack([ts, pop, plateau])


def _run_weak_g2(cfg):
    p = cfg.params
    ts = cfg.grids["delay"]
    g1 = weakdrive.g2_channel1(p, ts)
    g2 = weakdrive.g2_channel2(p, ts)
    return ["delay", "g2_channel1", "g2_channel2"], \
        np.column_stack([ts, g1.values, g2.values])


def _steady_pop_e(params, label):
    """Steady excited populations of a list of parameter sets, in one call.

    A numerical failure is re-raised with ``label(row)``, the sweep point
    of the failing row, in front of its message.
    """
    try:
        states = bloch.delay_bloch_steady_states(params)
    except ValueError as exc:
        index = getattr(exc, "index", None)
        if index is None:
            raise
        raise type(exc)(f"{label(index[0])}: {exc}") from exc
    return states[:, 2].real


def _run_bloch_steady_sweep(cfg):
    p = cfg.params
    grid = cfg.grids["sweep"]
    n = len(grid)
    var = cfg.extras.get("sweep_variable", "gamma_tau")
    if var == "gamma_tau":
        node, anti = ([SystemParams(p.epsilon, gt / p.gamma, theta0=th0, rabi=p.rabi,
                                    detuning=p.detuning, gamma=p.gamma) for gt in grid]
                      for th0 in (0.0, math.pi))
        pops = _steady_pop_e(node + anti, lambda i: (
            f"gamma_tau = {grid[i % n]:.12g} ({'node' if i < n else 'antinode'})"))
        if p.detuning == 0.0:
            env = [[bloch.strong_drive_envelope(q, theta0=0.0) for q in node],
                   [bloch.strong_drive_envelope(q, theta0=math.pi) for q in anti]]
        else:
            env = np.full((2, n), math.nan)
        header = ["gamma_tau", "pop_e_node", "pop_e_antinode",
                  "envelope_node", "envelope_antinode"]
        return header, np.column_stack([grid, pops[:n], pops[n:], *env])
    qs = [SystemParams(p.epsilon, p.tau, theta_l=th, rabi=p.rabi, detuning=p.detuning,
                       gamma=p.gamma) for th in grid]
    header = ["theta_l", "pop_e_delay", "pop_e_markov", "pop_e_expansion"]
    return header, np.column_stack([
        grid, _steady_pop_e(qs, lambda i: f"theta_l = {grid[i]:.12g}"),
        [bloch.markov_bloch_steady(q).pop_e.real for q in qs],
        [bloch.epsilon_expansion_population(q) for q in qs]])


def _run_bloch_transient(cfg):
    p = cfg.params
    ts = cfg.grids["time"]
    traj = bloch.delay_bloch_transient(p, float(ts[-1]), tol=cfg.tol, times=ts)
    return ["time", "pop_e", "re_s_minus", "im_s_minus"], np.column_stack([
        traj.times, traj.pop_e, traj.s_minus.real, traj.s_minus.imag])


def _run_emission_spectrum(cfg):
    p = cfg.params
    grid = cfg.grids.get("frequency")
    inc = cfg.extras.get("include_delayed_source", True)
    spec = spectrum.incoherent_spectrum(p, grid, include_delayed_source=inc)
    return ["delta_omega", "incoherent_density"], \
        np.column_stack([spec.delta_grid, spec.incoherent]), \
        {"coherent_weight": spec.coherent_weight}


def _run_flux_check(cfg):
    p = cfg.params
    spec = spectrum.incoherent_spectrum(
        p, cfg.grids.get("frequency"),
        include_delayed_source=cfg.extras.get("include_delayed_source", True))
    inc = spec.total_flux() - spec.coherent_weight
    pop = spec.steady[2].real
    total = inc + spec.coherent_weight
    rel = abs(total - pop) / pop if pop else math.inf
    return ["coherent_weight", "incoherent_integral", "total", "steady_pop_e",
            "relative_error"], \
        np.array([[spec.coherent_weight, inc, total, pop, rel]])


# rows formatted per write in run()
_WRITE_ROWS = 4096

_RUNNERS = {
    "decay-population": _run_decay_population,
    "decay-field": _run_decay_field,
    "decay-spectrum": _run_decay_spectrum,
    "weak-population": _run_weak_population,
    "weak-g2": _run_weak_g2,
    "bloch-steady-sweep": _run_bloch_steady_sweep,
    "bloch-transient": _run_bloch_transient,
    "emission-spectrum": _run_emission_spectrum,
    "flux-check": _run_flux_check,
}


def run(cfg: ScenarioConfig) -> dict:
    """Execute one scenario; writes the table and sidecar, returns a summary."""
    result = _RUNNERS[cfg.mode](cfg)
    header, table = result[0], result[1]
    extra_meta = result[2] if len(result) > 2 else {}

    p = cfg.params
    meta = {
        "mode": cfg.mode,
        "library_version": __version__,
        "convention": "gamma = 1 units; times in 1/gamma; frequencies as detunings",
        "tolerance": cfg.tol,
        "params": {
            "gamma": p.gamma, "epsilon": p.epsilon, "tau": p.tau,
            "theta0": p.theta0, "theta_l": p.theta_l,
            "rabi": p.rabi, "detuning": p.detuning,
        },
        "derived": derived_report(p),
        **extra_meta,
    }
    lines = [f"# {k} = {json.dumps(v, sort_keys=True)}" for k, v in meta.items()]
    lines.append(",".join(header))
    # one %-format per block of rows: formatting value by value costs several
    # times more on large tables, and the blocks bound the memory it holds
    row = ",".join(["%.12e"] * table.shape[1]) + "\n"
    with open(cfg.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        for i in range(0, len(table), _WRITE_ROWS):
            block = table[i:i + _WRITE_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
    with open(cfg.out + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"out": cfg.out, "rows": len(table), "mode": cfg.mode}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="halfcavity",
        description="Atom-in-front-of-a-mirror simulations: decay, fluorescence, spectra.")
    ap.add_argument("--config", required=True, help="scenario config file")
    ap.add_argument("--mode", choices=MODES, help="override the config's mode")
    ap.add_argument("--out", help="override the output path")
    ap.add_argument("--validate-only", action="store_true",
                    help="check the config and report derived parameters")
    ap.add_argument("--threads", type=int, help="deprecated and ignored")
    ap.add_argument("--tol", type=float, help="integrator tolerance, in [1e-14, 1e-4]")
    args = ap.parse_args(argv)

    try:
        if args.validate_only:
            for line in validate(args.config):
                print(line)
            return 0
        cfg = load_config(args.config, args.mode, args.out, args.tol)
        summary = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, ArithmeticError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {summary['out']} ({summary['rows']} rows, mode {summary['mode']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
