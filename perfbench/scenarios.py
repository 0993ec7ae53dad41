"""Workloads of the halfcavity benchmark and the scenario files they generate.

Each workload is a fixed list of four scenarios.  A scenario fixes every
quantity that sets its cost (CLI mode, grid points, t/tau, the drive regime,
the mode count of the oracle) and draws only the feedback strength epsilon
and an interference phase from stated ranges, so that every seed costs the
same work but feeds the program different inputs.  The program sees only
the INI files written here.

Scenario ``k`` of a workload (1-based) reports its wall time as the
end-to-end metric ``scenario<k>_s``; the slot names are shared by all
workloads because every workload must print every end-to-end metric.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi

# Seed whose outputs are compared against the committed reference tables.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Scenario:
    """One scenario file: a CLI mode (or the oracle library call) at a fixed size.

    ``fixed`` holds INI ``[params]`` values that set the cost; ``drawn`` maps
    a parameter to the (low, high) range the seed draws it from; ``grids``
    maps a grid name to (start, stop, points) at full size and ``tiny`` to
    the point count, or the whole (start, stop, points), of the smoke-test
    size.
    """

    name: str
    mode: str
    fixed: dict
    drawn: dict
    grids: dict
    tiny: dict
    oracle: dict = field(default_factory=dict)

    @property
    def cli_mode(self) -> str:
        # the oracle reads its parameters and output times from a
        # decay-population file; it is not a CLI mode of its own
        return "decay-population" if self.mode == "oracle" else self.mode


WORKLOADS = {
    # scalar round-trip series: kummer_minus_exp and poisson_weight once per
    # term and time, no DDE, no linear solve, little writing
    "series": (
        Scenario("weak-g2", "weak-g2",
                 fixed={"gamma_tau": 2.0, "rabi": 0.05},
                 drawn={"epsilon": (0.3, 0.5), "theta_l": (0.0, TWO_PI)},
                 # delay step tau/5, so T + tau and |T - tau| are grid points
                 grids={"delay": (0.0, 40.0, 101)}, tiny={"delay": 21}),
        Scenario("weak-population", "weak-population",
                 fixed={"gamma_tau": 1.8, "rabi": 0.05},
                 drawn={"epsilon": (0.3, 0.5), "theta_l": (0.0, TWO_PI)},
                 # multiples of tau on grid points, some of which divide to
                 # just below an integer in floating point (known defect 5d)
                 grids={"time": (0.0, 36.0, 301)}, tiny={"time": 61}),
        Scenario("decay-population", "decay-population",
                 fixed={"gamma_tau": 0.5},
                 drawn={"epsilon": (0.3, 0.5), "theta0": (0.0, TWO_PI)},
                 grids={"time": (0.0, 10.0, 16001)}, tiny={"time": 201}),
        Scenario("decay-field", "decay-field",
                 fixed={"gamma_tau": 0.5, "time": 10.0},
                 drawn={"epsilon": (0.3, 0.5), "theta0": (0.0, TWO_PI)},
                 grids={"position": (0.0, 3.0, 6001)}, tiny={"position": 101}),
    ),
    # small dense linear algebra per grid point: one guarded solve per
    # frequency, block exponentials at the critical point, an expm and a
    # null eigenvector per sweep point; the series is never called
    "stationary": (
        Scenario("emission-spectrum", "emission-spectrum",
                 fixed={"gamma_tau": 0.1, "rabi": 15.7079632679},
                 drawn={"epsilon": (0.15, 0.25), "theta_l": (0.0, TWO_PI)},
                 grids={"frequency": (-60.0, 60.0, 9601)}, tiny={"frequency": 241}),
        Scenario("emission-spectrum-critical", "emission-spectrum",
                 # rabi = gamma/4: defective eigenbasis, van Loan fallback
                 fixed={"gamma_tau": 1.0, "rabi": 0.25},
                 drawn={"epsilon": (0.15, 0.25), "theta_l": (0.0, TWO_PI)},
                 grids={"frequency": (-10.0, 10.0, 1501)}, tiny={"frequency": 101}),
        Scenario("flux-check", "flux-check",
                 # the default spectrum grid: 11601 points at these values
                 fixed={"gamma_tau": 8.0, "rabi": 3.0},
                 drawn={"epsilon": (0.05, 0.15), "theta_l": (0.0, TWO_PI)},
                 grids={}, tiny={}),
        Scenario("bloch-steady-sweep", "bloch-steady-sweep",
                 fixed={"gamma_tau": 1.0, "rabi": 5.0, "theta0": 0.0,
                        "sweep_variable": "gamma_tau"},
                 drawn={"epsilon": (0.1, 0.3)},
                 grids={"sweep": (0.01, 4.0, 1001)}, tiny={"sweep": 101}),
    ),
    # the delay integrator restarting at every multiple of tau, large-array
    # kernel calls, a writer-bound table and the plain ODE stepper
    "transient": (
        Scenario("bloch-transient", "bloch-transient",
                 # 1020 round trips; the window starts inside the transient
                 # but not at 0 (known defect 5a)
                 fixed={"gamma_tau": 0.05, "rabi": 2.0},
                 drawn={"epsilon": (0.15, 0.25), "theta_l": (0.0, TWO_PI)},
                 grids={"time": (3.0, 51.0, 241)}, tiny={"time": (1.0, 6.0, 21)}),
        Scenario("decay-spectrum", "decay-spectrum",
                 # epsilon >= 0.55 keeps the series from truncating before
                 # n = t/tau, so the term count does not depend on the seed
                 fixed={"gamma_tau": 0.4, "time": 20.0, "channel": 2},
                 drawn={"epsilon": (0.55, 0.7), "theta0": (0.0, TWO_PI)},
                 grids={"frequency": (-50.0, 50.0, 20001)}, tiny={"frequency": 401}),
        Scenario("decay-spectrum-steady", "decay-spectrum",
                 fixed={"gamma_tau": 0.4, "channel": 2},
                 drawn={"epsilon": (0.3, 0.5), "theta0": (0.0, TWO_PI)},
                 grids={"frequency": (-50.0, 50.0, 200001)}, tiny={"frequency": 2001}),
        Scenario("oracle", "oracle",
                 fixed={"gamma_tau": 0.4},
                 drawn={"epsilon": (0.3, 0.5), "theta0": (0.0, TWO_PI)},
                 grids={"time": (0.0, 10.0, 201)}, tiny={"time": 21},
                 oracle={"n_modes": 2000, "bandwidth": 50.0, "tiny_n_modes": 200}),
    ),
}

SCALES = ("full", "tiny")


def grid_spec(scn: Scenario, name: str, scale: str) -> tuple:
    start, stop, points = scn.grids[name]
    if scale != "tiny":
        return start, stop, points
    tiny = scn.tiny[name]
    return tiny if isinstance(tiny, tuple) else (start, stop, tiny)


def oracle_modes(scn: Scenario, scale: str) -> int:
    return scn.oracle["tiny_n_modes" if scale == "tiny" else "n_modes"]


def draw_params(scn: Scenario, seed: int) -> dict:
    """The scenario's [params] values for one seed (fixed and drawn)."""
    # one stream per (seed, scenario), so scenarios do not shift each other
    rng = random.Random(f"{seed}:{scn.name}")
    params = dict(scn.fixed)
    for key in sorted(scn.drawn):
        lo, hi = scn.drawn[key]
        params[key] = lo + (hi - lo) * rng.random()
    return params


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def scenario_ini(scn: Scenario, seed: int, scale: str) -> str:
    """Text of the INI file for one scenario and seed."""
    lines = ["[scenario]", f"mode = {scn.cli_mode}", f"out = {scn.name}.csv", "",
             "[params]"]
    lines += [f"{k} = {_fmt(v)}" for k, v in draw_params(scn, seed).items()]
    for grid in scn.grids:
        start, stop, points = grid_spec(scn, grid, scale)
        lines += ["", f"[grid.{grid}]", f"start = {_fmt(start)}",
                  f"stop = {_fmt(stop)}", f"points = {points}"]
    return "\n".join(lines) + "\n"
