"""Output checks of the halfcavity benchmark.

Every seed: the scenario exited 0, wrote exactly the requested rows, every
value is finite, and every pass wrote the same bytes.  At the default seed
the table is also compared with the committed reference table by maximum
absolute and relative deviation (a float-formatting change must not fail
it, so no hash).

Two known defects sit in these scenarios.  Their columns are compared with
the correct definition, and a row that differs is reported as the known
defect only when it holds exactly what the defect produces; any other
difference is a failure.  A fixed defect then simply stops being reported.

* 5a: ``bloch-transient`` integrates on ``linspace(0, stop, points)`` and
  snaps every requested time onto that grid, so a window that does not
  start at 0 gets rows at the wrong times.  Such a row is compared with the
  correct solution at the time it holds, so every row is checked.
* 5d: the ``weak-population`` staircase picks its plateau with
  ``int(t/tau)`` while the series uses ``floor(t/tau + 1e-12)``; at grid
  times that divide to just below a multiple of tau they differ.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from scenarios import DEFAULT_SEED, Scenario, draw_params, grid_spec

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# reference tolerance |out - ref| <= rtol*|ref| + atol*max|ref column|
TOLERANCE = {"default": (1e-8, 1e-10), "bloch-transient": (1e-7, 1e-9),
             "oracle": (1e-6, 1e-8)}
REFERENCE_ROWS = 257


@dataclass
class CheckResult:
    scenario: str
    problems: list = field(default_factory=list)
    defects: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def read_table(path: str) -> tuple[list[str], np.ndarray]:
    """Column names and data of a CLI table (``#`` lines are metadata)."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    names = lines[0].split(",")
    body = " ".join(lines[1:]).replace(",", " ")
    data = np.array(body.split(), dtype=float).reshape(len(lines) - 1, len(names))
    return names, data


def expected_rows(scn: Scenario, scale: str) -> int:
    return grid_spec(scn, next(iter(scn.grids)), scale)[2] if scn.grids else 1


def requested_grid(scn: Scenario, scale: str) -> np.ndarray:
    start, stop, points = grid_spec(scn, next(iter(scn.grids)), scale)
    return np.linspace(start, stop, points)


def staircase_reference(scn: Scenario, seed: int, times: np.ndarray,
                        plateau_index=lambda x: math.floor(x + 1e-12)) -> np.ndarray:
    """Weak-drive plateau |R_n|^2/gamma^2 with n = plateau_index(t/tau).

    R_n = rabi * sum_{k<=n} q^k with q = epsilon*e^{i theta_l}: the
    staircase recurrence at zero detuning and gamma = 1.  The default index
    floor(t/tau + 1e-12) is the one the round-trip series uses.
    """
    prm = draw_params(scn, seed)
    tau, rabi = prm["gamma_tau"], prm["rabi"]
    q = prm["epsilon"] * complex(math.cos(prm["theta_l"]), math.sin(prm["theta_l"]))
    out = np.empty_like(times)
    for i, t in enumerate(times):
        n = plateau_index(t / tau)
        out[i] = abs(rabi * sum(q ** k for k in range(n + 1))) ** 2
    return out


def _close(out, ref, rtol, atol_scale):
    atol = atol_scale * max(float(np.max(np.abs(ref))), 1e-300)
    return np.abs(out - ref) <= rtol * np.abs(ref) + atol


def _known_defects(scn, seed, scale, data, result):
    """Record the rows a known defect explains.

    Returns, per row, the index into the program's own grid of a row the
    snapping defect moved there, or -1 for a row at its requested time.
    """
    own_row = np.full(len(data), -1)
    if scn.name == "weak-population":
        times = requested_grid(scn, scale)
        correct = staircase_reference(scn, seed, times)
        defective = staircase_reference(scn, seed, times, int)
        off = ~_close(data[:, 2], correct, 1e-12, 1e-15)
        explained = (defective != correct) & _close(data[:, 2], defective, 1e-12, 1e-15)
        if np.any(off & ~explained):
            result.problems.append(
                f"staircase column differs from the plateau definition on "
                f"{int(np.sum(off & ~explained))} rows the int(t/tau) defect does not explain")
        if np.any(off):
            result.defects.append(
                f"5d weak-population: staircase plateau taken from int(t/tau) on "
                f"{int(np.sum(off))} of {len(data)} rows (t/tau just below an integer)")
    if scn.name == "bloch-transient":
        times = requested_grid(scn, scale)
        snapped = ~_close(data[:, 0], times, 1e-12, 0.0)
        # the defect writes the first point of linspace(0, stop, points) at
        # or after each requested time
        own = np.linspace(0.0, times[-1], len(times))
        landed = np.clip(np.searchsorted(own, times), 0, len(own) - 1)
        if np.any(snapped & ~_close(data[:, 0], own[landed], 1e-12, 0.0)):
            result.problems.append("rows written at times the snapping defect does not explain")
        if np.any(snapped):
            result.defects.append(
                f"5a bloch-transient: {int(np.sum(snapped))} of {len(data)} rows written "
                f"at a time other than the requested one (max shift "
                f"{float(np.max(np.abs(data[:, 0] - times))):.4g})")
        own_row[snapped] = landed[snapped]
    return own_row


def reference_path(scale: str, name: str) -> str:
    return os.path.join(REFERENCE_DIR, scale, f"{name}.json")


def reference_rows(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(n, REFERENCE_ROWS)).round().astype(int))


def check_output(scn: Scenario, seed: int, scale: str, names: list, data: np.ndarray,
                 digests: set) -> CheckResult:
    """Check one scenario's table (the last pass's) and the digests of every pass."""
    result = CheckResult(scn.name)
    rows = expected_rows(scn, scale)
    if data.shape[0] != rows:
        result.problems.append(f"{data.shape[0]} rows written, {rows} requested")
        return result
    if not np.all(np.isfinite(data)):
        result.problems.append(f"{int(np.sum(~np.isfinite(data)))} non-finite values")
    if len(digests) != 1:
        result.problems.append(f"passes wrote {len(digests)} different outputs")
    own_row = _known_defects(scn, seed, scale, data, result)
    if seed != DEFAULT_SEED:
        return result

    path = reference_path(scale, scn.name)
    if not os.path.exists(path):
        result.problems.append(f"no reference table at {os.path.relpath(path)}")
        return result
    with open(path) as fh:
        ref = json.load(fh)
    if ref["columns"] != names:
        result.problems.append(f"columns {names} differ from reference {ref['columns']}")
        return result
    idx = np.asarray(ref["index"], dtype=int)
    ref_vals = np.asarray(ref["values"], dtype=float)
    out_vals = data[idx]
    moved = own_row[idx] >= 0
    if np.any(moved):
        # a row the snapping defect moved holds the solution at an own-grid time
        ref_vals[moved] = np.asarray(ref["own_grid_values"], dtype=float)[own_row[idx][moved]]
    rtol, atol_scale = TOLERANCE.get(scn.name, TOLERANCE["default"])
    worst_abs, worst_rel, bad = 0.0, 0.0, []
    for j, col in enumerate(names):
        if scn.name == "weak-population" and col == "population_staircase":
            continue  # checked against its definition on every row above
        o, r = out_vals[:, j], ref_vals[:, j]
        dev = np.abs(o - r)
        worst_abs = max(worst_abs, float(np.max(dev, initial=0.0)))
        nz = np.abs(r) > 0
        worst_rel = max(worst_rel, float(np.max(dev[nz] / np.abs(r[nz]), initial=0.0)))
        if not np.all(_close(o, r, rtol, atol_scale)):
            bad.append(col)
    result.notes.append(f"reference max_abs={worst_abs:.3e} max_rel={worst_rel:.3e} "
                        f"over {len(idx)} rows")
    if bad:
        result.problems.append(f"columns {bad} deviate from the reference table "
                               f"beyond rtol={rtol:g}, atol={atol_scale:g}*max")
    return result
