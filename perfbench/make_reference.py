"""Regenerate the default-seed reference tables under ``perfbench/reference``.

    python3 perfbench/make_reference.py

Each table keeps at most ``checks.REFERENCE_ROWS`` rows, evenly spaced.
Columns hit by a known defect hold the correct definition, not the current
output: the ``weak-population`` staircase uses floor(t/tau + 1e-12), and
``bloch-transient`` rows are the delayed Bloch solution at the requested
times.  ``bloch-transient`` also keeps the solution on the program's own grid
``linspace(0, stop, points)``, against which the rows the snapping defect
moves are checked.  Run it only when an output change is intended, and say
so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from run import Workload  # noqa: E402
from scenarios import DEFAULT_SEED, SCALES, WORKLOADS  # noqa: E402


def bloch_transient_reference(cli_mod, ini, times):
    """Delayed Bloch transient at the requested times and on the program's own grid.

    One call of ``bloch.delay_bloch_transient`` on the coarsest uniform grid
    over [0, stop] that holds both sets of times.
    """
    from halfcavity import bloch

    cfg = cli_mod.load_config(ini)
    stop = float(times[-1])
    wanted = np.concatenate([times, np.linspace(0.0, stop, len(times))])
    for n_out in range(len(times), 1000 * len(times)):
        pos = wanted / stop * (n_out - 1)
        if np.allclose(pos, np.rint(pos), rtol=0.0, atol=1e-6):
            break
    else:
        raise SystemExit("no uniform grid holds the requested times")
    traj = bloch.delay_bloch_transient(cfg.params, stop, n_out=n_out, tol=cfg.tol)
    pos = np.rint(pos).astype(int)
    table = np.column_stack([traj.times, traj.pop_e, traj.s_minus.real, traj.s_minus.imag])
    requested, own = table[pos[:len(times)]], table[pos[len(times):]]
    requested[:, 0] = times
    return requested, own


def _rows_json(values):
    return "[\n" + ",\n".join(json.dumps(row) for row in values.tolist()) + "\n]"


def main():
    for scale in SCALES:
        os.makedirs(os.path.join(checks.REFERENCE_DIR, scale), exist_ok=True)
        for workload in WORKLOADS:
            workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
            try:
                wl = Workload(workload, DEFAULT_SEED, scale, workdir)
                wl.run_pass()
                for k, scn in enumerate(wl.scenarios):
                    if wl.errors[k]:
                        raise SystemExit(f"{scn.name} failed: {wl.errors[k][0]}")
                    names, data = wl.table(k)
                    times = checks.requested_grid(scn, scale) if scn.grids else None
                    extra = {}
                    if scn.name == "weak-population":
                        data[:, 2] = checks.staircase_reference(scn, DEFAULT_SEED, times)
                    if scn.name == "bloch-transient":
                        data, own = bloch_transient_reference(wl.cli, wl.inis[k], times)
                        extra["own_grid_values"] = own
                    idx = checks.reference_rows(len(data))
                    extra["values"] = data[idx]
                    head = {"scenario": scn.name, "seed": DEFAULT_SEED, "scale": scale,
                            "rows": len(data), "columns": names, "index": idx.tolist()}
                    body = "".join(f', "{key}": {_rows_json(val)}' for key, val in extra.items())
                    with open(checks.reference_path(scale, scn.name), "w") as fh:
                        fh.write(json.dumps(head)[:-1] + body + "}\n")
                    print(f"wrote {checks.reference_path(scale, scn.name)}")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
