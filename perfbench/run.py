"""halfcavity benchmark: one workload, end-to-end or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload series --seed 3 --seconds 25 --trace 0

The run generates the workload's INI scenario files from the seed, runs one
warm-up pass, then repeats passes over the scenarios until ``--seconds`` of
passes have been measured.  Untraced runs also time a fresh interpreter
importing halfcavity and loading the files (``setup_s``) after each pass.
Each CLI scenario goes in-process through ``halfcavity.cli.main`` and writes
its table and sidecar into a temporary directory inside the checkout; the
oracle scenario is a library call.  The outputs of the last pass and the
digests of every pass are checked (see ``checks.py``) and the last line
printed is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
half of the time runs untraced and half with every public halfcavity
function wrapped (see ``tracer.py``); the metrics are the per-layer ones and
the trace overhead is printed.  Timings come from one process and one
thread: BLAS threads are pinned to 1 before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from scenarios import SCALES, WORKLOADS, oracle_modes, scenario_ini  # noqa: E402
from tracer import Tracer  # noqa: E402

# imports halfcavity from the checkout and loads every config, in a fresh
# interpreter; prints the elapsed seconds
SETUP_CHILD = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import halfcavity
from halfcavity import cli
for path in sys.argv[2:]:
    cli.load_config(path)
elapsed = perf_counter() - t0
if not halfcavity.__file__.startswith(sys.argv[1]):
    sys.exit("imported halfcavity from " + halfcavity.__file__)
print(repr(elapsed))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, setup failed)."""


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def provenance() -> dict:
    """Machine, interpreter, numpy, source revision and BLAS thread setting."""
    sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    sha = fh.read().strip()
        else:
            sha = ref
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "halfcavity")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Workload:
    """The scenario files of one workload and the passes run over them."""

    def __init__(self, name, seed, scale, workdir):
        import halfcavity
        from halfcavity import cli, decay

        if not os.path.abspath(halfcavity.__file__).startswith(SRC + os.sep):
            raise BenchError(f"imported halfcavity from {halfcavity.__file__}, not {SRC}")
        self.cli, self.decay = cli, decay
        self.name, self.seed, self.scale = name, seed, scale
        self.scenarios = WORKLOADS[name]
        self.inis, self.outs = [], []
        for scn in self.scenarios:
            ini = os.path.join(workdir, f"{scn.name}.ini")
            with open(ini, "w") as fh:
                fh.write(scenario_ini(scn, seed, scale))
            self.inis.append(ini)
            self.outs.append(os.path.join(workdir, f"{scn.name}.csv"))
        self.digests = [set() for _ in self.scenarios]
        self.errors = [[] for _ in self.scenarios]
        self.oracle_tables = {}
        self.attempted = 0

    def setup_time(self):
        """Seconds a fresh interpreter takes to import halfcavity and load the configs."""
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC, *self.inis],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"setup failed: {proc.stderr.strip()[-400:]}")
        return float(proc.stdout.strip().splitlines()[-1])

    def _execute(self, k, scn):
        """Run one scenario; raises if it fails.  The oracle returns its result."""
        if scn.mode == "oracle":
            cfg = self.cli.load_config(self.inis[k])
            ts = cfg.grids["time"]
            return self.decay.discrete_mode_oracle(
                cfg.params, n_modes=oracle_modes(scn, self.scale),
                bandwidth=scn.oracle["bandwidth"], t_end=float(ts[-1]), n_out=len(ts))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = self.cli.main(["--config", self.inis[k], "--out", self.outs[k]])
        if rc != 0:
            raise RuntimeError(err.getvalue().strip() or f"exit code {rc}")
        return None

    def _digest(self, k, result):
        if result is None:
            return file_digest(self.outs[k], self.outs[k] + ".meta.json")
        table = np.column_stack([result.times, np.abs(result.amplitude) ** 2,
                                 result.amplitude.real, result.amplitude.imag])
        self.oracle_tables[k] = table
        return hashlib.sha256(table.tobytes()).hexdigest()

    def run_pass(self):
        """One pass over the scenarios; returns each scenario's wall time."""
        times = []
        for k, scn in enumerate(self.scenarios):
            gc.collect()
            self.attempted += 1
            t0 = perf_counter()
            try:
                result = self._execute(k, scn)
            except Exception as exc:  # a failed run is counted, not fatal
                times.append(perf_counter() - t0)
                self.errors[k].append(f"{type(exc).__name__}: {exc}")
            else:
                times.append(perf_counter() - t0)
                self.digests[k].add(self._digest(k, result))
        return times

    def table(self, k):
        if self.scenarios[k].mode == "oracle":
            return ["time", "population", "re_amplitude", "im_amplitude"], self.oracle_tables[k]
        return checks.read_table(self.outs[k])

    def check(self):
        results = []
        for k, scn in enumerate(self.scenarios):
            if self.errors[k]:
                res = checks.CheckResult(scn.name)
                res.problems.append(f"{len(self.errors[k])} runs failed: {self.errors[k][0]}")
            else:
                names, data = self.table(k)
                res = checks.check_output(scn, self.seed, self.scale, names, data,
                                          self.digests[k])
            results.append(res)
        return results


def timed_passes(wl, budget, setup=None):
    """Passes until the next one would overrun the budget (at least one).

    Given a ``setup`` list, one set-up interpreter is timed after each pass
    and appended to it, so that set-up is sampled across the whole run, as
    the passes are, rather than in one burst the machine's speed may not
    represent.
    """
    passes, spent = [], 0.0
    while not passes or spent + sum(passes[-1]) <= budget:
        passes.append(wl.run_pass())
        spent += sum(passes[-1])
        if setup is not None:
            setup.append(wl.setup_time())
    return passes


def traced_passes(wl, budget):
    """Passes with every layer traced; per-layer values of each pass."""
    per_pass, problems = [], []
    tracer = Tracer()
    with tracer:
        t_start = perf_counter()
        times = []
        while not times or perf_counter() - t_start + sum(times[-1]) <= budget:
            tracer.reset()
            times.append(wl.run_pass())
            values = {name: tracer.value(name) for name, _, _ in layers.PER_LAYER}
            calls = {name: st.calls for name, st in tracer.stats.items()}
            per_pass.append(values)
            problems = layers.self_check(wl.name, calls, values, tracer.missing)
    return times, per_pass, problems


def fmt_stat(values):
    q1, med, q3 = quartiles(values)
    if all(isinstance(v, int) for v in values) and float(med).is_integer():
        med = int(med)                    # work counts stay whole numbers
    return med, f"(n={len(values)}, q1={q1:.6g}, q3={q3:.6g})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="'tiny' shrinks every grid for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "halfcavity", "cli.py")):
        print(f"error: no halfcavity sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        return _run(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    wl = Workload(args.workload, args.seed, args.scale, workdir)
    print(f"# halfcavity benchmark: workload={wl.name} seed={wl.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={wl.scale}")
    print(f"# provenance {json.dumps(provenance(), sort_keys=True)}")
    wl.run_pass()                                  # warm-up
    setup = None
    if not args.trace:
        wl.setup_time()                            # warms the file cache; not counted
        setup = []
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = timed_passes(wl, budget, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        traced_times, per_pass, self_problems = traced_passes(wl, budget)

    results = wl.check()
    # every pass wrote the same bytes unless a check says otherwise, so an
    # output that fails its check fails on every run of that scenario
    runs_each = wl.attempted // len(wl.scenarios)
    failed = sum(len(err) if err else (0 if res.ok else runs_each)
                 for err, res in zip(wl.errors, results))
    correct = all(r.ok for r in results)

    pass_s = [sum(p) for p in passes]
    metrics = {}
    if not args.trace:
        med, desc = fmt_stat(setup)
        metrics["setup_s"] = {"value": med, "unit": "s"}
        print(f"metric setup_s = {med:.6g} s {desc}")
        med, desc = fmt_stat(pass_s)
        metrics["pass_s"] = {"value": med, "unit": "s"}
        print(f"metric pass_s = {med:.6g} s {desc}")
        for k, scn in enumerate(wl.scenarios):
            med, desc = fmt_stat([p[k] for p in passes])
            metrics[f"scenario{k + 1}_s"] = {"value": med, "unit": "s"}
            print(f"metric scenario{k + 1}_s = {med:.6g} s [{scn.name}_s] {desc}")
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        print(f"metric peak_rss_mb = {peak_rss_mb:.6g} MB (n=1)")
    else:
        for name, unit, _ in layers.PER_LAYER:
            vals = [v[name] for v in per_pass]
            med, desc = fmt_stat(vals)
            metrics[name] = {"value": med, "unit": unit}
            print(f"layer {name} = {med:.6g} {unit} {desc}")
        traced_pass = statistics.median(sum(p) for p in traced_times)
        print(f"trace_overhead = {traced_pass / statistics.median(pass_s):.4g} "
              f"(traced pass_s {traced_pass:.6g} s over untraced {statistics.median(pass_s):.6g} s)")
        if self_problems:
            for problem in self_problems:
                print(f"self_check FAILED: {problem}")
        else:
            print(f"self_check ok: every layer mapped to {wl.name} was called; "
                  f"{', '.join(layers.EXPECT_ZERO[wl.name])} read 0")

    failing = [r.scenario for r in results if not r.ok]
    print(f"metric failed_frac = {failed / wl.attempted:.6g} ({failed} of {wl.attempted} "
          f"scenario runs failed{': ' + ', '.join(failing) if failing else ''})")
    for res in results:
        for line in res.defects:
            print(f"known_defect {line}")
        status = "ok" if res.ok else "FAILED: " + "; ".join(res.problems)
        print(f"check {res.scenario}: {status}"
              + (f" [{'; '.join(res.notes)}]" if res.notes else ""))

    print(json.dumps({"correct": correct, "attempted": wl.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
