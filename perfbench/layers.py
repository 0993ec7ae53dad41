"""Per-layer metrics and the workloads that exercise each layer.

``PER_LAYER`` is the list of traced metrics (``<module>.<function>.<stat>``)
printed by a traced run, in the order of ``BENCHMARK.json``.  ``EXERCISED``
records, for every traced function, the workloads meant to call it; the
traced run's self-check turns it into a tested property.  ``EXPECT_ZERO``
lists the layers a workload is designed to bypass.  Which end-to-end metric
each layer should move is the table in ``README.md``.
"""

from __future__ import annotations

ALL = ("series", "stationary", "transient")

# stat -> (unit, better)
_STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "rows": ("count", "lower"),
    "bytes": ("B", "lower"),
    "elements": ("count", "lower"),
    "scalar_calls": ("count", "lower"),
    "max_order": ("count", "lower"),
    "steps": ("count", "lower"),
    "windows": ("count", "lower"),
    "points": ("count", "lower"),
    "distinct_ratio": ("ratio", "higher"),
}

# function -> (stats reported, workloads meant to call it)
EXERCISED = {
    "cli.load_config": (("calls", "self_s"), ALL),
    "cli.run": (("self_s", "rows", "bytes"), ALL),
    "params.SystemParams": (("calls",), ALL),
    "numerics.kummer_minus_exp": (("calls", "self_s", "elements", "scalar_calls", "max_order"),
                                  ("series", "transient")),
    "numerics.poisson_weight": (("calls", "self_s"), ("series", "transient")),
    "numerics.solve_linear": (("calls", "self_s"), ("stationary",)),
    "numerics.matrix_exponential": (("calls", "self_s"), ("stationary", "transient")),
    "numerics.expm_convolution": (("calls", "self_s"), ("stationary",)),
    "numerics.null_eigenvector": (("calls", "self_s"), ("stationary",)),
    "dde.integrate": (("calls", "self_s", "steps", "windows"), ("transient",)),
    "dde.solve_ode": (("calls", "self_s"), ("transient",)),
    "decay.series_amplitude": (("calls", "self_s", "distinct_ratio"), ("series",)),
    "decay.field_intensity": (("self_s",), ("series",)),
    "decay.transient_spectrum": (("self_s",), ("transient",)),
    "decay.steady_spectrum": (("self_s",), ("transient",)),
    "decay.discrete_mode_oracle": (("self_s",), ("transient",)),
    "weakdrive.perturbative_amplitude": (("calls", "self_s", "distinct_ratio"),
                                         ("series",)),
    "weakdrive.g2_channel1": (("self_s",), ("series",)),
    "weakdrive.g2_channel2": (("self_s",), ("series",)),
    "bloch.delay_kernel": (("calls", "self_s"), ("stationary", "transient")),
    "bloch.delay_bloch_steady": (("calls", "self_s", "distinct_ratio"), ("stationary",)),
    "bloch.delay_bloch_transient": (("self_s",), ("transient",)),
    "spectrum.build_kernel": (("calls", "self_s"), ("stationary",)),
    "spectrum.SpectrumKernel.delayed_source": (("self_s",), ("stationary",)),
    "spectrum.incoherent_spectrum": (("self_s", "points"), ("stationary",)),
}

# metrics that must read zero on a workload: the layers it is built to bypass
EXPECT_ZERO = {
    "stationary": ("numerics.kummer_minus_exp.scalar_calls", "numerics.kummer_minus_exp.calls",
                   "decay.series_amplitude.calls", "weakdrive.perturbative_amplitude.calls"),
    "series": ("dde.integrate.calls", "numerics.solve_linear.calls",
               "numerics.matrix_exponential.calls"),
    "transient": ("numerics.kummer_minus_exp.scalar_calls", "numerics.solve_linear.calls"),
}

PER_LAYER = [
    (f"{func}.{stat}", *_STAT_UNITS[stat])
    for func, (stats, _) in EXERCISED.items() for stat in stats
]


def self_check(workload: str, calls: dict, values: dict, missing: list) -> list[str]:
    """Problems with one traced pass; empty when the workload design holds.

    ``calls`` maps a traced function to its call count, ``values`` a
    per-layer metric to its value.
    """
    problems = [f"traced target missing: {name}" for name in missing]
    for func, (_, workloads) in EXERCISED.items():
        if workload in workloads and not calls.get(func, 0):
            problems.append(f"{func} never called on {workload}")
    for metric in EXPECT_ZERO.get(workload, ()):
        if values.get(metric, 0):
            problems.append(f"{metric} = {values[metric]} on {workload}, expected 0")
    return problems
