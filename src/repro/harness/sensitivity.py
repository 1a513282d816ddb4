"""Sensitivity analysis: do the paper's conclusions survive the knobs?

The reproduction calibrates a handful of free parameters (DESIGN.md §9).
A conclusion that only holds at the calibrated point would be an
artifact; this module sweeps each knob across a wide range and reports
how the headline ratio — AMO barrier speedup over LL/SC — responds.

``tests/integration/test_paper_claims.py`` asserts the speedup at every
swept point; the module is also importable for ad-hoc exploration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.config.mechanism import Mechanism
from repro.config.parameters import SystemConfig
from repro.stats.report import TableFormatter
from repro.workloads.barrier import run_barrier_workload


@dataclass(frozen=True)
class Knob:
    """One calibration parameter and how to apply a value of it."""

    name: str
    values: tuple
    apply: Callable[[SystemConfig, object], SystemConfig]


KNOBS: dict[str, Knob] = {
    "hop_latency": Knob(
        name="network hop latency (cycles)",
        values=(50, 100, 200, 400),
        apply=lambda cfg, v: cfg.replace(
            network=replace(cfg.network, hop_latency_cycles=v))),
    "dram_occupancy": Knob(
        name="same-line DRAM channel occupancy (cycles)",
        values=(10, 20, 40, 80, 128),
        apply=lambda cfg, v: cfg.replace(
            dram=replace(cfg.dram, occupancy_cycles=v))),
    "am_invocation": Knob(
        name="ActMsg handler invocation overhead (cycles)",
        values=(100, 350, 700, 1400),
        apply=lambda cfg, v: cfg.replace(
            actmsg=replace(cfg.actmsg, invocation_overhead_cycles=v))),
    "egress": Knob(
        name="egress injection occupancy (hub cycles)",
        values=(1, 2, 4, 8),
        apply=lambda cfg, v: cfg.replace(
            hub=replace(cfg.hub, egress_occupancy_hub_cycles=v))),
}


def sweep_amo_speedup(knob: Knob, n_processors: int = 32,
                      episodes: int = 2) -> list[tuple[object, float]]:
    """AMO-over-LL/SC barrier speedup at each knob value."""
    points = []
    for value in knob.values:
        cfg = knob.apply(SystemConfig.table1(n_processors), value)
        base = run_barrier_workload(n_processors, Mechanism.LLSC,
                                    episodes=episodes, config=cfg)
        amo = run_barrier_workload(n_processors, Mechanism.AMO,
                                   episodes=episodes, config=cfg)
        points.append((value, amo.speedup_over(base)))
    return points


def sensitivity_report(knob_keys: Sequence[str] = tuple(KNOBS),
                       n_processors: int = 32,
                       episodes: int = 2) -> tuple[TableFormatter, bool]:
    """Sweep the requested knobs; returns (table, robust).

    ``robust`` is True when the AMO speedup stays above 2x at *every*
    swept point of every knob — the paper's qualitative claim surviving
    the calibration uncertainty.
    """
    table = TableFormatter(["knob", "value", "AMO speedup over LL/SC"],
                           title=f"Sensitivity at P={n_processors}")
    robust = True
    for key in knob_keys:
        knob = KNOBS[key]
        for value, speedup in sweep_amo_speedup(knob, n_processors,
                                                episodes):
            table.add_row([knob.name, value, speedup])
            if speedup < 2.0:
                robust = False
    return table, robust
