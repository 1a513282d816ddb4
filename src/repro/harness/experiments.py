"""Experiment definitions regenerating the paper's tables and figures.

Every ``experiment_*`` function returns an :class:`ExperimentResult` with:

* ``table`` — the measured numbers in the paper's row/column layout,
* ``paper`` — the published numbers (where the paper gives any),
* ``checks`` — named shape assertions ("who wins, where the crossover
  falls") with pass/fail verdicts; these are the acceptance criteria of
  DESIGN.md §4 and are also exercised by the integration test suite.

The suite runners (``run_barrier_suite`` etc.) do the simulation work and
are cached by the CLI so table2/fig5 (and table3/fig6, table4/fig7) share
runs, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.config.mechanism import Mechanism
from repro.harness import paper_data
from repro.runner import ParallelRunner, RunSpec
from repro.harness.report import TableFormatter, fit_linear
from repro.workloads.barrier import BarrierResult
from repro.workloads.locks import LockResult
from repro.workloads.qlocks import QLOCK_TYPES, qlock_supported

#: mechanism column order used by the paper's tables
BARRIER_COLUMNS = [Mechanism.ACTMSG, Mechanism.ATOMIC, Mechanism.MAO,
                   Mechanism.AMO]
ALL_MECHANISMS = [Mechanism.LLSC, Mechanism.ACTMSG, Mechanism.ATOMIC,
                  Mechanism.MAO, Mechanism.AMO]

#: branching factors swept for tree barriers ("we try all possible tree
#: branching factors and use the one that delivers the best performance")
DEFAULT_BRANCHINGS = (4, 8, 16, 32)


@dataclass
class Check:
    """One shape assertion derived from the paper's claims."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}" + (f" — {self.detail}" if self.detail else "")


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    exp_id: str
    title: str
    table: TableFormatter
    paper: Optional[TableFormatter] = None
    checks: list[Check] = field(default_factory=list)
    notes: str = ""

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self, markdown: bool = False) -> str:
        render = (lambda t: t.to_markdown()) if markdown else (lambda t: t.to_text())
        parts = [f"== {self.exp_id}: {self.title} ==", "", render(self.table)]
        if self.paper is not None:
            parts += ["", render(self.paper)]
        if self.checks:
            parts += ["", "Shape checks:"] + [f"  {c}" for c in self.checks]
        if self.notes:
            parts += ["", self.notes]
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# suite runners (shared between table and figure experiments)
# ---------------------------------------------------------------------------

def _runner_or_serial(runner: Optional[ParallelRunner]) -> ParallelRunner:
    """Default execution: serial, in-process, uncached — byte-identical
    to calling the workload drivers directly (the determinism-test path).
    Pass an explicit :class:`ParallelRunner` (the CLI does) for
    multi-process fan-out and the on-disk result cache."""
    return runner if runner is not None else ParallelRunner(jobs=1)


def run_barrier_suite(cpu_counts: Sequence[int], episodes: int = 3,
                      runner: Optional[ParallelRunner] = None,
                      metrics: bool = False, metrics_interval: int = 0,
                      backend: Optional[str] = None,
                      ) -> dict[tuple[int, Mechanism], BarrierResult]:
    """Flat-barrier measurements for every (P, mechanism)."""
    keys = [(p, mech) for p in cpu_counts for mech in ALL_MECHANISMS]
    specs = [RunSpec.barrier(n_processors=p, mechanism=mech,
                             episodes=episodes, metrics=metrics,
                             metrics_interval=metrics_interval,
                             backend=backend)
             for p, mech in keys]
    results = _runner_or_serial(runner).run(specs)
    return dict(zip(keys, results))


def run_tree_suite(cpu_counts: Sequence[int], episodes: int = 3,
                   branchings: Sequence[int] = DEFAULT_BRANCHINGS,
                   runner: Optional[ParallelRunner] = None,
                   metrics: bool = False, metrics_interval: int = 0,
                   backend: Optional[str] = None,
                   ) -> dict[tuple[int, Mechanism], BarrierResult]:
    """Tree-barrier measurements, keeping the best branching factor per
    configuration (the paper's methodology)."""
    keys = [(p, mech, b) for p in cpu_counts for mech in ALL_MECHANISMS
            for b in branchings if b < p]       # needs at least two groups
    specs = [RunSpec.barrier(n_processors=p, mechanism=mech,
                             episodes=episodes, tree_branching=b,
                             metrics=metrics,
                             metrics_interval=metrics_interval,
                             backend=backend)
             for p, mech, b in keys]
    results = _runner_or_serial(runner).run(specs)
    out: dict[tuple[int, Mechanism], BarrierResult] = {}
    for (p, mech, _b), res in zip(keys, results):
        best = out.get((p, mech))
        if best is None or res.cycles_per_episode < best.cycles_per_episode:
            out[(p, mech)] = res
    for p in cpu_counts:
        for mech in ALL_MECHANISMS:
            assert (p, mech) in out, f"no valid branching for P={p}"
    return out


def run_lock_suite(cpu_counts: Sequence[int], acquisitions_per_cpu: int = 3,
                   runner: Optional[ParallelRunner] = None,
                   metrics: bool = False, metrics_interval: int = 0,
                   backend: Optional[str] = None,
                   ) -> dict[tuple[int, Mechanism, str], LockResult]:
    """Lock measurements for every (P, mechanism, ticket|array)."""
    keys = [(p, mech, lt) for p in cpu_counts for mech in ALL_MECHANISMS
            for lt in ("ticket", "array")]
    specs = [RunSpec.lock(n_processors=p, mechanism=mech, lock_type=lt,
                          acquisitions_per_cpu=acquisitions_per_cpu,
                          metrics=metrics,
                          metrics_interval=metrics_interval,
                          backend=backend)
             for p, mech, lt in keys]
    results = _runner_or_serial(runner).run(specs)
    return dict(zip(keys, results))


def run_qlock_suite(cpu_counts: Sequence[int], acquisitions_per_cpu: int = 3,
                    runner: Optional[ParallelRunner] = None,
                    metrics: bool = False, metrics_interval: int = 0,
                    backend: Optional[str] = None,
                    ) -> dict[tuple[int, Mechanism, str], LockResult]:
    """Queue-lock measurements for every supported (P, mechanism,
    mcs|cna|rw) point.

    Unsupported combinations (rw over MAO — see
    :data:`repro.workloads.qlocks.QLOCK_SUPPORT`) are simply absent from
    the result dict, mirroring the driver's own support matrix.
    """
    keys = [(p, mech, lt) for p in cpu_counts for mech in ALL_MECHANISMS
            for lt in QLOCK_TYPES if qlock_supported(lt, mech)]
    specs = [RunSpec.qlock(n_processors=p, mechanism=mech, lock_type=lt,
                           acquisitions_per_cpu=acquisitions_per_cpu,
                           metrics=metrics,
                           metrics_interval=metrics_interval,
                           backend=backend)
             for p, mech, lt in keys]
    results = _runner_or_serial(runner).run(specs)
    return dict(zip(keys, results))


# ---------------------------------------------------------------------------
# E1 — Table 2
# ---------------------------------------------------------------------------

def experiment_table2(results: dict[tuple[int, Mechanism], BarrierResult],
                      ) -> ExperimentResult:
    """Speedups of non-tree barriers over the LL/SC baseline."""
    cpu_counts = sorted({p for p, _ in results})
    cols = ["CPUs"] + [m.label for m in BARRIER_COLUMNS]
    table = TableFormatter(cols, title="Measured — speedup over LL/SC barrier")
    speedups: dict[tuple[int, Mechanism], float] = {}
    for p in cpu_counts:
        base = results[(p, Mechanism.LLSC)]
        row = [p]
        for mech in BARRIER_COLUMNS:
            s = results[(p, mech)].speedup_over(base)
            speedups[(p, mech)] = s
            row.append(s)
        table.add_row(row)

    paper = TableFormatter(cols, title="Paper Table 2 — speedup over LL/SC")
    for p in cpu_counts:
        pub = paper_data.PAPER_TABLE2.get(p)
        if pub:
            paper.add_row([p] + [pub[m] for m in BARRIER_COLUMNS])

    checks = []
    big = [p for p in cpu_counts if p >= 8]
    checks.append(Check(
        "ordering AMO > MAO > Atomic and AMO > ActMsg for P >= 8",
        all(speedups[(p, Mechanism.AMO)] > speedups[(p, Mechanism.MAO)]
            > speedups[(p, Mechanism.ATOMIC)]
            and speedups[(p, Mechanism.AMO)] > speedups[(p, Mechanism.ACTMSG)]
            for p in big)))
    checks.append(Check(
        "AMO speedup grows monotonically with P",
        all(speedups[(a, Mechanism.AMO)] < speedups[(b, Mechanism.AMO)]
            for a, b in zip(cpu_counts, cpu_counts[1:]))))
    if max(cpu_counts) >= 256:
        s256 = speedups[(256, Mechanism.AMO)]
        checks.append(Check(
            "AMO speedup at 256 CPUs is in the tens (paper: 61.9)",
            30 <= s256 <= 120, f"measured {s256:.1f}"))
        m256 = speedups[(256, Mechanism.MAO)]
        checks.append(Check(
            "MAO speedup at 256 CPUs ~ 15 (paper: 14.7)",
            7 <= m256 <= 30, f"measured {m256:.1f}"))
    checks.append(Check(
        "Atomic stays a modest constant-factor win (< 3x; paper < 1.4x)",
        all(speedups[(p, Mechanism.ATOMIC)] < 3.0 for p in cpu_counts)))
    return ExperimentResult(
        exp_id="E1/table2", title="Performance of different barriers",
        table=table, paper=paper, checks=checks)


# ---------------------------------------------------------------------------
# E2 — Figure 5
# ---------------------------------------------------------------------------

def experiment_fig5(results: dict[tuple[int, Mechanism], BarrierResult],
                    ) -> ExperimentResult:
    """Cycles-per-processor of non-tree barriers (Figure 5)."""
    cpu_counts = sorted({p for p, _ in results})
    cols = ["CPUs"] + [m.label for m in ALL_MECHANISMS]
    table = TableFormatter(cols, float_format="{:.0f}",
                           title="Measured — barrier cycles per processor")
    for p in cpu_counts:
        table.add_row([p] + [results[(p, m)].cycles_per_processor
                             for m in ALL_MECHANISMS])
    checks = []
    llsc = [results[(p, Mechanism.LLSC)].cycles_per_processor
            for p in cpu_counts]
    amo = [results[(p, Mechanism.AMO)].cycles_per_processor
           for p in cpu_counts]
    checks.append(Check(
        "LL/SC per-processor cost never amortizes (largest P >= 0.75x "
        "any smaller size's)",
        llsc[-1] >= 0.75 * max(llsc),
        f"series {[round(x) for x in llsc]}"))
    checks.append(Check(
        "at the largest P, LL/SC per-processor cost >= 8x AMO's",
        llsc[-1] >= 8 * amo[-1],
        f"{llsc[-1]:.0f} vs {amo[-1]:.0f}"))
    checks.append(Check(
        "AMO cycles/processor is the lowest of all mechanisms everywhere",
        all(amo[i] <= min(results[(p, m)].cycles_per_processor
                          for m in ALL_MECHANISMS)
            for i, p in enumerate(cpu_counts))))
    checks.append(Check(
        "AMO cycles/processor does not grow at large P",
        len(amo) < 3 or amo[-1] <= amo[-3] * 1.5,
        f"tail {amo[-3:] if len(amo) >= 3 else amo}"))
    return ExperimentResult(
        exp_id="E2/fig5", title="Cycles-per-processor of different barriers",
        table=table, checks=checks,
        notes="The paper's Figure 5 publishes no numeric axis; the checks "
              "assert its visual claims (LL/SC per-processor time rises, "
              "AMO stays flat / drops slightly).")


# ---------------------------------------------------------------------------
# E3 — Table 3
# ---------------------------------------------------------------------------

def experiment_table3(tree: dict[tuple[int, Mechanism], BarrierResult],
                      flat: dict[tuple[int, Mechanism], BarrierResult],
                      ) -> ExperimentResult:
    """Tree-based barrier speedups over the flat LL/SC baseline."""
    cpu_counts = sorted({p for p, _ in tree})
    labels = [f"{m.label}+tree" for m in ALL_MECHANISMS] + ["AMO"]
    table = TableFormatter(["CPUs"] + labels,
                           title="Measured — tree barrier speedup over "
                                 "flat LL/SC barrier")
    speed: dict[tuple[int, str], float] = {}
    for p in cpu_counts:
        base = flat[(p, Mechanism.LLSC)]
        row = [p]
        for m in ALL_MECHANISMS:
            s = tree[(p, m)].speedup_over(base)
            speed[(p, f"{m.label}+tree")] = s
            row.append(s)
        s_amo = flat[(p, Mechanism.AMO)].speedup_over(base)
        speed[(p, "AMO")] = s_amo
        row.append(s_amo)
        table.add_row(row)

    paper = TableFormatter(["CPUs"] + labels, title="Paper Table 3")
    for p in cpu_counts:
        pub = paper_data.PAPER_TABLE3.get(p)
        if pub:
            paper.add_row([p] + [pub[lbl] for lbl in labels])

    checks = []
    checks.append(Check(
        "trees help every conventional mechanism (speedup > 1)",
        all(speed[(p, f"{m.label}+tree")] > 1.0
            for p in cpu_counts for m in ALL_MECHANISMS
            if m is not Mechanism.AMO)))
    small_mid = [p for p in cpu_counts if p <= 64]
    checks.append(Check(
        "flat AMO beats AMO+tree at every size up to 64 (paper: at every "
        "evaluated size; our tree exploits distributed AMUs and crosses "
        "over near 128 — see EXPERIMENTS.md deviations)",
        all(speed[(p, "AMO")] > speed[(p, "AMO+tree")]
            for p in small_mid)))
    biggest = max(cpu_counts)
    non_amo_trees = [speed[(biggest, f"{m.label}+tree")]
                     for m in ALL_MECHANISMS if m is not Mechanism.AMO]
    checks.append(Check(
        f"flat AMO beats the best non-AMO tree at P={biggest} "
        "(paper: 3x at 256)",
        speed[(biggest, "AMO")] >= max(non_amo_trees),
        f"AMO {speed[(biggest, 'AMO')]:.1f} vs best tree "
        f"{max(non_amo_trees):.1f}"))
    return ExperimentResult(
        exp_id="E3/table3", title="Performance of tree-based barriers",
        table=table, paper=paper, checks=checks)


# ---------------------------------------------------------------------------
# E4 — Figure 6
# ---------------------------------------------------------------------------

def experiment_fig6(tree: dict[tuple[int, Mechanism], BarrierResult],
                    ) -> ExperimentResult:
    """Cycles-per-processor of tree-based barriers (Figure 6)."""
    cpu_counts = sorted({p for p, _ in tree})
    cols = ["CPUs"] + [f"{m.label}+tree" for m in ALL_MECHANISMS]
    table = TableFormatter(cols, float_format="{:.0f}",
                           title="Measured — tree barrier cycles per processor")
    for p in cpu_counts:
        table.add_row([p] + [tree[(p, m)].cycles_per_processor
                             for m in ALL_MECHANISMS])
    checks = []
    for m in ALL_MECHANISMS:
        series = [tree[(p, m)].cycles_per_processor for p in cpu_counts]
        checks.append(Check(
            f"{m.label}+tree cycles/processor decreases from smallest to "
            "largest P (amortized tree overhead)",
            series[-1] < series[0],
            f"{series[0]:.0f} -> {series[-1]:.0f}"))
    return ExperimentResult(
        exp_id="E4/fig6",
        title="Cycles-per-processor of tree-based barriers",
        table=table, checks=checks,
        notes="Paper's visual claim: per-processor time of tree barriers "
              "falls as P grows, because the fixed tree overhead is "
              "amortized and branches proceed in parallel.")


# ---------------------------------------------------------------------------
# E5 — Table 4
# ---------------------------------------------------------------------------

def experiment_table4(results: dict[tuple[int, Mechanism, str], LockResult],
                      ) -> ExperimentResult:
    """Lock speedups over the LL/SC ticket lock."""
    cpu_counts = sorted({p for p, _, _ in results})
    cols = ["CPUs"]
    for m in ALL_MECHANISMS:
        cols += [f"{m.label} ticket", f"{m.label} array"]
    table = TableFormatter(cols, title="Measured — speedup over LL/SC "
                                       "ticket lock")
    speed: dict[tuple[int, Mechanism, str], float] = {}
    for p in cpu_counts:
        base = results[(p, Mechanism.LLSC, "ticket")]
        row = [p]
        for m in ALL_MECHANISMS:
            for lt in ("ticket", "array"):
                s = results[(p, m, lt)].speedup_over(base)
                speed[(p, m, lt)] = s
                row.append(s)
        table.add_row(row)

    paper = TableFormatter(cols, title="Paper Table 4")
    for p in cpu_counts:
        if (p, Mechanism.LLSC, "ticket") in paper_data.PAPER_TABLE4:
            row = [p]
            for m in ALL_MECHANISMS:
                for lt in ("ticket", "array"):
                    row.append(paper_data.PAPER_TABLE4[(p, m, lt)])
            paper.add_row(row)

    checks = []
    small = [p for p in cpu_counts if p <= 16]
    if small and max(cpu_counts) >= 64:
        checks.append(Check(
            "conventional crossover: LL/SC array loses at small P and "
            "wins at the largest P (paper: crossover at 64)",
            all(speed[(p, Mechanism.LLSC, "array")] < 1.0 for p in small)
            and speed[(max(cpu_counts), Mechanism.LLSC, "array")] > 1.0,
            detail=", ".join(
                f"P={p}: {speed[(p, Mechanism.LLSC, 'array')]:.2f}"
                for p in cpu_counts)))
    checks.append(Check(
        "AMO lifts both lock algorithms at every size",
        all(speed[(p, Mechanism.AMO, lt)] > 1.2
            for p in cpu_counts for lt in ("ticket", "array"))))
    checks.append(Check(
        "with AMO, ticket ~ array (within 2x — paper: 'negligible')",
        all(0.5 <= speed[(p, Mechanism.AMO, "ticket")]
            / speed[(p, Mechanism.AMO, "array")] <= 2.0
            for p in cpu_counts)))
    if max(cpu_counts) >= 256:
        s = speed[(256, Mechanism.AMO, "ticket")]
        checks.append(Check(
            "AMO ticket speedup at 256 in the high single digits to ~10 "
            "(paper: 10.4)", 3.5 <= s <= 20, f"measured {s:.1f}"))
    return ExperimentResult(
        exp_id="E5/table4",
        title="Speedups of different locks over the LL/SC ticket lock",
        table=table, paper=paper, checks=checks)


# ---------------------------------------------------------------------------
# E6 — Figure 7
# ---------------------------------------------------------------------------

def experiment_fig7(results: dict[tuple[int, Mechanism, str], LockResult],
                    cpu_counts: Sequence[int] = (128, 256),
                    ) -> ExperimentResult:
    """Network traffic of ticket locks normalized to LL/SC (Figure 7)."""
    cpu_counts = [p for p in cpu_counts
                  if (p, Mechanism.LLSC, "ticket") in results]
    cols = ["CPUs"] + [m.label for m in ALL_MECHANISMS]
    table = TableFormatter(cols,
                           title="Measured — ticket lock network traffic, "
                                 "normalized to LL/SC")
    rel: dict[tuple[int, Mechanism], float] = {}
    for p in cpu_counts:
        base = results[(p, Mechanism.LLSC, "ticket")]
        row = [p]
        for m in ALL_MECHANISMS:
            r = results[(p, m, "ticket")].traffic_relative_to(base)
            rel[(p, m)] = r
            row.append(r)
        table.add_row(row)
    checks = []
    checks.append(Check(
        "AMO has the least traffic of all mechanisms",
        all(rel[(p, Mechanism.AMO)] <= min(rel[(p, m)]
            for m in ALL_MECHANISMS if m is not Mechanism.AMO)
            for p in cpu_counts)))
    # ActMsg out-producing even MAO's uncached round trips requires the
    # retransmission regime — a 128+/256-CPU contention effect (the
    # paper's figure evaluates exactly those sizes).
    big = [p for p in cpu_counts if p >= 128]
    if big:
        checks.append(Check(
            "ActMsg traffic at/near the top (>= 0.9x the max non-AMO; "
            "timeout-driven retransmission)",
            all(rel[(p, Mechanism.ACTMSG)] >= 0.9 * max(rel[(p, m)]
                for m in ALL_MECHANISMS if m is not Mechanism.ACTMSG)
                for p in big)))
    checks.append(Check(
        "AMO traffic is a small fraction of LL/SC's",
        all(rel[(p, Mechanism.AMO)] < 0.5 for p in cpu_counts)))
    return ExperimentResult(
        exp_id="E6/fig7", title="Network traffic for ticket locks",
        table=table, checks=checks,
        notes="Traffic metric: bytes injected into the interconnect per "
              "acquisition (the paper's figure publishes normalized bars "
              "only).")


# ---------------------------------------------------------------------------
# E8 — queue-lock comparison (beyond the paper's Table 4)
# ---------------------------------------------------------------------------

def experiment_qlock(results: dict[tuple[int, Mechanism, str], LockResult],
                     ) -> ExperimentResult:
    """Queue locks (MCS / CNA / rw ticket) across mechanisms.

    The paper evaluates ticket and array locks only; this table extends
    the comparison to the queue locks the repo grows on top of the same
    mechanism layer.  Speedups are normalized to the LL/SC MCS lock —
    the conventional-hardware software queue lock — so the columns
    answer "what does each mechanism (and each queue discipline) buy
    over the textbook baseline".  Unsupported cells (rw over MAO) print
    as ``-``.
    """
    cpu_counts = sorted({p for p, _, _ in results})
    lock_types = [lt for lt in QLOCK_TYPES
                  if any(k[2] == lt for k in results)]
    cols = ["CPUs"]
    for m in ALL_MECHANISMS:
        cols += [f"{m.label} {lt}" for lt in lock_types]
    table = TableFormatter(cols, title="Measured — queue-lock speedup "
                                       "over LL/SC MCS")
    speed: dict[tuple[int, Mechanism, str], float] = {}
    for p in cpu_counts:
        base = results[(p, Mechanism.LLSC, "mcs")]
        row: list = [p]
        for m in ALL_MECHANISMS:
            for lt in lock_types:
                res = results.get((p, m, lt))
                if res is None:
                    row.append("-")
                    continue
                s = res.speedup_over(base)
                speed[(p, m, lt)] = s
                row.append(s)
        table.add_row(row)

    checks = []
    checks.append(Check(
        "AMO lifts the MCS lock over LL/SC MCS at every size",
        all(speed[(p, Mechanism.AMO, "mcs")] > 1.0 for p in cpu_counts),
        detail=", ".join(f"P={p}: {speed[(p, Mechanism.AMO, 'mcs')]:.2f}"
                         for p in cpu_counts)))
    if "cna" in lock_types:
        # CNA's per-acquisition cost is dominated by its batch scan and
        # secondary-queue flush, not by the tail-swap mechanism — so its
        # column barely moves when the mechanism changes.
        checks.append(Check(
            "CNA cost is mechanism-insensitive (batching dominates): all "
            "CNA cells at one size stay within a 2x band",
            all(max(vals) <= 2.0 * min(vals) for vals in (
                [speed[(p, m, "cna")] for m in ALL_MECHANISMS
                 if (p, m, "cna") in speed]
                for p in cpu_counts))))
    checks.append(Check(
        "rw ticket lock is absent over MAO (word discipline straddles "
        "the atomic/coherent domains)",
        all((p, Mechanism.MAO, "rw") not in results for p in cpu_counts)))
    if max(cpu_counts) >= 32:
        big = [p for p in cpu_counts if p >= 32]
        checks.append(Check(
            "at 32+ CPUs the best AMO queue lock beats every LL/SC "
            "queue lock",
            all(max(speed[(p, Mechanism.AMO, lt)]
                    for lt in lock_types
                    if (p, Mechanism.AMO, lt) in speed)
                > max(speed.get((p, Mechanism.LLSC, lt), 0.0)
                      for lt in lock_types)
                for p in big)))
    return ExperimentResult(
        exp_id="E8/qlock",
        title="Queue locks across mechanisms (extension beyond Table 4)",
        table=table, checks=checks,
        notes="Baseline: LL/SC MCS (software queue lock on conventional "
              "hardware).  The paper's Table 4 covers ticket/array locks "
              "only; queue locks are this reproduction's extension.")


# ---------------------------------------------------------------------------
# E7 — Figure 1 message anatomy
# ---------------------------------------------------------------------------

def experiment_fig1() -> ExperimentResult:
    """One-way message counts of a 3-processor increment round.

    The paper's Figure 1 contrasts 18 one-way messages for a conventional
    (processor-centric RMW) barrier round against 6 (request + reply per
    processor) with AMOs.  We place the three processors on three
    distinct nodes (as the figure draws them), let each perform exactly
    one atomic increment of a variable homed at a fourth node, and count
    network messages.
    """
    from repro.config.parameters import SystemConfig
    from repro.core.machine import Machine

    def run(mech: Mechanism) -> int:
        machine = Machine(SystemConfig.table1(8))
        var = machine.alloc("figure1.counter", home_node=3)
        participants = [0, 2, 4]   # one CPU on each of three nodes

        def thread(proc):
            if mech is Mechanism.AMO:
                yield from proc.amo_inc(var.addr)
            else:
                yield from proc.llsc_rmw(var.addr, lambda v: v + 1)
        machine.run_threads(thread, cpus=participants)
        assert machine.peek(var.addr) == 3
        return machine.net.stats.total_messages

    conventional = run(Mechanism.LLSC)
    amo = run(Mechanism.AMO)
    table = TableFormatter(["variant", "one-way messages", "paper"],
                           title="Measured — 3-processor increment round")
    table.add_row(["conventional (LL/SC)", conventional,
                   paper_data.PAPER_FIG1["conventional"]])
    table.add_row(["AMO", amo, paper_data.PAPER_FIG1["amo"]])
    checks = [
        Check("AMO uses exactly 6 one-way messages (paper Figure 1b)",
              amo == 6, f"measured {amo}"),
        Check("conventional round uses ~3x the messages (paper: 18 vs 6)",
              conventional >= 15, f"measured {conventional}"),
    ]
    return ExperimentResult(
        exp_id="E7/fig1", title="Message anatomy of a 3-processor barrier",
        table=table, checks=checks)


# ---------------------------------------------------------------------------
# E9 — AMO latency model fit (§4.2.1)
# ---------------------------------------------------------------------------

def experiment_amo_model(results: dict[tuple[int, Mechanism], BarrierResult],
                         ) -> ExperimentResult:
    """Fit AMO barrier latency to the paper's ``t_o + t_p * P`` model."""
    cpu_counts = sorted({p for p, _ in results})
    xs = cpu_counts
    ys = [results[(p, Mechanism.AMO)].cycles_per_episode for p in xs]
    t_o, t_p, r2 = fit_linear(xs, ys)
    table = TableFormatter(["quantity", "value"], float_format="{:.2f}",
                           title="AMO barrier cost model: t_o + t_p * P")
    table.add_row(["t_o (fixed overhead, cycles)", t_o])
    table.add_row(["t_p (per-processor cycles)", t_p])
    table.add_row(["R^2 of linear fit", r2])
    checks = [
        Check("AMO barrier latency is linear in P (R^2 > 0.95; the "
              "full 4-256 range fits at > 0.99)",
              r2 > 0.95, f"R^2 = {r2:.4f}"),
        Check("per-processor term is small (t_p < 100 cycles)",
              0 < t_p < 100, f"t_p = {t_p:.1f}"),
    ]
    return ExperimentResult(
        exp_id="E9/amo-model",
        title="AMO barrier scales as t_o + t_p * P (paper §4.2.1)",
        table=table, checks=checks)


# ---------------------------------------------------------------------------
# Extension — the paper's stated future work (§4.2.2): do tree-based AMO
# barriers ever win?
# ---------------------------------------------------------------------------

def experiment_amo_tree_crossover(cpu_counts: Sequence[int],
                                  episodes: int = 2,
                                  branchings: Sequence[int] = DEFAULT_BRANCHINGS,
                                  runner: Optional[ParallelRunner] = None,
                                  metrics: bool = False,
                                  metrics_interval: int = 0,
                                  backend: Optional[str] = None,
                                  ) -> ExperimentResult:
    """Flat AMO vs best AMO+tree across machine sizes.

    "Determining whether or not tree-based AMO barriers can provide
    extra benefits on very large-scale systems is part of our future
    work."  This experiment produces the flat/tree ratio per size so the
    trend toward (or away from) a crossover is visible.
    """
    keys = [(p, b) for p in cpu_counts for b in (None, *branchings)
            if b is None or b < p]          # a tree needs two groups
    specs = [RunSpec.barrier(n_processors=p, mechanism=Mechanism.AMO,
                             episodes=episodes, tree_branching=b,
                             metrics=metrics,
                             metrics_interval=metrics_interval,
                             backend=backend)
             for p, b in keys]
    results = dict(zip(keys, _runner_or_serial(runner).run(specs)))
    table = TableFormatter(
        ["CPUs", "flat AMO", "best AMO+tree", "best branching",
         "tree/flat"],
        title="Measured — flat AMO vs combining-tree AMO barriers")
    ratios = []
    for p in cpu_counts:
        flat = results[(p, None)]
        best = min((results[(p, b)] for b in branchings if b < p),
                   key=lambda res: res.cycles_per_episode)
        ratio = best.cycles_per_episode / flat.cycles_per_episode
        ratios.append(ratio)
        table.add_row([p, flat.cycles_per_episode, best.cycles_per_episode,
                       best.tree_branching, ratio])
    small = [r for p, r in zip(cpu_counts, ratios) if p <= 64]
    checks = [
        Check("flat AMO wins at small-to-mid sizes (<= 64 CPUs), as the "
              "paper found",
              all(r > 1.0 for r in small),
              ", ".join(f"{r:.2f}" for r in ratios)),
        Check("tree/flat ratio decreases with P (the crossover the paper "
              "speculated about approaches)",
              all(a >= b for a, b in zip(ratios, ratios[1:]))
              or ratios[-1] < ratios[0],
              ", ".join(f"{r:.2f}" for r in ratios)),
    ]
    return ExperimentResult(
        exp_id="EXT/amo-tree", title="AMO combining-tree crossover search",
        table=table, checks=checks,
        notes="The paper leaves 'whether tree-based AMO barriers can "
              "provide extra benefits on very large-scale systems' to "
              "future work.  In this reproduction the crossover appears "
              "near 128 CPUs: our two-level tree spreads AMU work over "
              "the group leaders' home nodes, which pays off once the "
              "single home AMU's serialized op stream exceeds the "
              "tree's doubled fixed overhead.")
