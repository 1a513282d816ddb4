"""Tests of the experiment harness at reduced sizes.

The module fixtures sweep the paper's grids up to 32 CPUs, and every
table and figure experiment must pass all of its shape checks there.
``repro-experiments all --full`` gates the same checks at paper sizes.
"""

import pytest

from repro.config.mechanism import Mechanism
from repro.harness import experiments as ex
from repro.harness import paper_data


@pytest.fixture(scope="module")
def flat_suite():
    return ex.run_barrier_suite((4, 8, 16, 32), episodes=2)


@pytest.fixture(scope="module")
def tree_suite():
    return ex.run_tree_suite((16, 32), episodes=2)


@pytest.fixture(scope="module")
def lock_suite():
    return ex.run_lock_suite((4, 8, 16, 32), acquisitions_per_cpu=2)


def _assert_checks_pass(res):
    assert res.checks, res.exp_id
    assert res.all_passed, [str(c) for c in res.checks]


def test_table2_structure_and_checks(flat_suite):
    res = ex.experiment_table2(flat_suite)
    assert res.exp_id.endswith("table2")
    assert len(res.table.rows) == 4
    assert res.paper is not None and len(res.paper.rows) == 4
    _assert_checks_pass(res)
    text = res.format()
    assert "Paper Table 2" in text and "Shape checks" in text


def test_fig5_structure(flat_suite):
    res = ex.experiment_fig5(flat_suite)
    assert len(res.table.columns) == 6      # CPUs + 5 mechanisms
    assert any("AMO" in c.name for c in res.checks)
    _assert_checks_pass(res)


def test_amo_model_fit(flat_suite):
    res = ex.experiment_amo_model(flat_suite)
    values = dict(zip([r[0] for r in res.table.rows],
                      [r[1] for r in res.table.rows]))
    assert values["R^2 of linear fit"] > 0.9
    _assert_checks_pass(res)


def test_table3_and_fig6(tree_suite, flat_suite):
    res3 = ex.experiment_table3(tree_suite, flat_suite)
    assert len(res3.table.rows) == 2
    amo_tree_col = res3.table.columns.index("AMO+tree")
    amo_col = res3.table.columns.index("AMO")
    for row in res3.table.rows:
        assert row[amo_col] > row[amo_tree_col]   # flat AMO beats AMO+tree
    _assert_checks_pass(res3)
    res6 = ex.experiment_fig6(tree_suite)
    assert len(res6.table.rows) == 2
    _assert_checks_pass(res6)


def test_table4_structure(lock_suite):
    res = ex.experiment_table4(lock_suite)
    assert len(res.table.rows) == 4
    assert len(res.table.columns) == 11     # CPUs + 5 mech x 2 locks
    _assert_checks_pass(res)


def test_fig7_normalization(lock_suite):
    # the ActMsg-at-the-top check is a 128+-CPU retransmission effect;
    # experiment_fig7 adds it only at those sizes
    res = ex.experiment_fig7(lock_suite, cpu_counts=(16, 32))
    assert len(res.table.rows) == 2
    llsc_col = res.table.columns.index("LL/SC")
    for row in res.table.rows:
        assert row[llsc_col] == pytest.approx(1.0)
    _assert_checks_pass(res)


def test_fig1_exact_counts():
    res = ex.experiment_fig1()
    assert res.all_passed, [str(c) for c in res.checks]


def test_paper_data_integrity():
    # Table 2: the paper's own published values, sanity-checked
    assert paper_data.PAPER_TABLE2[256][Mechanism.AMO] == 61.94
    assert paper_data.PAPER_TABLE4[(256, Mechanism.AMO, "ticket")] == 10.36
    assert paper_data.PAPER_TABLE3[256]["AMO+tree"] == 22.62
    assert set(paper_data.TABLE2_CPUS) == {4, 8, 16, 32, 64, 128, 256}
    assert paper_data.PAPER_FIG1 == {"conventional": 18, "amo": 6}


def test_check_formatting():
    c = ex.Check("demo", True, "detail")
    assert "PASS" in str(c) and "detail" in str(c)
    c2 = ex.Check("demo", False)
    assert "FAIL" in str(c2)


def test_experiment_markdown_rendering(flat_suite):
    res = ex.experiment_table2(flat_suite)
    md = res.format(markdown=True)
    assert "|" in md and "---:" in md


def test_amo_tree_crossover_experiment():
    res = ex.experiment_amo_tree_crossover((16, 32), episodes=1)
    assert res.all_passed, [str(c) for c in res.checks]
    ratios = [row[-1] for row in res.table.rows]
    assert all(r > 1.0 for r in ratios)


def test_sensitivity_knob_machinery():
    from dataclasses import replace
    from repro.harness.sensitivity import KNOBS, Knob, sweep_amo_speedup
    # a reduced custom knob keeps this test fast
    base_knob = KNOBS["hop_latency"]
    small = Knob(name=base_knob.name, values=(50, 200),
                 apply=base_knob.apply)
    points = sweep_amo_speedup(small, n_processors=8, episodes=1)
    assert [v for v, _s in points] == [50, 200]
    assert all(s > 1.0 for _v, s in points)


def test_sensitivity_report_table():
    from repro.harness.sensitivity import Knob, KNOBS, sensitivity_report
    import repro.harness.sensitivity as sens
    # monkey-light: run just one knob at tiny scale through the report
    table, robust = sensitivity_report(("egress",), n_processors=8,
                                       episodes=1)
    assert len(table.rows) == len(KNOBS["egress"].values)
    assert isinstance(robust, bool)
