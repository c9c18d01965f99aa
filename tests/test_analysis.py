"""Closed-form counts, time bounds, confidence arithmetic, figure grids."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdbsim.analysis import (
    CountFormulaInput,
    MissingField,
    MissingToF,
    UnknownFigure,
    dbc,
    dbc_ap,
    dbc_avg,
    emit_figure_data,
    mpnv_run_count,
    msg_count,
    ntom_passive_run_count,
    reconcile,
    savings_percent,
    time_bound,
)
from gdbsim.core import LengthMismatch, Protocol
from gdbsim.proto.runner import run_scenario
from gdbsim.scenarios import mpnv_scenario, oneway_scenario, peer_scenario


def inp(setting, **kw):
    return CountFormulaInput(setting=setting, **kw)


# ---------------------------------------------------------------------------
# message counts


def test_mpnv_counts_thirty_by_thirty():
    assert msg_count(inp("MPNV", n=10, N=30, M=30), "base") == 18000
    assert msg_count(inp("MPNV", n_a=8, d_a=0.8, N=30, M=30), "ours") == 12240
    assert msg_count(inp("MPNV", n_a=6, d_a=0.6, N=30, M=30), "ours") == 7020


def test_savings_are_exact_percentages():
    assert savings_percent(18000, 12240) == 32.0
    assert savings_percent(18000, 7020) == 61.0
    assert savings_percent(18000, 18000) == 0.0


def test_savings_reject_empty_baseline():
    with pytest.raises(MissingField):
        savings_percent(0, 0)


def test_single_prover_counts():
    assert msg_count(inp("1PNV", n=10, N=10), "base") == 210
    assert msg_count(inp("1PNV", n_a=5, d_a=0.5, N=10), "ours") == 55


def test_single_verifier_counts():
    assert msg_count(inp("MP1V", n=10, M=3), "base") == 63
    # later provers reuse overheard rounds: 20 + 2*9 + 3*10
    assert msg_count(inp("MP1V", n=10, M=3), "ours") == 68


def test_chain_counts():
    assert msg_count(inp("1toM", n=2, M=3), "base") == 24
    assert msg_count(inp("1toM", n=2, M=3), "ours") == 14


def test_two_group_counts():
    assert msg_count(inp("NtoM", n=1, N=2, M=2), "base") == 16
    assert msg_count(inp("NtoM", n=1, N=2, M=2), "ours") == 8


def test_fractions_round_to_whole_verifiers():
    # d_a = 0.25 of 10 verifiers rounds to 3 active
    assert msg_count(inp("MPNV", n_a=2, d_a=0.25, N=10, M=1), "ours") == 15


def test_missing_field_is_named():
    with pytest.raises(MissingField, match="'n'"):
        msg_count(inp("MPNV", N=30, M=30), "base")
    with pytest.raises(MissingField, match="'d_a'"):
        msg_count(inp("MPNV", n_a=8, N=30, M=30), "ours")


def test_bad_setting_and_which_rejected():
    with pytest.raises(MissingField, match="setting"):
        msg_count(inp("2PNV", n=1, N=1, M=1), "base")
    with pytest.raises(MissingField, match="which"):
        msg_count(inp("MPNV", n=1, N=1, M=1), "theirs")


def test_simulated_count_formulas():
    # closing message priced in, dropped only in the full-activity limit
    assert mpnv_run_count(10, 8, 0.8, 30, 30) == 12240
    assert mpnv_run_count(10, 10, 1.0, 30, 30) == 18000
    assert mpnv_run_count(2, 2, 1.0, 3, 2) == 24
    assert ntom_passive_run_count(2, 1, 0.5, 2, 1.0, 3, 3) == 54
    # both phases degenerate: lands on the 2n(NM + MN) all-active cost
    assert ntom_passive_run_count(2, 2, 1.0, 2, 1.0, 3, 3) == 72


# ---------------------------------------------------------------------------
# completion-time bounds


def test_time_bound_single_prover_example():
    # two verifiers a microsecond and two out; n = 1 round each
    tofs = [1e-6, 2e-6]
    assert time_bound("1PNV", tofs, "base", n=1, N=2) == pytest.approx(6e-6)
    assert time_bound("1PNV", tofs, "ours", n_a=1, d_a=0.5, N=2) == pytest.approx(3e-6)


def test_time_bound_mpnv():
    grid = [[1e-6, 2e-6], [3e-6, 4e-6]]
    assert time_bound("MPNV", grid, "base", n=2, N=2, M=2) == pytest.approx(4e-5)
    # one active verifier: only its row is priced
    assert time_bound("MPNV", grid, "ours", n_a=2, d_a=0.5, N=2, M=2) == pytest.approx(
        5 * 3e-6)


def test_time_bound_single_verifier():
    tofs = [1e-6, 3e-6, 2e-6]
    assert time_bound("MP1V", tofs, "base", n=4, M=3) == pytest.approx(8 * 6e-6)
    # slowest prover paces the rounds, the others tail off once
    assert time_bound("MP1V", tofs, "ours", n=4, M=3) == pytest.approx(
        4 * 3e-6 + 1e-6 + 3e-6)


def test_time_bound_chain_uses_cycle_hops():
    assert time_bound("1toM", [1e-6, 1e-6], "base", n=1, M=2) == pytest.approx(8e-6)
    assert time_bound("1toM", [1e-6, 2e-6, 3e-6], "ours", n=1, M=2) == pytest.approx(
        1.2e-5)


def test_time_bound_two_groups():
    grid = [[1e-6, 2e-6], [3e-6, 4e-6]]
    assert time_bound("NtoM", grid, "base", n=1, N=2, M=2) == pytest.approx(4e-5)
    assert time_bound("NtoM", grid, "ours", n=1, N=2, M=2) == pytest.approx(
        2 * 4 * 4e-6)


@pytest.mark.parametrize("setting, tofs, which, fields, match", [
    ("MPNV", None, "base", {"n": 1, "N": 2, "M": 2}, r"must give verifier-prover flights as a 2x2"),
    ("MPNV", [1e-6, 2e-6], "base", {"n": 1, "N": 2, "M": 2}, r"must be a nested sequence"),
    ("1PNV", None, "base", {"n": 1, "N": 2}, r"must give 2 prover-verifier flights$"),
    ("1PNV", 1e-6, "base", {"n": 1, "N": 2}, r"must be a sequence of prover-verifier flights"),
], ids=["grid-none", "grid-of-numbers", "vector-none", "vector-a-number"])
def test_time_bound_refuses_tofs_of_no_shape(setting, tofs, which, fields, match):
    with pytest.raises(MissingToF, match="field 'tofs' " + match):
        time_bound(setting, tofs, which, **fields)


def test_time_bound_refuses_an_unknown_setting():
    with pytest.raises(MissingField, match=r"field 'setting' must be one of .*, got '2PNV'"):
        time_bound("2PNV", [1e-6], "base", n=1)


def test_time_bound_shape_errors_name_tofs():
    with pytest.raises(MissingToF, match="tofs"):
        time_bound("1PNV", [1e-6], "base", n=1, N=2)
    with pytest.raises(MissingToF, match="tofs"):
        time_bound("MPNV", [[1e-6], [2e-6]], "base", n=1, N=2, M=2)
    with pytest.raises(MissingToF, match="tofs"):
        # chain needs M + 1 hops, not M
        time_bound("1toM", [1e-6, 2e-6], "ours", n=1, M=2)


# ---------------------------------------------------------------------------
# confidence arithmetic


def test_dbc_known_values():
    assert dbc(10, 0.5) == 0.96875
    assert dbc(10, 0.0) == 0.9990234375
    assert dbc(0, 0.0) == 0.0


def test_dbc_avg_exact_fractions():
    half = dbc_avg([10] * 10, [0.5] * 5 + [0.0] * 5)
    assert half == pytest.approx(float(Fraction(2015, 2048)), abs=1e-15)
    heavy = dbc_avg([10] * 10, [0.9] * 5 + [0.0] * 5)
    assert heavy == pytest.approx(float(Fraction(1535, 2048)), abs=1e-12)


def test_dbc_ap_known_value():
    assert dbc_ap(2, [4] * 10, [0.5] * 10) == 0.9375


def test_confidence_domain_errors():
    with pytest.raises(MissingField):
        dbc(-1, 0.5)
    with pytest.raises(MissingField):
        dbc(5, 1.5)
    with pytest.raises(LengthMismatch):
        dbc_avg([10, 10], [0.5])
    with pytest.raises(MissingField):
        dbc_avg([], [])
    with pytest.raises(LengthMismatch):
        dbc_ap(2, [1], [0.5, 0.5])
    with pytest.raises(MissingField, match="field 'n_p' must name at least one node"):
        dbc_ap(2, [], [])


@given(n=st.integers(min_value=0, max_value=40),
       pr=st.floats(min_value=0.0, max_value=1.0))
def test_dbc_stays_in_unit_interval(n, pr):
    v = dbc(n, pr)
    assert 0.0 <= v < 1.0


@given(n=st.integers(min_value=1, max_value=30),
       pr=st.floats(min_value=0.0, max_value=0.99))
def test_dbc_monotone_in_rounds(n, pr):
    assert dbc(n + 1, pr) > dbc(n, pr)


@settings(max_examples=200)
@given(n_a=st.integers(min_value=1, max_value=20),
       n_p=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=8),
       prs=st.data())
def test_dbc_ap_floor_from_active_rounds(n_a, n_p, prs):
    """Active rounds alone guarantee 1 - 2^-n_a; passive padding only helps."""
    pr = prs.draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                           min_size=len(n_p), max_size=len(n_p)))
    v = dbc_ap(n_a, n_p, pr)
    floor = 1.0 - 2.0 ** (-n_a)
    assert v >= floor - 1e-12
    # the floor is tight when passive rounds are worthless (pr = 1)
    assert dbc_ap(n_a, n_p, [1.0] * len(n_p)) == pytest.approx(floor, abs=1e-15)


# ---------------------------------------------------------------------------
# figure grids


def test_figure_data_is_byte_stable():
    for which in ("6a", "6b", "6c", "6d"):
        assert emit_figure_data(which) == emit_figure_data(which)


def test_figure_confidence_grid_cells():
    lines = emit_figure_data("6a").splitlines()
    assert lines[0] == "pr_ch,fraction_cheating,value"
    assert len(lines) == 1 + 11 * 11
    assert "0.5,0.5,0.98388671875" in lines
    assert lines[1] == "0.0,0.0,0.9990234375"   # nobody cheats
    assert lines[-1] == "1.0,1.0,0.0"           # everyone guesses for free


def test_figure_split_grid_header():
    lines = emit_figure_data("6b").splitlines()
    assert lines[0] == "n_a,pr_ch,value"
    assert len(lines) == 1 + 10 * 11


def test_figure_count_grid_cells():
    lines = emit_figure_data("6c").splitlines()
    assert lines[0] == "n_a,d_a,value"
    assert lines[-1] == "10,1.0,2000"            # full-active limit = 2nNM


def test_figure_savings_cells():
    lines = emit_figure_data("6d").splitlines()
    assert lines[0] == "group_size,fraction,value"
    assert "30,0.6,61.0" in lines
    assert "30,0.8,32.0" in lines
    assert "30,1.0,0.0" in lines


def test_unknown_figure_rejected():
    with pytest.raises(UnknownFigure, match="which"):
        emit_figure_data("7x")


# ---------------------------------------------------------------------------
# trace reconciliation


def test_reconcile_rapid_counts_match():
    s = mpnv_scenario(n=2, n_a=1, d_a=0.5, n_verifiers=3, m_provers=2)
    r = run_scenario(s)
    rep = reconcile(r.trace, mpnv_run_count(2, 1, 0.5, 3, 2))
    assert rep.matches and rep.simulated == rep.expected == 12
    assert rep.discrepancies == ()


def test_reconcile_flags_wrong_expectation():
    r = run_scenario(oneway_scenario(n=3))
    rep = reconcile(r.trace, 999)
    assert not rep.matches
    assert rep.simulated == 6
    assert any("999" in d for d in rep.discrepancies)


def test_reconcile_total_scope():
    r = run_scenario(oneway_scenario(n=3))
    rep = reconcile(r.trace, 8, scope="total")
    assert rep.matches  # 6 rapid + commit + open


def test_reconcile_bad_scope_reports_instead_of_raising():
    r = run_scenario(oneway_scenario(n=1))
    rep = reconcile(r.trace, 2, scope="everything")
    assert not rep.matches
    assert any("scope" in d for d in rep.discrepancies)
