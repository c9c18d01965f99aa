"""Closed-form cost and confidence arithmetic for group distance bounding.

Message counts and completion-time bounds compare each group protocol
against its base case of independent pairwise exchanges, across five
settings:

    MPNV  many provers, many verifiers
    1PNV  one prover, many verifiers
    MP1V  many provers, one verifier
    1toM  one node bounding M others over a shared chain
    NtoM  two groups bounding each other

The distance-bounding confidence (dbc) family scores how hard it is for
a guessing prover to survive the rapid phase.

All time formulas, and the MP1V "ours" count, are evaluator-only: they
price hypothetical deployments and no simulated run reproduces them
message for message.  Counts for the other settings are reconciled
against simulated traces by reconcile().
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core import GdbSimError, LengthMismatch, active_verifier_count, round_half_up
from .simkit import Trace

SETTINGS = ("MPNV", "1PNV", "MP1V", "1toM", "NtoM")
FIGURES = ("6a", "6b", "6c", "6d")

class MissingField(GdbSimError):
    """A count or time formula needs a parameter that was not supplied."""


class MissingToF(GdbSimError):
    """A time formula needs pairwise flight times that were not supplied."""


class UnknownFigure(GdbSimError):
    """Requested figure panel is not one of the known grids."""


# ---------------------------------------------------------------------------
# message counts


@dataclass(frozen=True)
class CountFormulaInput:
    """Parameters of one cost-formula evaluation.

    Only the fields a given setting uses need to be present; evaluating
    a formula with a hole raises MissingField naming the hole.
    """

    setting: str
    n: Optional[int] = None
    n_a: Optional[int] = None
    d_a: Optional[float] = None
    N: Optional[int] = None
    M: Optional[int] = None

    def need(self, *fields: str) -> List[float]:
        vals = []
        for f in fields:
            v = getattr(self, f)
            if v is None:
                raise MissingField(f"setting {self.setting!r} needs field {f!r}")
            vals.append(v)
        return vals


def _check_which(which: str) -> None:
    if which not in ("base", "ours"):
        raise MissingField(f"field 'which' must be 'base' or 'ours', got {which!r}")


def msg_count(inp: CountFormulaInput, which: str) -> int:
    """Total messages of one protocol run under the given setting.

    base prices independent pairwise exchanges; ours prices the group
    protocol.  Active-verifier fractions translate to whole verifiers
    the same way the simulator selects them.
    """
    _check_which(which)
    s = inp.setting
    if s == "MPNV":
        if which == "base":
            n, N, M = inp.need("n", "N", "M")
            return int(2 * n * N * M)
        n_a, d_a, N, M = inp.need("n_a", "d_a", "N", "M")
        return int((2 * n_a + 1) * active_verifier_count(d_a, int(N)) * M)
    if s == "1PNV":
        if which == "base":
            n, N = inp.need("n", "N")
            return int((2 * n + 1) * N)
        n_a, d_a, N = inp.need("n_a", "d_a", "N")
        return int((2 * n_a + 1) * active_verifier_count(d_a, int(N)))
    if s == "MP1V":
        n, M = inp.need("n", "M")
        n, M = int(n), int(M)
        if which == "base":
            return (2 * n + 1) * M
        # evaluator-only: later provers reuse rounds already heard
        return 2 * n + sum((j + 1) * (n - ((M - 1) - j)) for j in range(1, M))
    if s == "1toM":
        n, M = inp.need("n", "M")
        return int(4 * n * M) if which == "base" else int(n * (2 * M + 1))
    if s == "NtoM":
        n, N, M = inp.need("n", "N", "M")
        return int(4 * n * N * M) if which == "base" else int(2 * n * (N + M))
    raise MissingField(f"field 'setting' must be one of {SETTINGS}, got {s!r}")


def mpnv_run_count(n: int, n_a: int, d_a: float, N: int, M: int) -> int:
    """Rapid-phase messages a simulated many-to-many run actually emits.

    Matches the closed form except in the full-activity limit, where the
    per-round closing message is redundant and dropped, landing exactly
    on the 2nNM base cost.
    """
    a = active_verifier_count(d_a, N)
    per_exchange = 2 * n_a if (n_a == n and a == N) else 2 * n_a + 1
    return per_exchange * a * M


def ntom_passive_run_count(
    n: int, n_a1: int, d_1: float, n_a2: int, d_2: float, N: int, M: int
) -> int:
    """Rapid-phase messages of a simulated two-group passive-mode run.

    Each group takes one verification phase against the other; a phase
    drops its closing message only in its own full-activity limit.
    """
    return mpnv_run_count(n, n_a1, d_1, N, M) + mpnv_run_count(n, n_a2, d_2, M, N)


def savings_percent(base: int, ours: int) -> float:
    """Message reduction of the group protocol, in percent of the base."""
    if base <= 0:
        raise MissingField("field 'base' must be a positive count")
    return 100.0 * (base - ours) / base


# ---------------------------------------------------------------------------
# completion-time bounds (evaluator-only)


def _tof_matrix(tofs: object, rows: int, cols: int, what: str) -> List[List[float]]:
    if tofs is None:
        raise MissingToF(f"field 'tofs' must give {what} as a {rows}x{cols} grid")
    try:
        grid = [[float(x) for x in row] for row in tofs]  # type: ignore[union-attr]
    except TypeError:
        raise MissingToF(f"field 'tofs' must be a nested sequence of {what}") from None
    if len(grid) != rows or any(len(r) != cols for r in grid):
        raise MissingToF(
            f"field 'tofs' must give {what} as a {rows}x{cols} grid, "
            f"got {len(grid)} rows"
        )
    return grid


def _tof_vector(tofs: object, length: int, what: str) -> List[float]:
    if tofs is None:
        raise MissingToF(f"field 'tofs' must give {length} {what}")
    try:
        vec = [float(x) for x in tofs]  # type: ignore[union-attr]
    except TypeError:
        raise MissingToF(f"field 'tofs' must be a sequence of {what}") from None
    if len(vec) != length:
        raise MissingToF(f"field 'tofs' must give {length} {what}, got {len(vec)}")
    return vec


def time_bound(
    setting: str,
    tofs: object,
    which: str,
    *,
    n: Optional[int] = None,
    n_a: Optional[int] = None,
    d_a: Optional[float] = None,
    N: Optional[int] = None,
    M: Optional[int] = None,
) -> float:
    """Total rapid-phase air time, in seconds.  Evaluator-only.

    Expected tofs shape per setting:

        MPNV, NtoM   N x M grid, entry [i][j] the one-way flight between
                     verifier i and prover j
        1PNV         vector of N prover-verifier flights
        MP1V         vector of M verifier-prover flights
        1toM         base: vector of M verifier-prover flights;
                     ours: vector of M+1 chain-hop flights, hop j
                     linking node j to node (j+1) mod (M+1)

    Fractions of active verifiers round to whole nodes exactly as the
    counting formulas do; the first that-many rows of the grid are the
    active ones.
    """
    _check_which(which)
    inp = CountFormulaInput(setting=setting, n=n, n_a=n_a, d_a=d_a, N=N, M=M)
    if setting == "MPNV":
        if which == "base":
            n_, N_, M_ = inp.need("n", "N", "M")
            grid = _tof_matrix(tofs, int(N_), int(M_), "verifier-prover flights")
            return 2 * n_ * sum(sum(row) for row in grid)
        n_a_, d_a_, N_, M_ = inp.need("n_a", "d_a", "N", "M")
        a = active_verifier_count(d_a_, int(N_))
        grid = _tof_matrix(tofs, int(N_), int(M_), "verifier-prover flights")
        return (2 * n_a_ + 1) * sum(sum(grid[j]) for j in range(a))
    if setting == "1PNV":
        if which == "base":
            n_, N_ = inp.need("n", "N")
            vec = _tof_vector(tofs, int(N_), "prover-verifier flights")
            return 2 * n_ * sum(vec)
        n_a_, d_a_, N_ = inp.need("n_a", "d_a", "N")
        a = active_verifier_count(d_a_, int(N_))
        vec = _tof_vector(tofs, int(N_), "prover-verifier flights")
        return (2 * n_a_ + 1) * sum(vec[:a])
    if setting == "MP1V":
        n_, M_ = inp.need("n", "M")
        vec = _tof_vector(tofs, int(M_), "verifier-prover flights")
        if which == "base":
            return 2 * n_ * sum(vec)
        # slowest prover paces the shared rounds; the rest tail off once
        return n_ * max(vec) + sum(vec[: int(M_) - 1])
    if setting == "1toM":
        n_, M_ = inp.need("n", "M")
        if which == "base":
            vec = _tof_vector(tofs, int(M_), "verifier-prover flights")
            return 4 * n_ * sum(vec)
        vec = _tof_vector(tofs, int(M_) + 1, "chain-hop flights")
        return 2 * n_ * sum(vec)
    if setting == "NtoM":
        n_, N_, M_ = inp.need("n", "N", "M")
        grid = _tof_matrix(tofs, int(N_), int(M_), "cross-group flights")
        if which == "base":
            return 4 * n_ * sum(sum(row) for row in grid)
        return 2 * n_ * (N_ + M_) * max(max(row) for row in grid)
    raise MissingField(f"field 'setting' must be one of {SETTINGS}, got {setting!r}")


# ---------------------------------------------------------------------------
# distance-bounding confidence


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise MissingField(f"field {name!r} must be within [0, 1], got {p!r}")


def _check_rounds(name: str, n: int) -> None:
    if n < 0:
        raise MissingField(f"field {name!r} must be >= 0, got {n!r}")


def dbc(n: int, pr_ch: float) -> float:
    """Confidence that n rapid rounds were answered by the far node.

    pr_ch is the per-round probability that a cheating responder guesses
    the challenge early enough to shave the round trip; surviving all n
    rounds by luck has probability 2^(n (pr_ch - 1)).
    """
    _check_rounds("n", n)
    _check_prob("pr_ch", pr_ch)
    return 1.0 - 2.0 ** (n * (pr_ch - 1.0))


def dbc_avg(n_rounds: Sequence[int], pr_ch: Sequence[float]) -> float:
    """Mean confidence over a group with per-node rounds and guess rates."""
    if len(n_rounds) != len(pr_ch):
        raise LengthMismatch(
            f"{len(n_rounds)} round counts for {len(pr_ch)} guess rates"
        )
    if not n_rounds:
        raise MissingField("field 'n_rounds' must name at least one node")
    for n_i, p_i in zip(n_rounds, pr_ch):
        _check_rounds("n_rounds", n_i)
        _check_prob("pr_ch", p_i)
    total = len(n_rounds)
    return (total - sum(2.0 ** (n_i * (p_i - 1.0)) for n_i, p_i in zip(n_rounds, pr_ch))) / total


def dbc_ap(n_a: int, n_p: Sequence[int], pr_ch: Sequence[float]) -> float:
    """Confidence when n_a active rounds are padded by passive ones.

    Each node i additionally overhears n_p[i] rounds it could only cheat
    with per-round probability pr_ch[i]; the active rounds must all be
    guessed outright.
    """
    _check_rounds("n_a", n_a)
    if len(n_p) != len(pr_ch):
        raise LengthMismatch(f"{len(n_p)} passive counts for {len(pr_ch)} guess rates")
    if not n_p:
        raise MissingField("field 'n_p' must name at least one node")
    for n_i, p_i in zip(n_p, pr_ch):
        _check_rounds("n_p", n_i)
        _check_prob("pr_ch", p_i)
    total = len(n_p)
    mean_escape = sum(2.0 ** (n_i * (p_i - 1.0)) for n_i, p_i in zip(n_p, pr_ch)) / total
    return 1.0 - (2.0 ** (-n_a)) * mean_escape


# ---------------------------------------------------------------------------
# figure grids


def _csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    def cell(v: object) -> str:
        return repr(v) if isinstance(v, float) else str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def emit_figure_data(which: str) -> str:
    """CSV grid behind one figure panel, byte-stable across runs.

    6a  mean confidence of a 10-node group, 10 rounds each, as the
        cheater fraction and their guess rate vary
    6b  active-plus-passive confidence for 10 provers at 10 total
        rounds, as the active share and guess rate vary
    6c  rapid-phase messages of a 10x10 many-to-many run over active
        rounds and active-verifier fraction
    6d  message savings over the pairwise base as equal prover and
        verifier groups grow, activity fraction applied to both knobs

    Header names every swept parameter plus 'value'; rows are sorted by
    the parameter tuple.
    """
    if which == "6a":
        n_nodes, n = 10, 10
        rows: List[Sequence[object]] = []
        for i in range(11):
            pr = i / 10
            for j in range(11):
                frac = j / 10
                k = round_half_up(frac * n_nodes)
                rates = [pr] * k + [0.0] * (n_nodes - k)
                rows.append((pr, frac, dbc_avg([n] * n_nodes, rates)))
        return _csv(("pr_ch", "fraction_cheating", "value"), rows)
    if which == "6b":
        n_nodes, n = 10, 10
        rows = []
        for n_a in range(1, n + 1):
            for i in range(11):
                pr = i / 10
                rows.append((
                    n_a, pr,
                    dbc_ap(n_a, [n - n_a] * n_nodes, [pr] * n_nodes),
                ))
        return _csv(("n_a", "pr_ch", "value"), rows)
    if which == "6c":
        n, N, M = 10, 10, 10
        rows = []
        for n_a in range(1, n + 1):
            for j in range(1, 11):
                d_a = j / 10
                rows.append((n_a, d_a, mpnv_run_count(n, n_a, d_a, N, M)))
        return _csv(("n_a", "d_a", "value"), rows)
    if which == "6d":
        n = 10
        rows = []
        for size in range(5, 31, 5):
            base = msg_count(CountFormulaInput("MPNV", n=n, N=size, M=size), "base")
            for j in range(1, 11):
                frac = j / 10
                n_a = round_half_up(frac * n)
                ours = mpnv_run_count(n, n_a, frac, size, size)
                rows.append((size, frac, savings_percent(base, ours)))
        return _csv(("group_size", "fraction", "value"), rows)
    raise UnknownFigure(f"field 'which' must be one of {FIGURES}, got {which!r}")


# ---------------------------------------------------------------------------
# trace reconciliation


@dataclass(frozen=True)
class ReconcileReport:
    """Outcome of checking a trace against a closed-form count."""

    simulated: int
    expected: int
    scope: str
    discrepancies: Tuple[str, ...]

    @property
    def matches(self) -> bool:
        return not self.discrepancies


def reconcile(trace: Trace, closed_form: int, scope: str = "rapid") -> ReconcileReport:
    """Compare what a run emitted with what the formula predicted.

    scope selects which emissions count: 'rapid' for the timed phase
    only, 'total' for everything including commitments, openings and
    reports.  Never raises; disagreement lands in the report.
    """
    if scope == "rapid":
        simulated = trace.count(phase="rapid")
    elif scope == "total":
        simulated = len(trace.emissions)
    else:
        return ReconcileReport(
            simulated=-1, expected=closed_form, scope=scope,
            discrepancies=(f"field 'scope' must be 'rapid' or 'total', got {scope!r}",),
        )
    disc: Tuple[str, ...] = ()
    if simulated != closed_form:
        disc = (
            f"trace emitted {simulated} {scope} messages, formula expects {closed_form}",
        )
    return ReconcileReport(
        simulated=simulated, expected=closed_form, scope=scope, discrepancies=disc
    )
