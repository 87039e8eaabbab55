"""End-to-end acceptance gate.

Ten criteria, each as one test that prints a single PASS/FAIL line.  Every
comparison is exact equality of canonical forms — there are no numerical
tolerances anywhere.  Stated runtime budgets are asserted as part of the
criterion.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines as they happen.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

from sunbasis.algebra import (
    AlgebraElement,
    dagger,
    element_from_json,
    multiply,
    scalar_product,
)
from sunbasis.basis import (
    assemble,
    run_suite,
    verify_completeness_and_nesting,
    verify_multiplication_table,
    verify_orthonormality,
)
from sunbasis.cli import main as cli_main
from sunbasis.coefficients import PolyN, Surd
from sunbasis.matrix_rep import rank, represent
from sunbasis.permutations import Permutation
from sunbasis.projectors import (
    dimension_poly,
    hermitian_mold,
    hermitian_projector,
    hermitian_staircase,
    symmetrizer,
    young_projector,
)
from sunbasis.tableaux import (
    YoungTableau,
    dimension_formula,
    enumerate_tableaux,
    partitions,
    tableau_permutation,
    tableaux_of_shape,
)
from sunbasis.transitions import (
    transition,
    unitary_transition_compact,
    unitary_transition_general,
    young_transition,
)


def criterion(number: int, description: str, limit: float | None = None):
    """Time the body, enforce the runtime budget, print one verdict line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
                elapsed = time.monotonic() - start
                if limit is not None and elapsed >= limit:
                    raise AssertionError(
                        f"runtime {elapsed:.2f}s exceeded the {limit}s budget"
                    )
            except BaseException:
                elapsed = time.monotonic() - start
                print(f"ACCEPTANCE {number}: FAIL — {description} ({elapsed:.2f}s)")
                raise
            print(f"ACCEPTANCE {number}: PASS — {description} ({elapsed:.2f}s)")

        return wrapper

    return deco


def run_cli(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(args)
    return rc, out.getvalue()


def S(m: int, *blocks: tuple[int, ...]) -> AlgebraElement:
    return symmetrizer(tuple(blocks), m, "sym")


def A(m: int, *blocks: tuple[int, ...]) -> AlgebraElement:
    return symmetrizer(tuple(blocks), m, "anti")


def perm(m: int, *cycles: tuple[int, ...]) -> AlgebraElement:
    return AlgebraElement.from_permutation(Permutation.from_cycles(m, tuple(cycles)))


def chain(*elements: AlgebraElement) -> AlgebraElement:
    acc = elements[0]
    for e in elements[1:]:
        acc = multiply(acc, e)
    return acc


def same_sign_family(got: AlgebraElement, got_rev: AlgebraElement,
                     want: AlgebraElement, want_rev: AlgebraElement) -> bool:
    """Equality of a transition pair up to one overall sign shared by both."""
    if got == want and got_rev == want_rev:
        return True
    minus = Surd.rational(-1)
    return got == want.scale(minus) and got_rev == want_rev.scale(minus)


# -- criterion 1: m=3 Hermitian basis ----------------------------------------


@criterion(1, "m=3 hermitian basis matches the four projectors and two transitions", limit=1.0)
def test_criterion_01_m3_hermitian_basis():
    rc, out = run_cli(["basis", "--m", "3", "--kind", "hermitian"])
    assert rc == 0
    blocks = json.loads(out)["basis"]["blocks"]
    assert [tuple(b["diagram"]) for b in blocks] == [(3,), (2, 1), (1, 1, 1)]
    ops = [
        [[element_from_json(e) for e in row] for row in b["operators"]]
        for b in blocks
    ]

    four_thirds = Surd.rational(Fraction(4, 3))
    root = Surd.sqrt(Fraction(4, 3))
    p2 = chain(S(3, (1, 2)), A(3, (1, 3)), S(3, (1, 2))).scale(four_thirds)
    p3 = chain(A(3, (1, 2)), S(3, (1, 3)), A(3, (1, 2))).scale(four_thirds)
    t23 = chain(S(3, (1, 2)), perm(3, (2, 3)), A(3, (1, 2))).scale(root)
    t32 = chain(A(3, (1, 2)), perm(3, (2, 3)), S(3, (1, 2))).scale(root)

    assert ops[0][0][0] == S(3, (1, 2, 3))
    assert ops[2][0][0] == A(3, (1, 2, 3))
    assert ops[1][0][0] == p2
    assert ops[1][1][1] == p3
    # off-diagonal pair compared up to one global sign; grid entry [i][j]
    # maps the image of tableau j onto tableau i
    assert same_sign_family(ops[1][0][1], ops[1][1][0], t23, t32)
    assert dagger(ops[1][0][1]) == ops[1][1][0]

    tabs = enumerate_tableaux(3)
    assert transition(tabs[1], tabs[2]).tau_squared == Fraction(4, 3)
    assert transition(tabs[2], tabs[1]).tau_squared == Fraction(4, 3)


# -- criterion 2: m=3 Young basis --------------------------------------------


@criterion(2, "m=3 young basis matches, including the non-orthogonality trace", limit=1.0)
def test_criterion_02_m3_young_basis():
    b = assemble(3, "young")
    four_thirds = Surd.rational(Fraction(4, 3))
    y2 = multiply(S(3, (1, 2)), A(3, (1, 3))).scale(four_thirds)
    y3 = multiply(S(3, (1, 3)), A(3, (1, 2))).scale(four_thirds)
    t23 = chain(S(3, (1, 2)), perm(3, (2, 3)), A(3, (1, 2))).scale(four_thirds)

    assert b.blocks[0].operators[0][0] == S(3, (1, 2, 3))
    assert b.blocks[2].operators[0][0] == A(3, (1, 2, 3))
    assert b.blocks[1].operators[0][0] == y2
    assert b.blocks[1].operators[1][1] == y3
    assert b.blocks[1].operators[0][1] == t23

    tabs = enumerate_tableaux(3)
    assert young_transition(tabs[1], tabs[2]).element == t23
    # <Y_2, Y_3> = -(N^3 - N)/9: the projectors are not orthogonal in the
    # trace inner product even at degree three
    want = PolyN({3: Surd.rational(Fraction(-1, 9)), 1: Surd.rational(Fraction(1, 9))})
    assert scalar_product(y2, y3) == want


# -- criterion 3: m=4 blocks, dimensions, transition constants ---------------


def _linear(shift: int) -> PolyN:
    return PolyN({1: Surd.rational(1), 0: Surd.rational(shift)})


@criterion(3, "m=4 block sizes, dimension polynomials, and tau^2 grid", limit=5.0)
def test_criterion_03_m4_structure():
    b = assemble(4, "hermitian")
    assert [blk.size for blk in b.blocks] == [1, 3, 2, 3, 1]

    expected_dims = {
        (4,): _linear(0) * _linear(1) * _linear(2) * _linear(3) * Fraction(1, 24),
        (3, 1): _linear(0) * _linear(2) * _linear(1) * _linear(-1) * Fraction(1, 8),
        (2, 2): _linear(0) * _linear(0) * _linear(1) * _linear(-1) * Fraction(1, 12),
        (2, 1, 1): _linear(0) * _linear(-2) * _linear(1) * _linear(-1) * Fraction(1, 8),
        (1, 1, 1, 1): _linear(0) * _linear(-1) * _linear(-2) * _linear(-3) * Fraction(1, 24),
    }
    for blk in b.blocks:
        want = expected_dims[blk.diagram.rows]
        assert dimension_formula(blk.diagram) == want
        assert dimension_poly(hermitian_projector(blk.tableaux[0])) == want

    # squares of the printed surd constants, block by block; the grid is
    # symmetric in its two tableau arguments
    expected_tau = {
        ((3, 1), 1, 2): Fraction(2),
        ((3, 1), 1, 3): Fraction(3, 2),
        ((3, 1), 2, 3): Fraction(3),
        ((2, 2), 1, 2): Fraction(4, 3),
        ((2, 1, 1), 1, 2): Fraction(3),
        ((2, 1, 1), 1, 3): Fraction(3, 2),
        ((2, 1, 1), 2, 3): Fraction(2),
    }
    values = set()
    for (shape, i, j), want in expected_tau.items():
        tabs = tableaux_of_shape(next(d for d in partitions(4) if d.rows == shape))
        forward = unitary_transition_compact(tabs[i - 1], tabs[j - 1])
        backward = unitary_transition_compact(tabs[j - 1], tabs[i - 1])
        assert forward.tau_squared == backward.tau_squared == want
        values.add(want)
    assert values == {Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4, 3)}


# -- criterion 4: multiplication table ---------------------------------------


@criterion(4, "matrix-unit multiplication table, exhaustive m=3,4,5")
def test_criterion_04_multiplication_table():
    for m, products in ((3, 36), (4, 576)):
        report = verify_multiplication_table(assemble(m, "hermitian"))
        assert report.passed
        assert report.checked == products

    start = time.monotonic()
    report = verify_multiplication_table(assemble(5, "hermitian"))
    elapsed = time.monotonic() - start
    assert report.passed
    assert report.checked == 14_400
    assert elapsed < 600, f"m=5 table took {elapsed:.1f}s, budget 600s"


# -- criterion 5: orthonormality ---------------------------------------------


@criterion(5, "orthonormality, exhaustive m<=4 and a seeded 500-pair sample at m=5")
def test_criterion_05_orthonormality():
    for m in (2, 3, 4):
        report = verify_orthonormality(assemble(m, "hermitian"))
        assert report.passed
        ops = sum(blk.size**2 for blk in assemble(m, "hermitian").blocks)
        assert report.checked == ops * ops
    report = verify_orthonormality(assemble(5, "hermitian"), sample=500, seed=0)
    assert report.passed
    assert report.checked == 500


# -- criterion 6: construction equivalences ----------------------------------


@criterion(6, "staircase = mold and compact = general, exhaustively for m<=5")
def test_criterion_06_construction_equivalences():
    for m in range(1, 6):
        for t in enumerate_tableaux(m):
            assert hermitian_staircase(t).element == hermitian_mold(t).element
    for m in range(2, 6):
        for d in partitions(m):
            tabs = tableaux_of_shape(d)
            for a in tabs:
                for b in tabs:
                    compact = unitary_transition_compact(a, b)
                    general = unitary_transition_general(a, b)
                    assert compact.element == general.element, (a, b)


# -- criterion 7: completeness, nesting, counting ----------------------------


@criterion(7, "sum of projectors is the identity, nesting holds, counting identity to m=7")
def test_criterion_07_completeness_and_counting():
    for m in range(1, 6):
        report = verify_completeness_and_nesting(m)
        assert report.passed, report.failures
    for m in range(1, 8):
        assert sum(d.tableau_count() ** 2 for d in partitions(m)) == factorial(m)


# -- criterion 8: breakdown witnesses ----------------------------------------


@criterion(8, "young non-orthogonality at m=5, non-unitarity at m=3, conjugation failure at m=6")
def test_criterion_08_breakdown_witnesses():
    # two distinct degree-5 tableaux whose young projectors do not
    # annihilate each other
    theta5 = YoungTableau(((1, 2, 3), (4, 5)))
    phi5 = YoungTableau(((1, 3, 5), (2, 4)))
    assert theta5 != phi5
    cross = multiply(young_projector(theta5).element, young_projector(phi5).element)
    assert not cross.is_zero()

    # the young transition pair is not related by dagger, so those
    # operators cannot be unitary
    tabs = enumerate_tableaux(3)
    forward = young_transition(tabs[1], tabs[2]).element
    backward = young_transition(tabs[2], tabs[1]).element
    assert dagger(forward) != backward

    # conjugating a hermitian projector by the relabelling permutation does
    # not give the other projector, yet the two do not annihilate
    theta6 = YoungTableau(((1, 3, 5), (2, 4), (6,)))
    phi6 = YoungTableau(((1, 2, 6), (3, 5), (4,)))
    rho = tableau_permutation(theta6, phi6)
    assert rho == Permutation.from_cycles(6, ((2, 3), (4, 6, 5)))
    p_theta = hermitian_projector(theta6).element
    conj = chain(
        AlgebraElement.from_permutation(rho),
        hermitian_projector(phi6).element,
        AlgebraElement.from_permutation(rho.inverse()),
    )
    assert p_theta != conj
    assert not multiply(p_theta, conj).is_zero()


# -- criterion 9: dimensional zeros ------------------------------------------


@criterion(9, "operators vanish concretely exactly when a column is too long", limit=30.0)
def test_criterion_09_dimensional_zeros():
    for m, n in ((3, 2), (3, 1), (4, 3), (4, 2), (4, 1)):
        b = assemble(m, "hermitian")
        for blk in b.blocks:
            too_long = max(blk.diagram.column_lengths()) > n
            mats = [represent(op, n) for row in blk.operators for op in row]
            assert all(mat.is_zero() == too_long for mat in mats), (m, n, blk.diagram)
            if not too_long:
                for i, t in enumerate(blk.tableaux):
                    want = dimension_formula(t.shape).eval(n).as_fraction()
                    got = rank(represent(blk.operators[i][i], n))
                    assert got == want, (m, n, t)


# -- criterion 10: headless verification -------------------------------------


@criterion(10, "headless verify subcommand honors the exit-code contract; full suite in budget")
def test_criterion_10_headless_suite(monkeypatch):
    ok = subprocess.run(
        [sys.executable, "-m", "sunbasis.cli", "verify", "--m", "3", "--suite", "all"],
        capture_output=True,
        timeout=300,
    )
    assert ok.returncode == 0
    usage = subprocess.run(
        [sys.executable, "-m", "sunbasis.cli", "verify", "--m", "0", "--suite", "all"],
        capture_output=True,
        timeout=300,
    )
    assert usage.returncode == 2

    # exit code 1 when any suite reports a failure
    from sunbasis.basis import CheckFailure, VerificationReport

    def fake_run_suite(m, kind, suites=None, *, sample=None, seed=None, jobs=None):
        return [
            VerificationReport(
                name="multiplication_table",
                checked=1,
                failures=(CheckFailure(identity="planted", witness="planted"),),
            )
        ]

    monkeypatch.setattr("sunbasis.basis.run_suite", fake_run_suite)
    rc, _ = run_cli(["verify", "--m", "3", "--suite", "all"])
    assert rc == 1
    monkeypatch.undo()

    # the full default sweep: exhaustive for m<=4 plus the sampled core at m=5
    start = time.monotonic()
    for m in (1, 2, 3, 4):
        assert all(r.passed for r in run_suite(m, "hermitian", seed=0))
    assert all(r.passed for r in run_suite(5, "hermitian", seed=0))
    elapsed = time.monotonic() - start
    assert elapsed < 900, f"full suite took {elapsed:.1f}s, budget 900s"
