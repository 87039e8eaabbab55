import gc
import importlib
import json
import math
import pkgutil
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sunbasis
from sunbasis import _fast
from sunbasis import basis as basis_module
from sunbasis._linalg import surd_rank
from sunbasis.algebra import (
    AlgebraElement,
    _square_sum,
    dagger,
    element_from_json,
    multiply,
    scalar_product,
    trace,
)
from sunbasis.basis import (
    BasisBlock,
    BasisMatrix,
    CheckFailure,
    VerificationReport,
    assemble,
    basis_from_json,
    basis_to_json,
    run_suite,
    verify_completeness_and_nesting,
    verify_linear_independence,
    verify_multiplication_table,
    verify_orthonormality,
)
from sunbasis.coefficients import PolyN, Surd, squarefree_decompose
from sunbasis.permutations import all_permutations
from sunbasis.projectors import (
    SymmetrizerSet,
    _normalize,
    hermitian_projector,
    symmetrizer,
    young_projector,
)
from sunbasis.tableaux import (
    YoungDiagram,
    YoungTableau,
    _contents,
    dimension_formula,
    enumerate_tableaux,
    tableaux_of_shape,
)
from sunbasis.transitions import unitary_transition_compact


def T(*rows):
    return YoungTableau(tuple(tuple(r) for r in rows))


# -- per-pair references ---------------------------------------------------------
#
# The suites prove a basis block by block, and check an unproved block
# operator by operator; these loops compute each product and pairing on its
# own and are the reference the suites' reports must equal, failures, order
# and witness text included.


def reference_table(b: BasisMatrix) -> VerificationReport:
    labels = b.labels()
    names = [b.describe(label) for label in labels]
    ops = [b.operator(label) for label in labels]
    position = {label: k for k, label in enumerate(labels)}
    failures = []
    for a, (ba, ia, ja) in enumerate(labels):
        for c, (bc, kc, lc) in enumerate(labels):
            got = multiply(ops[a], ops[c])
            if ba == bc and ja == kc:
                k = position[(ba, ia, lc)]
                expected, rhs = ops[k], names[k]
            else:
                expected, rhs = AlgebraElement.zero(b.m), "0"
            if got != expected:
                failures.append(
                    CheckFailure(
                        identity=f"{names[a]} * {names[c]} == {rhs}",
                        witness=basis_module._first_difference(expected, got),
                    )
                )
    return VerificationReport("multiplication_table", len(labels) ** 2, tuple(failures))


def reference_orthonormality(b: BasisMatrix, sample=None, seed=0) -> VerificationReport:
    labels = b.labels()
    names = [b.describe(label) for label in labels]
    ops = [b.operator(label) for label in labels]
    n = len(labels)
    if sample is None:
        pairs = [(a, c) for a in range(n) for c in range(n)]
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(sample)]
    failures = []
    for a, c in pairs:
        value = scalar_product(ops[a], ops[c])
        if labels[a] == labels[c]:
            blk, i, _ = labels[a]
            expected, rhs = dimension_formula(b.blocks[blk].tableaux[i].shape), f"dim({names[a]})"
        else:
            expected, rhs = PolyN(), "0"
        if value != expected:
            failures.append(
                CheckFailure(
                    identity=f"<{names[a]}, {names[c]}> == {rhs}",
                    witness=f"expected {expected}, got {value}",
                )
            )
    return VerificationReport("orthonormality", len(pairs), tuple(failures))


def reference_independence(b: BasisMatrix) -> VerificationReport:
    index = {p: k for k, p in enumerate(all_permutations(b.m))}
    rows = []
    for _, op in b.flat():
        row: dict = {}
        for p, c in op.items():
            for d, q in c.terms():
                row.setdefault(d, {})[index[p]] = q
        rows.append(row)
    rank, expected = surd_rank(rows), math.factorial(b.m)
    failures = ()
    if rank != expected or rank != len(rows):
        failures = (
            CheckFailure(
                identity=f"rank of the {len(rows)}x{expected} expansion == "
                + " == ".join(map(str, dict.fromkeys((len(rows), expected)))),
                witness=f"got rank {rank}",
            ),
        )
    return VerificationReport("linear_independence", 1, failures)


def _with_operator(b: BasisMatrix, blk: int, i: int, j: int, op) -> BasisMatrix:
    """Copy of ``b`` with operator [i][j] of block ``blk`` replaced."""
    block = b.blocks[blk]
    grid = [list(row) for row in block.operators]
    grid[i][j] = op
    blocks = list(b.blocks)
    blocks[blk] = BasisBlock(block.diagram, block.tableaux, tuple(tuple(r) for r in grid))
    return BasisMatrix(b.m, b.kind, tuple(blocks))


def _relabelled(b: BasisMatrix, seed: int) -> BasisMatrix:
    """The same basis with every block's tableaux in a seeded shuffled order."""
    rng = random.Random(seed)
    blocks = []
    for block in b.blocks:
        order = list(range(block.size))
        rng.shuffle(order)
        blocks.append(
            BasisBlock(
                block.diagram,
                tuple(block.tableaux[i] for i in order),
                tuple(tuple(block.operators[i][j] for j in order) for i in order),
            )
        )
    return BasisMatrix(b.m, b.kind, tuple(blocks))


def _unproved(b: BasisMatrix) -> set[int]:
    """The blocks of ``b`` that its verdict does not prove."""
    _, proved, _ = b._proof
    return {blk for (blk, _, _), ok in zip(b.labels(), proved) if not ok}


def _assert_matches_reference(b: BasisMatrix) -> None:
    assert verify_multiplication_table(b) == reference_table(b)
    if b.kind == "hermitian":
        assert verify_orthonormality(b) == reference_orthonormality(b)
    assert verify_linear_independence(b) == reference_independence(b)


# -- assembly ----------------------------------------------------------------


def test_single_box_is_identity_block():
    b = assemble(1, "hermitian")
    assert [blk.size for blk in b.blocks] == [1]
    assert b.blocks[0].operators[0][0] == AlgebraElement.identity(1)


@pytest.mark.parametrize(
    "m,sizes",
    [(1, [1]), (2, [1, 1]), (3, [1, 2, 1]), (4, [1, 3, 2, 3, 1])],
)
def test_block_sizes(m, sizes):
    for kind in ("hermitian", "young"):
        b = assemble(m, kind)
        assert [blk.size for blk in b.blocks] == sizes
        assert sum(s * s for s in sizes) == math.factorial(m)


def test_assemble_refuses_a_grid_with_an_operator_off_its_line(monkeypatch):
    # t's own bar in place of the transition from t onto s: nonzero and on
    # the right side of its line, but not on the left
    _clear_caches()
    s, t = tableaux_of_shape(YoungDiagram((3, 1)))[:2]
    bar = basis_module._mold_bar
    monkeypatch.setattr(
        basis_module, "_mold_bar", lambda a, b: bar(b, b) if (a, b) == (s, t) else bar(a, b)
    )
    message = r"^\(3,1\)\[1,2\]: product is not in its tableaux' Jucys–Murphy eigenspaces$"
    with pytest.raises(ValueError, match=message):
        assemble(4)
    assert basis_module._assemble.cache_info().currsize == 0


def test_assembly_builds_no_standalone_transition():
    # the grid's transitions are scaled bars, proved once by the verdict
    _clear_caches()
    assemble(5)
    assert unitary_transition_compact.cache_info().currsize == 0


def test_m3_hermitian_grid_entries():
    b = assemble(3, "hermitian")
    full_sym = symmetrizer(((1, 2, 3),), 3, "sym")
    full_anti = symmetrizer(((1, 2, 3),), 3, "anti")
    assert b.blocks[0].operators[0][0] == full_sym
    assert b.blocks[2].operators[0][0] == full_anti
    mixed = b.blocks[1]
    assert mixed.tableaux == (T((1, 2), (3,)), T((1, 3), (2,)))
    for i in range(2):
        assert mixed.operators[i][i] == hermitian_projector(mixed.tableaux[i]).element
    # off-diagonal entries are each other's daggers and compose to the diagonal
    t01, t10 = mixed.operators[0][1], mixed.operators[1][0]
    assert multiply(t01, t10) == mixed.operators[0][0]
    assert multiply(t10, t01) == mixed.operators[1][1]


def test_young_kind_diagonal_uses_young_projectors():
    b = assemble(3, "young")
    mixed = b.blocks[1]
    for i in range(2):
        assert mixed.operators[i][i] == young_projector(mixed.tableaux[i]).element


def test_young_kind_rejected_beyond_four():
    with pytest.raises(ValueError, match="beyond m=4"):
        assemble(5, "young")


def test_assemble_validation():
    with pytest.raises(ValueError, match="between 1 and 7"):
        assemble(0, "hermitian")
    with pytest.raises(ValueError, match="unknown basis kind"):
        assemble(3, "block")


def test_labels_and_describe():
    b = assemble(3, "hermitian")
    labels = b.labels()
    assert len(labels) == 6
    assert labels[0] == (0, 0, 0)
    assert b.describe((1, 0, 1)) == "(2,1)[1,2]"
    assert b.operator((1, 0, 1)) == b.blocks[1].operators[0][1]


# -- multiplication table ------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["hermitian", "young"])
def test_multiplication_table_passes(m, kind):
    report = verify_multiplication_table(assemble(m, kind))
    assert report.passed
    assert report.checked == math.factorial(m) ** 2


def _corrupted(b: BasisMatrix) -> BasisMatrix:
    """Copy with the first off-diagonal operator of the first size-2+ block doubled."""
    blk = next(k for k, block in enumerate(b.blocks) if block.size >= 2)
    return _with_operator(b, blk, 0, 1, b.blocks[blk].operators[0][1].scale(2))


def test_table_detects_corruption():
    bad = _corrupted(assemble(3, "hermitian"))
    report = verify_multiplication_table(bad)
    assert not report.passed
    assert report.failures
    ops = {bad.describe(label): op for label, op in bad.flat()}
    for f in report.failures:
        lhs, rhs = f.identity.split(" == ")
        left, right = lhs.split(" * ")
        got = multiply(ops[left], ops[right])
        want = AlgebraElement.zero(3) if rhs == "0" else ops[rhs]
        differ = [
            p for p in all_permutations(3) if got.coefficient(p) != want.coefficient(p)
        ]
        assert differ, f.identity
        p = differ[0]
        assert f"permutation {p}:" in f.witness
        assert f"expected {want.coefficient(p)}," in f.witness
        assert f.witness.endswith(f"got {got.coefficient(p)}")


# -- orthonormality -------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_orthonormality_exhaustive(m):
    report = verify_orthonormality(assemble(m, "hermitian"))
    assert report.passed
    assert report.checked == math.factorial(m) ** 2


def test_orthonormality_rejects_young():
    with pytest.raises(ValueError, match="hermitian basis kind"):
        verify_orthonormality(assemble(3, "young"))


def test_orthonormality_sampling_is_seeded():
    b = assemble(4, "hermitian")
    r1 = verify_orthonormality(b, sample=50, seed=11)
    r2 = verify_orthonormality(b, sample=50, seed=11)
    assert r1 == r2
    assert r1.checked == 50
    assert r1.passed


def test_orthonormality_detects_corruption():
    report = verify_orthonormality(_corrupted(assemble(3, "hermitian")))
    assert not report.passed


def test_orthonormality_witness_gives_expected_and_actual():
    b = assemble(3, "hermitian")
    bad = _corrupted(b)
    report = verify_orthonormality(bad)
    # the doubled operator pairs with itself to four times its dimension
    # and stays orthogonal to everything else
    name = bad.describe((1, 0, 1))
    dim = trace(b.blocks[1].operators[0][0])
    assert [(f.identity, f.witness) for f in report.failures] == [
        (f"<{name}, {name}> == dim({name})", f"expected {dim}, got {dim * 4}")
    ]


def test_orthonormality_reads_a_dimension_only_where_a_self_pairing_needs_it():
    # a block with no tableaux has no first operator; O_11 of the (3) block
    # after it, doubled, is the one operator that fails against itself;
    # ``basis_from_json`` refuses such a grid, so it is built directly
    empty = BasisBlock(YoungDiagram((2, 1)), (), ())
    b = BasisMatrix(3, "hermitian", (empty,) + assemble(3).blocks)
    bad = _with_operator(b, 1, 0, 0, b.blocks[1].operators[0][0].scale(2))
    report = verify_orthonormality(bad)
    name = bad.describe((1, 0, 0))
    dim = dimension_formula(bad.blocks[1].diagram)
    assert [(f.identity, f.witness) for f in report.failures] == [
        (f"<{name}, {name}> == dim({name})", f"expected {dim}, got {dim * 4}")
    ]
    assert report == reference_orthonormality(bad)


def test_orthonormality_expects_the_dimension_of_the_shape_not_of_the_grid():
    # doubling (3,1)[1,1] leaves every other operator of its block as it was:
    # their self-pairings still give dim(3,1), and only the doubled one fails
    b = assemble(4)
    blk = next(k for k, block in enumerate(b.blocks) if block.diagram.rows == (3, 1))
    bad = _with_operator(b, blk, 0, 0, b.blocks[blk].operators[0][0].scale(2))
    report = verify_orthonormality(bad)
    dim = dimension_formula(b.blocks[blk].diagram)
    assert [(f.identity, f.witness) for f in report.failures] == [
        ("<(3,1)[1,1], (3,1)[1,1]> == dim((3,1)[1,1])", f"expected {dim}, got {dim * 4}")
    ]
    assert report == reference_orthonormality(bad)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_a_self_pairing_on_its_line_is_read_off_its_coefficients(m):
    # ⟨O, O⟩ = dim(λ)·H_λ·Σ_g O[g]² for O on its line, at any scale
    b = assemble(m)
    for c in (2, Surd.sqrt(2), 1 + Surd.sqrt(3), Fraction(-1, 3)):
        for label, op in b.flat():
            blk, i, _ = label
            shape = b.blocks[blk].tableaux[i].shape
            o = op.scale(c)
            want = scalar_product(o, o)
            got = dimension_formula(shape) * (shape.hook_length() * _square_sum(o))
            assert got == want, (label, c)


def test_orthonormality_rejects_non_positive_sample():
    b = assemble(3, "hermitian")
    with pytest.raises(ValueError, match="sample must be positive, got -5"):
        verify_orthonormality(b, sample=-5)
    with pytest.raises(ValueError, match="sample must be positive, got 0"):
        verify_orthonormality(b, sample=0)
    with pytest.raises(ValueError, match="sample must be positive, got -2"):
        run_suite(3, sample=-2)


def test_unseeded_sampling_is_reproducible():
    bad = _corrupted(assemble(4, "hermitian"))
    first = verify_orthonormality(bad, sample=200)
    assert first.failures
    assert verify_orthonormality(bad, sample=200) == first
    assert first == verify_orthonormality(bad, sample=200, seed=0)
    assert run_suite(4, suites=("ortho",), sample=40) == run_suite(4, suites=("ortho",), sample=40)


# -- the suites against the per-pair references ------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["hermitian", "young"])
def test_kernels_match_reference(m, kind):
    _assert_matches_reference(assemble(m, kind))


def test_kernels_match_reference_at_m5():
    b = assemble(5, "hermitian")
    _assert_matches_reference(b)
    _assert_matches_reference(_relabelled(b, 7))


def _swapped(b, blk):
    grid = b.blocks[blk].operators
    return _with_operator(_with_operator(b, blk, 0, 1, grid[1][0]), blk, 1, 0, grid[0][1])


PLANTED = {
    "scaled transition": lambda b, blk: _corrupted(b),
    "swapped transitions": _swapped,
    "transition times sqrt 2": lambda b, blk: _with_operator(
        b, blk, 0, 1, b.blocks[blk].operators[0][1].scale(Surd.sqrt(2))
    ),
    "projector times sqrt 2": lambda b, blk: _with_operator(
        b, blk, 1, 1, b.blocks[blk].operators[1][1].scale(Surd.sqrt(2))
    ),
    "two radicand groups": lambda b, blk: _with_operator(
        b,
        blk,
        0,
        1,
        b.blocks[blk].operators[0][1] + b.blocks[blk].operators[1][0].scale(Surd.sqrt(2)),
    ),
    "zero operator": lambda b, blk: _with_operator(b, blk, 1, 0, AlgebraElement.zero(b.m)),
}


@pytest.mark.parametrize("planted", sorted(PLANTED))
@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("kind", ["hermitian", "young"])
def test_kernels_match_reference_on_planted_corruptions(planted, m, kind):
    b = assemble(m, kind)
    blk = next(k for k, block in enumerate(b.blocks) if block.size >= 2)
    bad = PLANTED[planted](b, blk)
    assert not verify_multiplication_table(bad).passed
    _assert_matches_reference(bad)


def test_planted_corruption_at_m5_names_a_permutation():
    bad = _corrupted(assemble(5, "hermitian"))
    report = verify_multiplication_table(bad)
    assert report == reference_table(bad)
    first = report.failures[0]
    assert first.witness.startswith("first differing permutation ")
    lhs, rhs = first.identity.split(" == ")
    ops = {bad.describe(label): op for label, op in bad.flat()}
    left, right = lhs.split(" * ")
    want = AlgebraElement.zero(5) if rhs == "0" else ops[rhs]
    got = multiply(ops[left], ops[right])
    p = (got - want).support()[0]
    assert first.witness == (
        f"first differing permutation {p}: "
        f"expected {want.coefficient(p)}, got {got.coefficient(p)}"
    )


# Each corruption below sits outside every block's first row and column, the
# factors of the verdict's chain products.  Its block must still go
# unproved, and the table suite report every failed pair.
OUTSIDE_REFERENCE = {
    "O_12 doubled": lambda b, blk: _with_operator(
        b, blk, 1, 2, b.blocks[blk].operators[1][2].scale(2)
    ),
    "O_12 and O_21 swapped": lambda b, blk: _with_operator(
        _with_operator(b, blk, 1, 2, b.blocks[blk].operators[2][1]),
        blk,
        2,
        1,
        b.blocks[blk].operators[1][2],
    ),
    "O_11 times sqrt 2": lambda b, blk: _with_operator(
        b, blk, 1, 1, b.blocks[blk].operators[1][1].scale(Surd.sqrt(2))
    ),
}


@pytest.mark.parametrize("planted", sorted(OUTSIDE_REFERENCE))
@pytest.mark.parametrize(
    "m, kind, rows",
    [
        (4, "hermitian", (3, 1)),
        (4, "hermitian", (2, 1, 1)),
        (4, "young", (3, 1)),
        (4, "young", (2, 1, 1)),
        (5, "hermitian", (3, 2)),
    ],
    ids=str,
)
@pytest.mark.parametrize("seed", [None, 5], ids=["assembled", "relabelled"])
def test_table_catches_corruptions_outside_the_reference_row_and_column(
    planted, m, kind, rows, seed
):
    b = assemble(m, kind)
    if seed is not None:
        b = _relabelled(b, seed)
    blk = next(k for k, block in enumerate(b.blocks) if block.diagram.rows == rows)
    bad = OUTSIDE_REFERENCE[planted](b, blk)
    report = verify_multiplication_table(bad)
    assert not report.passed
    assert report == reference_table(bad)


def _refuse_kernels(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("a proved basis needs no pair product")

    monkeypatch.setattr(basis_module, "multiply", refuse)
    monkeypatch.setattr(basis_module, "scalar_product", refuse)
    monkeypatch.setattr(basis_module, "surd_rank", refuse)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, "5 relabelled"])
def test_passing_basis_runs_no_kernel(monkeypatch, m):
    b = _relabelled(assemble(5), 3) if m == "5 relabelled" else assemble(m)
    _refuse_kernels(monkeypatch)
    size = math.factorial(b.m) ** 2
    assert verify_multiplication_table(b) == VerificationReport("multiplication_table", size)
    assert verify_orthonormality(b) == VerificationReport("orthonormality", size)
    assert verify_orthonormality(b, sample=7) == VerificationReport("orthonormality", 7)
    assert verify_linear_independence(b) == VerificationReport("linear_independence", 1)


def _calls(monkeypatch, name: str) -> list[tuple]:
    """Spy on ``basis.<name>``, such as ``multiply``: every call's arguments."""
    calls = []
    real = getattr(basis_module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(basis_module, name, spy)
    return calls


def test_failing_table_forms_one_product_per_failure(monkeypatch):
    # the doubled transition stays on its line, so every chain through it is
    # read off one coefficient, and only the failed ones are multiplied
    bad = _corrupted(assemble(5))
    calls = _calls(monkeypatch, "multiply")
    report = verify_multiplication_table(bad)
    assert report.failures
    assert len(calls) == len(report.failures)
    assert report == reference_table(bad)


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("planted", ["zero operator", "last projector first"])
def test_an_operator_off_its_line_costs_its_row_and_column(monkeypatch, m, planted):
    # the operator off its line is multiplied with every operator on both
    # sides, 2·m! − 1 pairs, and so is every chain whose target it is, f_λ of
    # them: every other pair is on its lines
    b = assemble(m)
    if planted == "zero operator":
        blk = next(k for k, block in enumerate(b.blocks) if block.size >= 2)
        bad = _with_operator(b, blk, 1, 0, AlgebraElement.zero(m))
    else:
        blk = 0
        bad = _with_operator(b, blk, 0, 0, b.blocks[-1].operators[0][0])
    calls = _calls(monkeypatch, "multiply")
    report = verify_multiplication_table(bad)
    assert not report.passed
    assert len(calls) <= 2 * math.factorial(m) + bad.blocks[blk].size
    assert report == reference_table(bad)


def _scaled(b: BasisMatrix, blk: int, cells, c) -> BasisMatrix:
    for i, j in cells:
        b = _with_operator(b, blk, i, j, b.blocks[blk].operators[i][j].scale(c))
    return b


def _similar(b: BasisMatrix, blk: int) -> BasisMatrix:
    others = [k for k in range(b.blocks[blk].size) if k != 1]
    doubled = _scaled(b, blk, [(1, k) for k in others], 2)
    return _scaled(doubled, blk, [(k, 1) for k in others], Fraction(1, 2))


# Rescalings keep every operator on its Jucys–Murphy line, so only the
# verdict's adjoint flags and chain products can leave the block unproved.
# Doubling O_00, or negating O_12 and O_21, keeps O_ST† = O_TS and is caught
# by the chains.  Doubling row 1 and halving column 1 conjugates the block by
# a diagonal matrix: still a matrix-unit basis, but not closed under the
# adjoint, so the block is not proved and its chains prove the table.
SIMILAR = "row 1 doubled, column 1 halved"
RESCALED = {
    "O_00 doubled": lambda b, blk: _scaled(b, blk, [(0, 0)], 2),
    "O_12 and O_21 negated": lambda b, blk: _scaled(b, blk, [(1, 2), (2, 1)], -1),
    "row 1 doubled": lambda b, blk: _scaled(b, blk, [(1, 0), (1, 1), (1, 2)], 2),
    SIMILAR: _similar,
}


@pytest.mark.parametrize("planted", sorted(RESCALED))
@pytest.mark.parametrize("seed", [None, 5], ids=["assembled", "relabelled"])
def test_rescaled_units_are_left_to_the_kernels(planted, seed):
    b = assemble(4)
    if seed is not None:
        b = _relabelled(b, seed)
    blk = next(k for k, block in enumerate(b.blocks) if block.diagram.rows == (3, 1))
    bad = RESCALED[planted](b, blk)
    assert bad._proof[0].all()
    assert _unproved(bad) == {blk}
    assert verify_multiplication_table(bad).passed == (planted == SIMILAR)
    _assert_matches_reference(bad)


@pytest.mark.parametrize("m", [4, 5])
def test_a_refused_grid_on_its_lines_forms_no_table_product(monkeypatch, m):
    # every operator of the similar grid is on its line: the table passes on
    # its chains' coefficients alone, and orthonormality, which fails, reads
    # each self-pairing off the operator's coefficients
    b = assemble(4) if m == 4 else _relabelled(assemble(5), 5)
    rows = (3, 1) if m == 4 else (4, 1)
    blk = next(k for k, block in enumerate(b.blocks) if block.diagram.rows == rows)
    bad = RESCALED[SIMILAR](b, blk)
    products = _calls(monkeypatch, "multiply")
    pairings = _calls(monkeypatch, "scalar_product")
    size = math.factorial(m) ** 2
    assert verify_multiplication_table(bad) == VerificationReport("multiplication_table", size)
    assert products == []
    report = verify_orthonormality(bad)
    assert not report.passed
    assert pairings == []
    _assert_matches_reference(bad)


def _duplicated_symmetric_block() -> BasisMatrix:
    # Σ f² = 3! still holds, but every (S, T) pair of the (3) block repeats
    b = assemble(3)
    return BasisMatrix(3, "hermitian", (b.blocks[0], b.blocks[1], b.blocks[0]))


def _missing_block() -> BasisMatrix:
    # five operators, each a genuine matrix unit
    b = assemble(3)
    return BasisMatrix(3, "hermitian", b.blocks[:2])


def _repeated_tableau() -> BasisMatrix:
    # the (2,1) block as one tableau twice, every entry its projector
    b = assemble(3)
    blk = b.blocks[1]
    p = blk.operators[0][0]
    repeated = BasisBlock(blk.diagram, (blk.tableaux[0],) * 2, ((p, p), (p, p)))
    return BasisMatrix(3, "hermitian", (b.blocks[0], repeated, b.blocks[2]))


def _tableau_of_the_wrong_degree() -> BasisMatrix:
    # the (1,1,1,1) block as a (2,1) block of the degree-3 tableau 12/3 holding
    # the projector of 12/34: read as a degree-4 tableau its contents would be
    # those of 12/34.  Built directly, since basis_from_json refuses it.
    b = assemble(4)
    square = next(blk for blk in b.blocks if blk.diagram.rows == (2, 2))
    assert square.tableaux[0] == T([1, 2], [3, 4])
    t = T([1, 2], [3])
    wrong = BasisBlock(t.shape, (t,), ((square.operators[0][0],),))
    return BasisMatrix(4, "hermitian", (*b.blocks[:-1], wrong))


@pytest.mark.parametrize(
    "malformed, genuine",
    [
        (_duplicated_symmetric_block, False),
        (_missing_block, True),
        (_repeated_tableau, False),
        (_tableau_of_the_wrong_degree, False),
    ],
)
def test_malformed_bases_are_judged_by_their_tableaux(malformed, genuine):
    # repeated tableaux, or tableaux of another degree, put no operator on
    # its line; the five genuine units of a grid without its last block are
    # proved, and only independence, which counts them, fails
    bad = malformed()
    on, proved, _ = bad._proof
    assert on.tolist() == proved.tolist() == [genuine] * len(bad.labels())
    assert verify_linear_independence(bad).passed is False
    _assert_matches_reference(bad)


@pytest.mark.parametrize("m", [2, 4])
def test_eigen_checks_cover_every_degree_and_row_chunk(monkeypatch, m):
    # The last block's projector in place of the first block's is idempotent,
    # so only the eigen-checks refuse it: at m = 2 the one of X_2, at m = 4
    # those of the first chunk, with gathers limited to three rows a chunk
    # (the gathers of r rows hold at most r·m²·m! entries over all k).
    monkeypatch.setattr(_fast, "_GATHER_LIMIT", 3 * m * m * math.factorial(m))
    b = assemble(m)
    assert not _unproved(b)
    bad = _with_operator(b, 0, 0, 0, b.blocks[-1].operators[0][0])
    assert bad._proof[0].tolist() == [False] + [True] * (len(b.labels()) - 1)
    assert _unproved(bad) == {0}
    _assert_matches_reference(bad)


@pytest.mark.parametrize("rows", [1, 2])
def test_eigen_checks_hold_across_chunk_boundaries(monkeypatch, rows):
    # chunks of one or two rows: the verdict still proves assemble(4), puts
    # the first block's projector, in place of the last operator, off its
    # line, which only the eigen-checks of the last chunk see, and _normalize
    # returns what it returns with one chunk
    m = 4
    b = assemble(m)
    pairs = [(s, t) for blk in b.blocks for s in blk.tableaux for t in blk.tableaux if s != t]
    bars = [unitary_transition_compact(s, t).element.scale(3) for s, t in pairs]
    whole = [_normalize(bar, s, t) for bar, (s, t) in zip(bars, pairs)]
    monkeypatch.setattr(_fast, "_GATHER_LIMIT", rows * m * m * math.factorial(m))
    assert not _unproved(b)
    blk = len(b.blocks) - 1
    bad = _with_operator(b, blk, 0, 0, b.blocks[0].operators[0][0])
    assert b.labels()[-1] == (blk, 0, 0)
    assert bad._proof[0].tolist() == [True] * (len(b.labels()) - 1) + [False]
    assert _unproved(bad) == {blk}
    assert not verify_multiplication_table(bad).passed
    assert [_normalize(bar, s, t) for bar, (s, t) in zip(bars, pairs)] == whole
    assert all(tau_squared == Fraction(1, 9) for _, tau_squared in whole)


def test_chain_products_refuse_a_doubled_operator_in_the_last_chunk(monkeypatch):
    # O_ST with S and T both other than the block's first tableau enters one
    # chain only, as the target of O_S1·O_1T, and that chain is the one at
    # the label's position.  Doubled with O_TS, it stays on its Jucys–Murphy
    # line and the grid stays closed under the adjoint, so the eigen-checks
    # pass it and only the row-wise sums of the last chunk see it.
    m = 5
    b = replace(assemble(m))  # a new grid object, proved once below, as is bad
    labels = b.labels()
    chains = len(labels) + sum(block.size for block in b.blocks)
    per_chunk = 50
    monkeypatch.setattr(_fast, "_GATHER_LIMIT", 3 * per_chunk * math.factorial(m))
    x = max(x for x, (_, i, j) in enumerate(labels) if i and j and i != j)
    blk, i, j = labels[x]
    assert -(-chains // per_chunk) >= 3
    assert min(x, labels.index((blk, j, i))) >= (chains - 1) // per_chunk * per_chunk
    bad = _scaled(b, blk, [(i, j), (j, i)], 2)
    eigen_checks = []
    check = _fast.in_eigenspaces

    def spy(*args):
        eigen_checks.append(check(*args))
        return eigen_checks[-1]

    monkeypatch.setattr(_fast, "in_eigenspaces", spy)
    assert not _unproved(b)
    assert bad._proof[0].all()
    assert _unproved(bad) == {blk}
    assert [mask.all() for mask in eigen_checks] == [True, True]


@pytest.mark.parametrize("m", [4, "5 relabelled"])
def test_adjoint_vectors_carry_the_right_eigen_identities(m):
    b = _relabelled(assemble(5), 3) if m == "5 relabelled" else assemble(m)
    # the verdict checks only right sides, O_ST·X_k = c_T(k)·O_ST, where the
    # transpose is the adjoint; the left side X_k·O_ST = c_S(k)·O_ST is the
    # right side of O_ST† with S's contents, which separate S from every
    # other tableau of the block
    for block in b.blocks:
        for i, s in enumerate(block.tableaux):
            for j, t in enumerate(block.tableaux):
                vecs = [vec for _, vec in dagger(block.operators[i][j])._parts.values()]
                assert _fast.in_eigenspaces(b.m, vecs, _contents(s)).all()
                assert _fast.in_eigenspaces(b.m, vecs, _contents(t)).all() == (s == t)


def test_eigen_checks_take_python_ints_past_the_guard():
    # X_5·v = 4·v for the constant element v = t·Σ_g g, stored as int64 at
    # t = 2**24 - 1 and as Python ints at t = 2**24; one call stacks both
    vecs = []
    for t, dtype in ((_fast._STORED - 1, np.int64), (_fast._STORED, object)):
        ((_, v),) = AlgebraElement(5, {g: t for g in all_permutations(5)})._parts.values()
        assert v.dtype == np.dtype(dtype) and v.tolist() == [t] * 120
        assert _fast.in_eigenspaces(5, [v], (0, 1, 2, 3, 4)).tolist() == [True]
        assert _fast.in_eigenspaces(5, [v], (0, 1, 2, 3, 0)).tolist() == [False]
        vecs.append(v)
    contents = [(0, 1, 2, 3, 0), (0, 1, 2, 3, 4)]
    assert _fast.in_eigenspaces(5, vecs, contents).tolist() == [False, True]


@st.composite
def corrupted_bases(draw):
    """assemble(3|4), maybe relabelled, with one operator of one block corrupted."""
    b = assemble(draw(st.sampled_from([3, 4])))
    seed = draw(st.none() | st.integers(0, 99))
    if seed is not None:
        b = _relabelled(b, seed)
    blk = draw(st.sampled_from([k for k, block in enumerate(b.blocks) if block.size >= 2]))
    grid = b.blocks[blk].operators
    cells = st.tuples(st.integers(0, len(grid) - 1), st.integers(0, len(grid) - 1))
    i, j = draw(cells)
    k, l = draw(cells.filter(lambda kl: kl != (i, j)))
    factor = draw(
        st.just(Surd.sqrt(2))
        | st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    )
    how = draw(st.sampled_from(["scale", "swap", "add"]))
    if how == "scale":
        return _with_operator(b, blk, i, j, grid[i][j].scale(factor))
    if how == "swap":
        return _with_operator(_with_operator(b, blk, i, j, grid[k][l]), blk, k, l, grid[i][j])
    return _with_operator(b, blk, i, j, grid[i][j] + grid[k][l].scale(factor))


@settings(max_examples=25, deadline=None)
@given(corrupted_bases())
def test_random_corruptions_match_the_references(bad):
    _assert_matches_reference(bad)


@pytest.mark.parametrize(
    "scale", [2**40, 2**58 + 1, 2**70 + 3, Fraction(1, 2**58 + 1)], ids=str
)
def test_kernels_match_reference_at_the_overflow_guard(scale):
    # one transition's numerators (or its denominator) pushed towards and past
    # 2**62, so the int64 products, sums and cross-multiplied comparisons
    # must each be guarded
    b = assemble(4, "hermitian")
    bad = _with_operator(b, 1, 0, 1, b.blocks[1].operators[0][1].scale(scale))
    _assert_matches_reference(bad)
    assert not verify_orthonormality(bad).passed


def test_kernels_match_reference_when_a_common_denominator_overflows():
    # O_01/16 and 16·O_10 are still matrix units.  Adding √2·2**61·O_10 to
    # the first gives an operator whose √6 part fits int64 on its own
    # denominator, 3, but not once raised to the operator's, 96.
    b = assemble(3, "hermitian")
    ops = b.blocks[1].operators
    similar = _with_operator(
        _with_operator(b, 1, 0, 1, ops[0][1].scale(Fraction(1, 16))), 1, 1, 0, ops[1][0].scale(16)
    )
    assert verify_multiplication_table(similar).passed
    bad = _with_operator(
        similar, 1, 0, 1, similar.blocks[1].operators[0][1] + ops[1][0].scale(Surd.sqrt(2) * 2**61)
    )
    assert verify_multiplication_table(bad) == reference_table(bad)
    assert not reference_table(bad).passed


def _stack_bounds(b: BasisMatrix) -> tuple[int, int, int, int]:
    """n, the common denominator D, the largest stacked entry T and Σg of a basis."""
    parts = [op._parts for _, op in b.flat()]
    den = math.lcm(*(q for p in parts for q, _ in p.values()))
    top = max(int(abs(v).max()) * (den // q) for p in parts for q, v in p.values())
    radicands = {d for p in parts for d in p}
    spread = sum(squarefree_decompose(d * e)[1] for d in radicands for e in radicands)
    return math.factorial(b.m), den, top, spread


def test_kernels_match_reference_at_the_single_bound():
    # a dense operator with integer entries up to t, t·D over the basis's
    # common denominator D: the largest t with n²·(t·D)²·Σg below 2**62, and
    # t + 1, the two sides of a bound on every product and pairing
    b = assemble(3, "hermitian")
    n, den, _, spread = _stack_bounds(b)
    t = math.isqrt((2**62 - 1) // (n * n * spread * den * den))
    assert n * n * (t * den) ** 2 * spread < 2**62 <= n * n * ((t + 1) * den) ** 2 * spread
    for top in (t, t + 1):
        dense = AlgebraElement(3, {p: top - i for i, p in enumerate(all_permutations(3))})
        bad = _with_operator(b, 1, 0, 1, dense)
        assert _stack_bounds(bad)[2] == top * den
        _assert_matches_reference(bad)


def test_kernels_match_reference_when_the_denominator_alone_crosses_the_bound():
    # every operator over 2**62 leaves the entries small but D·T past 2**62
    b = assemble(3, "hermitian")
    scaled = BasisMatrix(
        3,
        "hermitian",
        tuple(
            BasisBlock(
                blk.diagram,
                blk.tableaux,
                tuple(tuple(op.scale(Fraction(1, 2**62)) for op in row) for row in blk.operators),
            )
            for blk in b.blocks
        ),
    )
    n, den, top, spread = _stack_bounds(scaled)
    assert n * n * top * top * spread < 2**62 <= den * top
    _assert_matches_reference(scaled)


def test_kernels_match_reference_without_radicand_one():
    # every operator times √2 leaves no radicand-1 group, so no pair of
    # groups lands under radicand 2, where the expected self-pairings live
    b = assemble(3, "hermitian")
    blocks = tuple(
        BasisBlock(
            blk.diagram,
            blk.tableaux,
            tuple(tuple(op.scale(Surd.sqrt(2)) for op in row) for row in blk.operators),
        )
        for blk in b.blocks
    )
    bad = _with_operator(BasisMatrix(3, "hermitian", blocks), 1, 1, 1, AlgebraElement.zero(3))
    _assert_matches_reference(bad)


def test_sampled_orthonormality_matches_reference():
    # 200 draws from 36 pairs repeat the one failing pair, in draw order
    bad = _corrupted(assemble(3, "hermitian"))
    for seed in (0, 3):
        report = verify_orthonormality(bad, sample=200, seed=seed)
        assert report == reference_orthonormality(bad, sample=200, seed=seed)
        assert len(report.failures) > 1


def test_multiplication_table_at_m6():
    report = verify_multiplication_table(assemble(6, "hermitian"))
    assert report.passed
    assert report.checked == 518_400


def test_planted_table_corruption_at_m6_names_a_permutation():
    report = verify_multiplication_table(_corrupted(assemble(6, "hermitian")))
    assert not report.passed
    assert report.failures[0].witness.startswith("first differing permutation ")


def test_orthonormality_exhaustive_at_m6():
    report = verify_orthonormality(assemble(6, "hermitian"))
    assert report.passed
    assert report.checked == 518_400


def test_planted_corruption_at_m6_is_caught():
    b = assemble(6, "hermitian")
    bad = _corrupted(b)
    report = verify_orthonormality(bad)
    name = bad.describe((1, 0, 1))
    dim = trace(b.blocks[1].operators[0][0])
    assert [(f.identity, f.witness) for f in report.failures] == [
        (f"<{name}, {name}> == dim({name})", f"expected {dim}, got {dim * 4}")
    ]


def test_linear_independence_at_m6():
    assert verify_linear_independence(assemble(6, "hermitian")).passed


# -- run_suite -------------------------------------------------------------------


def test_run_suite_assembles_only_for_suites_that_read_the_basis(monkeypatch):
    calls = []
    real = basis_module.assemble

    def counting(m, kind="hermitian"):
        calls.append((m, kind))
        return real(m, kind)

    monkeypatch.setattr(basis_module, "assemble", counting)
    assert [r.name for r in run_suite(4, suites=("complete",))] == ["completeness_and_nesting"]
    assert calls == []
    run_suite(3, suites=("complete", "independence"))
    assert calls == [(3, "hermitian")]


def test_run_suite_rejects_a_bad_basis_before_any_suite(monkeypatch):
    def no_suite(m):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(basis_module, "verify_completeness_and_nesting", no_suite)
    with pytest.raises(ValueError, match="unknown basis kind: 'block'"):
        run_suite(3, "block", suites=("complete",))
    with pytest.raises(ValueError, match="Young transition basis undefined beyond m=4"):
        run_suite(5, "young", suites=("complete",))


# -- completeness, nesting, independence ---------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_completeness_and_nesting(m):
    report = verify_completeness_and_nesting(m)
    assert report.passed
    # one identity check plus one nesting check per lower-degree tableau
    parents = sum(blk.size for blk in assemble(max(m - 1, 1), "hermitian").blocks)
    assert report.checked == (1 if m == 1 else 1 + parents)


def test_completeness_witness_names_first_difference(monkeypatch):
    target = T((1, 2), (3,))
    real = basis_module.hermitian_projector
    extra = real(target).element

    def rescaled(t):
        proj = real(t)
        if t == target:
            return replace(proj, element=proj.element.scale(Surd.rational(2)))
        return proj

    monkeypatch.setattr(basis_module, "hermitian_projector", rescaled)
    report = verify_completeness_and_nesting(3)
    parent = next(t for t in enumerate_tableaux(2) if target in t.descendants())
    identity = AlgebraElement.identity(3)
    embedded = real(parent).element.embed(3)
    p = extra.support()[0]

    def witness(expected):
        got = expected.coefficient(p) + extra.coefficient(p)
        return f"first differing permutation {p}: expected {expected.coefficient(p)}, got {got}"

    assert [(f.identity, f.witness) for f in report.failures] == [
        ("sum of all degree-3 projectors == id", witness(identity)),
        (f"descendant projector sum == embedded projector of {parent}", witness(embedded)),
    ]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["hermitian", "young"])
def test_linear_independence(m, kind):
    report = verify_linear_independence(assemble(m, kind))
    assert report.passed


def _refuse_exact_rank(monkeypatch) -> None:
    def refuse(rows):
        raise AssertionError("a passing basis needs no exact rank")

    monkeypatch.setattr(basis_module, "surd_rank", refuse)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, "5 relabelled"])
def test_passing_independence_needs_no_exact_rank(monkeypatch, m):
    b = _relabelled(assemble(5), 3) if m == "5 relabelled" else assemble(m)
    _refuse_exact_rank(monkeypatch)
    assert verify_linear_independence(b) == VerificationReport("linear_independence", 1)


def test_linear_independence_detects_degeneracy():
    b = assemble(3, "hermitian")
    blocks = list(b.blocks)
    blk = blocks[1]
    grid = [list(row) for row in blk.operators]
    grid[0][1] = grid[1][0]  # duplicate row: operators no longer span
    blocks[1] = BasisBlock(blk.diagram, blk.tableaux, tuple(tuple(r) for r in grid))
    report = verify_linear_independence(BasisMatrix(3, "hermitian", tuple(blocks)))
    assert not report.passed
    assert "rank" in report.failures[0].witness


def test_linear_independence_ranks_integer_vectors_without_surds(monkeypatch):
    b = assemble(4, "hermitian")

    def refuse(*args, **kwargs):
        raise AssertionError("single-radicand operators need no surds")

    monkeypatch.setattr(Surd, "__init__", refuse)
    assert verify_linear_independence(b).passed


def test_linear_independence_mixed_radicands():
    b = assemble(3, "hermitian")
    blk = b.blocks[1]
    # adding √2 times another operator keeps the span but mixes radicands
    mixed = blk.operators[0][1] + blk.operators[1][0].scale(Surd.sqrt(2))
    assert len({d for _, c in mixed.items() for d, _ in c.terms()}) > 1

    def with_grid(grid):
        blocks = (b.blocks[0], BasisBlock(blk.diagram, blk.tableaux, grid), b.blocks[2])
        return BasisMatrix(3, "hermitian", blocks)

    report = verify_linear_independence(
        with_grid(((blk.operators[0][0], mixed), blk.operators[1]))
    )
    assert report.passed
    # with the √2 part a third as large the two mixed operators still span,
    # and their √6 parts have different denominators
    third = blk.operators[0][1] + blk.operators[1][0].scale(Surd.sqrt(2) / 3)
    assert verify_linear_independence(
        with_grid(((blk.operators[0][0], mixed), (third, blk.operators[1][1])))
    ).passed
    duplicated = verify_linear_independence(
        with_grid(((blk.operators[0][0], mixed), (mixed, blk.operators[1][1])))
    )
    assert [f.witness for f in duplicated.failures] == ["got rank 5"]


def test_certificate_skips_rows_that_mix_radicands():
    b = assemble(3, "hermitian")
    blk = b.blocks[1]
    # y = √2·x: dependent over the field, though x's √2 part and y's
    # rational part are the two independent operators x was made from
    x = blk.operators[0][1] + blk.operators[1][0].scale(Surd.sqrt(2))
    y = x.scale(Surd.sqrt(2))
    grid = ((blk.operators[0][0], x), (y, blk.operators[1][1]))
    blocks = (b.blocks[0], BasisBlock(blk.diagram, blk.tableaux, grid), b.blocks[2])
    bad = BasisMatrix(3, "hermitian", blocks)
    assert [f.witness for f in verify_linear_independence(bad).failures] == ["got rank 5"]


def test_more_than_m_factorial_operators_are_ranked_exactly():
    # a repeated block leaves the rank at m! = 6: the operators span the
    # algebra, but they are not independent
    b = assemble(3, "hermitian")
    for blk, n in [(0, 7), (1, 10)]:
        extra = BasisMatrix(3, "hermitian", b.blocks + b.blocks[blk : blk + 1])
        assert len(extra.labels()) == n
        report = verify_linear_independence(extra)
        failure = CheckFailure(f"rank of the {n}x6 expansion == {n} == 6", "got rank 6")
        assert report == VerificationReport("linear_independence", 1, (failure,))
        assert report == reference_independence(extra)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_independence_of_operators_on_their_lines_needs_no_rank(monkeypatch, m):
    # the doubled transition leaves its block unproved but keeps every
    # operator on its line, a nonzero element of its own E_S·A·E_T
    bad = _corrupted(assemble(m))
    assert bad._proof[0].all() and _unproved(bad)
    calls = _calls(monkeypatch, "surd_rank")
    report = verify_linear_independence(bad)
    assert calls == []
    assert report == VerificationReport("linear_independence", 1)
    if m <= 5:
        assert report == reference_independence(bad)


def test_independence_ranks_a_grid_with_an_operator_off_its_line(monkeypatch):
    b = assemble(4)
    blk = next(k for k, block in enumerate(b.blocks) if block.size >= 2)
    bad = _with_operator(b, blk, 1, 0, AlgebraElement.zero(4))
    calls = _calls(monkeypatch, "surd_rank")
    report = verify_linear_independence(bad)
    assert [len(rows) for rows, in calls] == [24]
    assert [f.witness for f in report.failures] == ["got rank 23"]
    assert report == reference_independence(bad)


@pytest.mark.parametrize("m", [4, 5])
def test_the_table_suite_chains_only_the_unproved_block(monkeypatch, m):
    bad = _corrupted(assemble(m))
    (blk,) = _unproved(bad)
    bad._proof  # the verdict's own chains, for the proved blocks
    calls = _calls(monkeypatch, "_chains_hold")
    assert not verify_multiplication_table(bad).passed
    labels = bad.labels()
    assert [len(z) for _, _, _, z in calls] == [bad.blocks[blk].size ** 3]
    assert {labels[x][0] for operators in calls[0][1:] for x in operators.tolist()} == {blk}


# -- basis-change invariance -----------------------------------------------------


def test_orthogonal_rotation_preserves_reports():
    # conjugating one block's grid by a rational orthogonal matrix keeps
    # both the multiplication table and the orthonormality pairing intact
    b = assemble(3, "hermitian")
    R = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)))
    blk = b.blocks[1]
    rotated = []
    for a in range(2):
        row = []
        for c in range(2):
            acc = AlgebraElement.zero(3)
            for i in range(2):
                for j in range(2):
                    acc = acc + blk.operators[i][j].scale(
                        Surd.rational(R[a][i] * R[c][j])
                    )
            row.append(acc)
        rotated.append(tuple(row))
    blocks = (b.blocks[0], BasisBlock(blk.diagram, blk.tableaux, tuple(rotated)), b.blocks[2])
    rotated_basis = BasisMatrix(3, "hermitian", blocks)
    assert rotated_basis.blocks[1].operators[0][0] != blk.operators[0][0]
    assert verify_multiplication_table(rotated_basis).passed
    assert verify_orthonormality(rotated_basis).passed
    assert verify_linear_independence(rotated_basis).passed


# -- suite runner and serialization ----------------------------------------------


def test_run_suite_hermitian_all():
    reports = run_suite(3, "hermitian")
    assert [r.name for r in reports] == [
        "multiplication_table",
        "orthonormality",
        "completeness_and_nesting",
        "linear_independence",
    ]
    assert all(r.passed for r in reports)


def test_run_suite_young_skips_orthonormality():
    reports = run_suite(3, "young")
    assert [r.name for r in reports] == [
        "multiplication_table",
        "completeness_and_nesting",
        "linear_independence",
    ]
    assert all(r.passed for r in reports)


def test_jobs_is_accepted_and_ignored():
    bad = _corrupted(assemble(3, "hermitian"))
    assert verify_multiplication_table(bad, jobs=3) == verify_multiplication_table(bad)
    assert verify_orthonormality(bad, jobs=3) == verify_orthonormality(bad)


def _clear_caches():
    for info in pkgutil.iter_modules(sunbasis.__path__):
        module = importlib.import_module(f"sunbasis.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                obj.cache_clear()


@pytest.mark.parametrize("m", range(1, 7))
def test_cold_assembly_forms_no_dense_product(monkeypatch, m):
    # every symmetrizer set is multiplied in by its transposition moves, and
    # no set is expanded into a vector of its own
    _clear_caches()
    calls = []
    product = _fast._product
    monkeypatch.setattr(_fast, "_product", lambda *args: calls.append("_product") or product(*args))
    monkeypatch.setattr(SymmetrizerSet, "element", lambda s: calls.append("element"))
    assemble(m)
    assert calls == []


@pytest.mark.parametrize("m", range(1, 7))
def test_cold_assembly_and_suites_build_no_composition_table(monkeypatch, m):
    # construction and all four suites gather through ``_fast.positions``;
    # only a dense product reads the (m!)² table
    _clear_caches()
    calls = []
    table = _fast.composition_table
    monkeypatch.setattr(_fast, "composition_table", lambda m: calls.append(m) or table(m))
    assemble(m)
    assert all(report.passed for report in run_suite(m))
    assert calls == []


def test_warm_cache_suite_matches_cold():
    run_suite(4)
    warm = run_suite(4)
    _clear_caches()
    assert basis_module._assemble.cache_info().currsize == 0
    cold = run_suite(4)
    assert cold == warm
    assert [r.checked for r in cold] == [576, 576, 5, 1]


def test_every_spelling_of_a_call_returns_the_one_cached_grid():
    _clear_caches()
    grids = [assemble(3), assemble(3, "hermitian"), assemble(3, kind="hermitian"), assemble(m=3)]
    assert all(grid is grids[0] for grid in grids)
    assert basis_module._assemble.cache_info().currsize == 1
    assert run_suite(3, suites=("table",))[0].passed
    assert basis_module._assemble.cache_info().currsize == 1


def _count_eigen_checks(monkeypatch) -> list[int]:
    """Spy on ``_fast.in_eigenspaces``: the row count of every call."""
    calls = []
    check = _fast.in_eigenspaces

    def spy(m, vecs, contents):
        calls.append(len(vecs))
        return check(m, vecs, contents)

    monkeypatch.setattr(_fast, "in_eigenspaces", spy)
    return calls


def test_run_suite_proves_the_cached_basis_once(monkeypatch):
    run_suite(5)  # every projector cached
    proved = assemble(5)
    basis_module._assemble.cache_clear()  # the next grid is a new, cold object
    calls = _count_eigen_checks(monkeypatch)
    reports = run_suite(5)
    assert [r.passed for r in reports] == [True] * 4
    assert assemble(5) is not proved
    assert calls == [120]
    assert [r.passed for r in run_suite(5)] == [True] * 4
    assert verify_multiplication_table(proved).passed
    assert calls == [120]


def test_an_equal_but_distinct_basis_is_proved_afresh(monkeypatch):
    b = assemble(4)
    assert verify_multiplication_table(b).passed
    copy = basis_from_json(basis_to_json(b))
    assert copy == b and copy is not b
    calls = _count_eigen_checks(monkeypatch)
    assert verify_multiplication_table(copy).passed
    assert verify_orthonormality(copy).passed
    assert verify_linear_independence(copy).passed
    assert calls == [24]


def test_a_corrupted_grid_after_a_good_one_is_refused():
    b = assemble(4)
    assert [verify_multiplication_table(b).passed, verify_orthonormality(b).passed] == [True, True]
    bad = _corrupted(b)
    assert not verify_multiplication_table(bad).passed
    assert not verify_orthonormality(bad).passed
    _assert_matches_reference(bad)
    # and the good one again, now that the corrupted one is the latest
    assert verify_linear_independence(b) == VerificationReport("linear_independence", 1)


def test_clearing_the_caches_makes_the_proof_cold(monkeypatch):
    b = assemble(4)
    verify_multiplication_table(b)
    calls = _count_eigen_checks(monkeypatch)
    verify_orthonormality(b)
    assert calls == []
    _clear_caches()
    calls.clear()
    old, b = b, assemble(4)
    assert b is not old
    # the projectors of assemble(4) check their own bars, then the grid is proved once
    assert calls[-1] == 24 and calls.count(24) == 1
    calls.clear()
    verify_orthonormality(b)
    verify_linear_independence(b)
    verify_linear_independence(old)  # the old grid still holds its own proof
    assert calls == []


def test_alternating_grids_are_each_proved_once(monkeypatch):
    assemble(5)  # every projector cached
    basis_module._assemble.cache_clear()
    calls = _count_eigen_checks(monkeypatch)
    b = assemble(5)
    copy = basis_from_json(basis_to_json(b))
    for suite in (verify_multiplication_table, verify_orthonormality, verify_linear_independence):
        assert suite(b).passed and suite(copy).passed
    assert calls == [120, 120]


def test_a_dropped_grid_frees_its_proof():
    b = basis_from_json(basis_to_json(assemble(4)))
    assert verify_multiplication_table(b).passed
    vec = weakref.ref(next(iter(b.blocks[0].operators[0][0]._parts.values()))[1])
    del b
    gc.collect()
    assert vec() is None


def test_run_suite_unknown_name():
    with pytest.raises(ValueError, match="unknown suites"):
        run_suite(3, "hermitian", ("table", "unitarity"))


def test_run_suite_refuses_an_empty_or_repeated_selection(monkeypatch):
    # an empty selection would pass on no report, a repeated one would run twice
    monkeypatch.setattr(basis_module, "verify_multiplication_table", None)
    with pytest.raises(ValueError, match="empty suite selection"):
        run_suite(3, suites=())
    with pytest.raises(ValueError, match=r"repeated suites: \['table'\]"):
        run_suite(3, suites=("table", "complete", "table"))


def test_report_json_shape():
    report = verify_multiplication_table(assemble(2, "hermitian"))
    data = report.to_json()
    assert data == {
        "name": "multiplication_table",
        "checked": 4,
        "passed": True,
        "failures": [],
    }
    bad = verify_multiplication_table(_corrupted(assemble(3, "hermitian")))
    data = bad.to_json()
    assert data["passed"] is False
    assert data["failures"] and set(data["failures"][0]) == {"identity", "witness"}


def test_basis_json_round_trip():
    for kind in ("hermitian", "young"):
        b = assemble(3, kind)
        data = basis_to_json(b)
        again = basis_from_json(data)
        assert again == b
        # every emitted operator re-parses to an equal element
        for blk in data["blocks"]:
            for row in blk["operators"]:
                for op in row:
                    assert element_from_json(op).m == 3


@pytest.mark.parametrize("m", range(1, 6))
def test_stored_grid_reads_back_bit_identical(m):
    # the verdict's speed on a stored grid depends on its vectors' dtypes
    b = assemble(m)
    again = basis_from_json(json.loads(json.dumps(basis_to_json(b))))
    assert again.labels() == b.labels()
    for (label, op), (_, back) in zip(b.flat(), again.flat()):
        assert list(back._parts) == list(op._parts), label
        for (denom, vec), (denom2, vec2) in zip(op._parts.values(), back._parts.values()):
            assert denom2 == denom and vec2.dtype == vec.dtype
            assert vec2.tolist() == vec.tolist(), label


def test_basis_from_json_rejects_grids_the_suites_cannot_read():
    # a (2,1) row cut to one entry
    data = basis_to_json(assemble(3))
    hook = data["blocks"][1]
    hook["operators"][0] = hook["operators"][0][:1]
    with pytest.raises(ValueError, match=r"block \(2,1\): operator grid is not 2x2"):
        basis_from_json(data)
    # a missing row
    data = basis_to_json(assemble(3))
    data["blocks"][1]["operators"].pop()
    with pytest.raises(ValueError, match=r"block \(2,1\): operator grid"):
        basis_from_json(data)
    # a degree-2 operator in the (3) block
    data = basis_to_json(assemble(3))
    data["blocks"][0]["operators"][0][0] = basis_to_json(assemble(2))["blocks"][0]["operators"][0][0]
    with pytest.raises(ValueError, match=r"block \(3\): operator degree differs from m = 3"):
        basis_from_json(data)


def test_basis_from_json_rejects_a_tableau_of_another_degree():
    # the degree-3 tableau 12/3 as the (2,1) block of a degree-4 grid: its
    # contents are read as those of 12/34
    data = basis_to_json(assemble(4))
    square = next(blk for blk in data["blocks"] if blk["diagram"] == [2, 2])
    data["blocks"][-1] = {
        "diagram": [2, 1],
        "tableaux": [{"shape": [2, 1], "rows": [[1, 2], [3]]}],
        "operators": [[square["operators"][0][0]]],
    }
    with pytest.raises(ValueError, match=r"block \(2,1\): tableau 1,2\|3 has 3 boxes, not 4"):
        basis_from_json(data)


def test_basis_from_json_rejects_an_empty_block_of_another_degree():
    # a block with no tableaux holds no operator, and every suite passed on
    # the grid it was appended to
    data = basis_to_json(assemble(3))
    data["blocks"].append({"diagram": [5, 1], "tableaux": [], "operators": []})
    with pytest.raises(ValueError, match=r"block \(5,1\): its diagram has 6 boxes, not 3"):
        basis_from_json(data)


def test_basis_from_json_rejects_a_repeated_diagram():
    # an empty (3) block after the full one, and the (2,1) block twice
    empty = {"diagram": [3], "tableaux": [], "operators": []}
    for blk in (empty, basis_to_json(assemble(3))["blocks"][1]):
        data = basis_to_json(assemble(3))
        data["blocks"].append(blk)
        name = ",".join(map(str, blk["diagram"]))
        with pytest.raises(ValueError, match=rf"block \({name}\): an earlier block has its diagram"):
            basis_from_json(data)


def test_basis_from_json_rejects_a_diagram_that_is_not_its_tableaux_shape():
    # the suites and names read the diagram, so a wrong one would pass every
    # suite and name (2,1) operators as (3) ones
    data = basis_to_json(assemble(3))
    data["blocks"][1]["diagram"] = [3]
    with pytest.raises(ValueError, match=r"block \(3\): its tableaux have shape \(2,1\)"):
        basis_from_json(data)


def _record_dtype(dtypes: set, out: np.ndarray) -> np.ndarray:
    dtypes.add(out.dtype)
    return out


def _assert_certificate_dtype_follows_its_bound(monkeypatch):
    # s·O_01 and s·O_10 keep O_ST† = O_TS and every operator on its
    # Jucys–Murphy line, but O_01·O_10 = s²·O_00: only the chain products
    # leave the (2,1) block unproved.  The largest such s that keeps the
    # stored entries below 2**24 stacks int64 vectors in the verdict, and
    # the next one stores, and stacks, Python ints
    b = assemble(3, "hermitian")
    assert not _unproved(b)
    ops = b.blocks[1].operators
    parts = [part for op in (ops[0][1], ops[1][0]) for part in op._parts.values()]
    t = max(int(abs(vec).max()) for _, vec in parts)
    # scales near the bound with no factor to cancel against a denominator
    near = (_fast._STORED - 1) // t
    ks = [k for k in range(near - 10, near + 10) if all(math.gcd(k, q) == 1 for q, _ in parts)]
    below = max(k for k in ks if k * t < _fast._STORED)
    above = min(k for k in ks if k > below)
    eigen_checks = []
    check, stack = _fast.in_eigenspaces, _fast.stack

    def spy(*args):
        eigen_checks.append(check(*args))
        return eigen_checks[-1]

    monkeypatch.setattr(_fast, "in_eigenspaces", spy)
    for k, dtype in ((below, np.int64), (above, object)):
        bad = _scaled(b, 1, [(0, 1), (1, 0)], k)
        top = max(int(abs(v).max()) for _, op in bad.flat() for _, v in op._parts.values())
        assert top == k * t
        assert (top < _fast._STORED) is (dtype is np.int64)
        dtypes = set()
        eigen_checks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(_fast, "stack", lambda vecs: _record_dtype(dtypes, stack(vecs)))
            assert bad._proof[0].all()
        # the int64 side stacks only int64, the other side Python ints too
        assert (dtypes == {np.dtype(np.int64)}) is (dtype is np.int64)
        assert np.dtype(dtype) in dtypes
        assert _unproved(bad) == {1}
        # one eigen-check of the stored vectors: every transpose is an adjoint
        assert [mask.all() for mask in eigen_checks] == [True]
        _assert_matches_reference(bad)


def test_certificate_takes_int64_from_its_own_bound(monkeypatch):
    _assert_certificate_dtype_follows_its_bound(monkeypatch)


@pytest.mark.parametrize("per_chunk", [1, 3])
def test_certificate_takes_either_dtype_across_chain_chunks(monkeypatch, per_chunk):
    # the ten chains of m = 3, one or three to a chunk of row-wise sums,
    # whose index, gathered and factor blocks share the limit
    monkeypatch.setattr(_fast, "_GATHER_LIMIT", 3 * per_chunk * math.factorial(3))
    _assert_certificate_dtype_follows_its_bound(monkeypatch)


def test_certificate_keeps_int64_when_only_the_denominator_crosses():
    # every operator over 2**62: D·T passes 2**62, but the chain sums read
    # the stored vectors and form their targets as Python integers; the
    # rescaled grid is no matrix-unit basis, and no block of it is proved
    b = assemble(3, "hermitian")
    for scale in (Fraction(1, 2**62), 1):
        scaled = BasisMatrix(
            3,
            "hermitian",
            tuple(
                BasisBlock(
                    blk.diagram,
                    blk.tableaux,
                    tuple(tuple(op.scale(scale) for op in row) for row in blk.operators),
                )
                for blk in b.blocks
            ),
        )
        _, den, top, _ = _stack_bounds(scaled)
        assert (den * top >= 2**62) is (scale != 1)
        assert {v.dtype for _, op in scaled.flat() for _, v in op._parts.values()} == {
            np.dtype(np.int64)
        }
        assert scaled._proof[1].tolist() == [scale == 1] * 6
