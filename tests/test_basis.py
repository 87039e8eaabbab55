import importlib
import math
import pkgutil
from dataclasses import replace
from fractions import Fraction

import pytest

import sunbasis
from sunbasis import basis as basis_module
from sunbasis.algebra import AlgebraElement, element_from_json, multiply, trace
from sunbasis.basis import (
    BasisBlock,
    BasisMatrix,
    assemble,
    basis_from_json,
    basis_to_json,
    run_suite,
    verify_completeness_and_nesting,
    verify_linear_independence,
    verify_multiplication_table,
    verify_orthonormality,
)
from sunbasis.coefficients import Surd
from sunbasis.permutations import all_permutations
from sunbasis.projectors import hermitian_projector, symmetrizer, young_projector
from sunbasis.tableaux import YoungTableau, enumerate_tableaux


def T(*rows):
    return YoungTableau(tuple(tuple(r) for r in rows))


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
    with pytest.raises(ValueError, match="at least 1"):
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


def _corrupted(b: BasisMatrix, scale=Fraction(2)) -> BasisMatrix:
    """Copy with the first off-diagonal operator of the first size-2+ block rescaled."""
    blocks = []
    done = False
    for blk in b.blocks:
        if not done and blk.size >= 2:
            grid = [list(row) for row in blk.operators]
            grid[0][1] = grid[0][1].scale(Surd.rational(scale))
            blocks.append(
                BasisBlock(blk.diagram, blk.tableaux, tuple(tuple(r) for r in grid))
            )
            done = True
        else:
            blocks.append(blk)
    assert done
    return BasisMatrix(b.m, b.kind, tuple(blocks))


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
    reports = run_suite(3, "hermitian", jobs=1)
    assert [r.name for r in reports] == [
        "multiplication_table",
        "orthonormality",
        "completeness_and_nesting",
        "linear_independence",
    ]
    assert all(r.passed for r in reports)


def test_run_suite_young_skips_orthonormality():
    reports = run_suite(3, "young", jobs=1)
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
    assert run_suite(3, jobs=3) == run_suite(3)


def _clear_caches():
    for info in pkgutil.iter_modules(sunbasis.__path__):
        module = importlib.import_module(f"sunbasis.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                obj.cache_clear()


def test_warm_cache_suite_matches_cold():
    run_suite(4)
    warm = run_suite(4)
    _clear_caches()
    assert assemble.cache_info().currsize == 0
    cold = run_suite(4)
    assert cold == warm
    assert [r.checked for r in cold] == [576, 576, 5, 1]


def test_run_suite_unknown_name():
    with pytest.raises(ValueError, match="unknown suites"):
        run_suite(3, "hermitian", ("table", "unitarity"))


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

