import importlib
import math
import pkgutil
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import sunbasis
from sunbasis import basis as basis_module
from sunbasis.algebra import AlgebraElement, element_from_json, multiply, scalar_product, trace
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
from sunbasis.coefficients import PolyN, Surd
from sunbasis.permutations import all_permutations
from sunbasis.projectors import hermitian_projector, symmetrizer, young_projector
from sunbasis.tableaux import YoungTableau, enumerate_tableaux


def T(*rows):
    return YoungTableau(tuple(tuple(r) for r in rows))


# -- per-pair references ---------------------------------------------------------
#
# The suites compare every pair at once with batched integer kernels; these
# loops compute each product and pairing on its own and are the reference
# the kernels' reports must equal, failures, order and witness text included.


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
    dims = [trace(block.operators[0][0]) for block in b.blocks]
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
            expected, rhs = dims[labels[a][0]], f"dim({names[a]})"
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


def _assert_matches_reference(b: BasisMatrix) -> None:
    assert verify_multiplication_table(b) == reference_table(b)
    if b.kind == "hermitian":
        assert verify_orthonormality(b) == reference_orthonormality(b)


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


# -- batched kernels against the per-pair references -------------------------------


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


@pytest.mark.slow
def test_orthonormality_exhaustive_at_m6():
    report = verify_orthonormality(assemble(6, "hermitian"))
    assert report.passed
    assert report.checked == 518_400


@pytest.mark.slow
def test_planted_corruption_at_m6_is_caught():
    b = assemble(6, "hermitian")
    bad = _corrupted(b)
    report = verify_orthonormality(bad)
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

