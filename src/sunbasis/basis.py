"""Block basis assembly and the verification suite.

The m! operators — one projector per standard tableau plus all same-shape
transition pairs — arrange into a block matrix indexed by Young diagram,
with projectors on the diagonal of each block and transitions off it.  The
functions here assemble that matrix and check, with exact arithmetic, the
four properties that make it a basis: matrix-unit multiplication,
orthonormality of the trace pairing, completeness/nesting of the
projectors, and linear independence over the permutation expansion.

The multiplication table and orthonormality are exact, with the batched
integer kernels ``_fast.table_mismatches`` and ``_fast.gram_mismatches``,
over one common denominator (int64 while one 2**62 bound per call allows,
Python integers otherwise).  Orthonormality compares every ordered pair of
operators.  The table is proved by associativity from the pairs among each
block's reference row and column (2·#SYT − #diagrams operators, 45 of 120 at
m = 5), and the kernel runs over every pair only when one of those fails.
Only a pair the kernels flag is recomputed on its own, to build its witness.

Linear independence is proved the same way, certificate first: when each of
the m! operators has one radicand, their integer rows over that common
denominator form a square integer matrix, and a determinant that is nonzero
modulo a fixed prime (``_linalg.nonsingular_mod_p``) proves full rank.  Only
when the certificate does not apply or refuses does ``surd_rank`` rank the
operators exactly, so that a failing report names the rank.

Verification reports are structured: every failed identity carries an exact
witness string, and a report with no failures means every instance of the
identity was checked and held.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from math import factorial

import numpy as np

from . import _fast
from ._linalg import nonsingular_mod_p, surd_rank
from .algebra import AlgebraElement, multiply, scalar_product, trace
from .coefficients import PolyN
from .projectors import hermitian_projector, young_projector
from .tableaux import (
    YoungDiagram,
    YoungTableau,
    enumerate_tableaux,
    partitions,
    tableau_to_json,
    tableau_from_json,
    tableaux_of_shape,
)
from .transitions import unitary_transition_compact, young_transition

__all__ = [
    "BasisBlock",
    "BasisMatrix",
    "CheckFailure",
    "VerificationReport",
    "assemble",
    "verify_multiplication_table",
    "verify_orthonormality",
    "verify_completeness_and_nesting",
    "verify_linear_independence",
    "run_suite",
    "basis_to_json",
    "basis_from_json",
]

_BASIS_KINDS = frozenset({"young", "hermitian"})


@dataclass(frozen=True, slots=True)
class BasisBlock:
    """All operators attached to one Young diagram.

    ``operators[i][j]`` carries the image of ``tableaux[j]``'s projector
    onto the image of ``tableaux[i]``'s, so diagonal entries are the
    projectors themselves.
    """

    diagram: YoungDiagram
    tableaux: tuple[YoungTableau, ...]
    operators: tuple[tuple[AlgebraElement, ...], ...]

    @property
    def size(self) -> int:
        return len(self.tableaux)


@dataclass(frozen=True, slots=True)
class BasisMatrix:
    """The full block matrix of projectors and transitions at degree ``m``."""

    m: int
    kind: str
    blocks: tuple[BasisBlock, ...]

    def labels(self) -> list[tuple[int, int, int]]:
        """Global operator order: (block position, row, column), rows first."""
        out = []
        for b, block in enumerate(self.blocks):
            for i in range(block.size):
                for j in range(block.size):
                    out.append((b, i, j))
        return out

    def operator(self, label: tuple[int, int, int]) -> AlgebraElement:
        b, i, j = label
        return self.blocks[b].operators[i][j]

    def flat(self) -> list[tuple[tuple[int, int, int], AlgebraElement]]:
        return [(label, self.operator(label)) for label in self.labels()]

    def describe(self, label: tuple[int, int, int]) -> str:
        """Human-readable name, 1-based within the block."""
        b, i, j = label
        shape = ",".join(map(str, self.blocks[b].diagram.rows))
        return f"({shape})[{i + 1},{j + 1}]"


@dataclass(frozen=True, slots=True)
class CheckFailure:
    identity: str
    witness: str


@dataclass(frozen=True, slots=True)
class VerificationReport:
    name: str
    checked: int
    failures: tuple[CheckFailure, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "passed": self.passed,
            "failures": [
                {"identity": f.identity, "witness": f.witness} for f in self.failures
            ],
        }


def _check_basis(m: int, kind: str) -> None:
    if m < 1:
        raise ValueError(f"degree must be at least 1, got {m}")
    if kind not in _BASIS_KINDS:
        raise ValueError(f"unknown basis kind: {kind!r}")
    if kind == "young" and m >= 5:
        raise ValueError("Young transition basis undefined beyond m=4")


@cache
def assemble(m: int, kind: str = "hermitian") -> BasisMatrix:
    """Build the basis matrix: projectors on block diagonals, transitions off.

    Blocks follow the reverse-lexicographic diagram order and tableaux the
    canonical row-word order, so identical calls produce identical layouts.
    """
    _check_basis(m, kind)
    blocks = []
    for diagram in partitions(m):
        ts = tableaux_of_shape(diagram)
        grid = []
        for ti in ts:
            row = []
            for tj in ts:
                if ti == tj:
                    proj = young_projector(ti) if kind == "young" else hermitian_projector(ti)
                    row.append(proj.element)
                elif kind == "young":
                    row.append(young_transition(ti, tj).element)
                else:
                    row.append(unitary_transition_compact(ti, tj).element)
            grid.append(tuple(row))
        blocks.append(BasisBlock(diagram, ts, tuple(grid)))
    matrix = BasisMatrix(m, kind, tuple(blocks))
    sizes = [b.size for b in matrix.blocks]
    assert all(b.size == b.diagram.tableau_count() for b in matrix.blocks)
    assert sum(s * s for s in sizes) == factorial(m)
    return matrix


def _first_difference(expected: AlgebraElement, got: AlgebraElement) -> str:
    """Name the first permutation, in canonical order, whose coefficients differ."""
    p = (got - expected).support()[0]
    return (
        f"first differing permutation {p}: "
        f"expected {expected.coefficient(p)}, got {got.coefficient(p)}"
    )


def verify_multiplication_table(
    b: BasisMatrix, *, jobs: int | None = None
) -> VerificationReport:
    """Check the matrix-unit law over every ordered pair of basis operators.

    A product keeps only chains whose inner endpoints agree — block and
    tableau both — and then equals the outer-endpoint operator; everything
    else must vanish: O_ij·O_kl = δ_jk·O_il, with O_ij^λ·O_kl^μ = 0 for λ ≠ μ.

    The law is proved from a certificate.  Fix the reference index r = 0 of
    every block and let S be each block's reference column and row, the
    operators O_ir and O_rj (2·f − 1 of the f² in a block of size f).  The
    pairs S × S are ordinary table pairs, and they contain two families:

    (a) O_ir·O_rj = O_ij for all i, j of a block; with i = r or j = r this
        includes O_rr·O_rj = O_rj and O_ir·O_rr = O_ir;
    (b) O_rj^λ·O_kr^μ = δ_λμ·δ_jk·O_rr^λ.

    By associativity these give every other pair, with δ = δ_λμ·δ_jk:

        O_ij·O_kl = O_ir·(O_rj·O_kr)·O_rl = δ·O_ir·(O_rr·O_rl) = δ·O_ir·O_rl = δ·O_il.

    S × S is a subset of all pairs, so the certificate passes exactly when
    the full table does, and a passing report counts all (m!)² pairs.
    ``_fast.table_mismatches`` compares the pairs S × S exactly, one
    left-regular product per operator of S.  Only when it flags one does
    the same kernel run over every pair, so that a failing report lists
    every failed pair.  A failure names the first permutation whose
    coefficient differs, with the expected and the actual coefficient.
    ``jobs`` is accepted for compatibility and ignored: the check runs in
    this process.
    """
    labels = b.labels()
    names = [b.describe(label) for label in labels]
    ops = [b.operator(label) for label in labels]
    position = {label: k for k, label in enumerate(labels)}
    # O_ij·O_jl = O_il within a block
    targets = []
    for blk, i, j in labels:
        size = range(b.blocks[blk].size)
        targets.append(
            (
                np.array([position[(blk, j, l)] for l in size], dtype=np.intp),
                np.array([position[(blk, i, l)] for l in size], dtype=np.intp),
            )
        )
    parts = [op._parts for op in ops]
    # S: every block's reference column and row; a clean S × S proves the rest
    reference = np.array(
        [k for k, (_, i, j) in enumerate(labels) if i == 0 or j == 0], dtype=np.intp
    )
    bad = _fast.table_mismatches(b.m, parts, targets, reference)
    if bad.any():
        bad = _fast.table_mismatches(b.m, parts, targets)
    failures = []
    for a, c in np.argwhere(bad).tolist():
        (ba, ia, ja), (bc, kc, lc) = labels[a], labels[c]
        if ba == bc and ja == kc:
            k = position[(ba, ia, lc)]
            expected, rhs = ops[k], names[k]
        else:
            expected, rhs = AlgebraElement.zero(b.m), "0"
        failures.append(
            CheckFailure(
                identity=f"{names[a]} * {names[c]} == {rhs}",
                witness=_first_difference(expected, multiply(ops[a], ops[c])),
            )
        )
    return VerificationReport("multiplication_table", len(labels) ** 2, tuple(failures))


def _check_sample(sample: int | None) -> None:
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be positive, got {sample}")


def verify_orthonormality(
    b: BasisMatrix,
    *,
    sample: int | None = None,
    seed: int = 0,
    jobs: int | None = None,
) -> VerificationReport:
    """Check ⟨x, y⟩ = δ·dim over operator pairs, as exact polynomial identities.

    Distinct operators must pair to zero; an operator against itself gives
    the dimension polynomial of its block's diagram.  Every pair is compared
    exactly by ``_fast.gram_mismatches``, one Gram matrix per power of N.
    With ``sample`` the report covers that many pairs drawn uniformly with
    ``seed`` instead of all of them.  ``jobs`` is accepted for compatibility
    and ignored: the check runs in this process.
    """
    if b.kind != "hermitian":
        raise ValueError("orthonormality holds only for the hermitian basis kind")
    _check_sample(sample)
    labels = b.labels()
    names = [b.describe(label) for label in labels]
    ops = [b.operator(label) for label in labels]
    dims = [trace(block.operators[0][0]) for block in b.blocks]
    n = len(labels)
    diagonal = [dims[blk] for blk, _, _ in labels]
    bad = _fast.gram_mismatches(b.m, [op._parts for op in ops], diagonal)
    if sample is None:
        checked, flagged = n * n, np.argwhere(bad).tolist()
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(sample)]
        checked, flagged = sample, [(a, c) for a, c in pairs if bad[a, c]]
    failures = []
    for a, c in flagged:
        if a == c:
            expected, rhs = dims[labels[a][0]], f"dim({names[a]})"
        else:
            expected, rhs = PolyN(), "0"
        failures.append(
            CheckFailure(
                identity=f"<{names[a]}, {names[c]}> == {rhs}",
                witness=f"expected {expected}, got {scalar_product(ops[a], ops[c])}",
            )
        )
    return VerificationReport("orthonormality", checked, tuple(failures))


def verify_completeness_and_nesting(m: int) -> VerificationReport:
    """Check that projectors resolve the identity and refine by descent.

    At degree ``m`` the Hermitian projectors over all standard tableaux sum
    to the identity; and each degree-``m-1`` projector, embedded, equals the
    sum of its descendants' projectors.
    """
    if m < 1:
        raise ValueError(f"degree must be at least 1, got {m}")
    failures = []
    total = AlgebraElement.zero(m)
    for t in enumerate_tableaux(m):
        total = total + hermitian_projector(t).element
    checked = 1
    identity = AlgebraElement.identity(m)
    if total != identity:
        failures.append(
            CheckFailure(
                identity=f"sum of all degree-{m} projectors == id",
                witness=_first_difference(identity, total),
            )
        )
    if m >= 2:
        for parent in enumerate_tableaux(m - 1):
            checked += 1
            child_sum = AlgebraElement.zero(m)
            for child in parent.descendants():
                child_sum = child_sum + hermitian_projector(child).element
            embedded = hermitian_projector(parent).element.embed(m)
            if child_sum != embedded:
                failures.append(
                    CheckFailure(
                        identity=f"descendant projector sum == embedded projector of {parent}",
                        witness=_first_difference(embedded, child_sum),
                    )
                )
    return VerificationReport("completeness_and_nesting", checked, tuple(failures))


def verify_linear_independence(b: BasisMatrix) -> VerificationReport:
    """Check that the m! operators span the full group algebra.

    Each operator expands to a coefficient row over the m! permutations;
    the stacked matrix must have full rank over the surd field.
    ``_fast._stack`` puts every operator over one denominator D as integer
    vectors, one per radicand: x = (1/D)·Σ_d √d·V_d[x].

    When there are m! operators and each has exactly one radicand d_x, the
    rank is proved by a certificate instead.  Dividing row x by its root
    √d_x and multiplying it by D changes no rank, and leaves the integer
    row V_{d_x}[x]; these rows form a square integer matrix M.  If
    det M ≢ 0 (mod p) then det M ≠ 0, so M has full rank over Q, hence
    over the surd field, and the operators are independent.
    ``nonsingular_mod_p`` decides this for the fixed prime p = 2³¹ − 1.

    In every other case (the certificate refuses M, a row mixes radicands
    or the count is not m!) the sparse integer rows go to ``surd_rank``,
    which ranks them exactly, so a failing report names the actual rank.
    """
    ops = [op for _, op in b.flat()]
    expected = factorial(b.m)
    _, dtype, groups = _fast._stack([op._parts for op in ops])
    if len(ops) == expected and all(len(op._parts) == 1 for op in ops):
        square = np.zeros((expected, expected), dtype)
        for which, mat in groups.values():
            square[which] = mat
        if nonsingular_mod_p(square):
            return VerificationReport("linear_independence", 1)
    rows: list[dict[int, dict[int, int]]] = [{} for _ in ops]
    for d, (which, mat) in groups.items():
        for x, vec in zip(which.tolist(), mat):
            pos = np.flatnonzero(vec)
            rows[x][d] = dict(zip(pos.tolist(), vec[pos].tolist()))
    rank = surd_rank(rows)
    failures = ()
    if rank != expected:
        failures = (
            CheckFailure(
                identity=f"rank of the {len(ops)}x{expected} expansion == {expected}",
                witness=f"got rank {rank}",
            ),
        )
    return VerificationReport("linear_independence", 1, failures)


_SUITES = ("table", "ortho", "complete", "independence")


def run_suite(
    m: int,
    kind: str = "hermitian",
    suites: tuple[str, ...] | None = None,
    *,
    sample: int | None = None,
    seed: int = 0,
) -> list[VerificationReport]:
    """Run the named verification suites and return their reports in order.

    ``suites=None`` selects every suite applicable to the kind (the
    orthonormality property does not hold for the young kind, so it is
    included only for the hermitian one).  At degree five and above an
    unspecified ``sample`` defaults to 500 orthonormality pairs.
    """
    if suites is None:
        suites = _SUITES if kind == "hermitian" else ("table", "complete", "independence")
    unknown = [s for s in suites if s not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    _check_sample(sample)
    _check_basis(m, kind)
    if sample is None and m >= 5:
        sample = 500
    # completeness builds its own projectors; the other suites share one cached basis
    reports = []
    for name in suites:
        if name == "table":
            reports.append(verify_multiplication_table(assemble(m, kind)))
        elif name == "ortho":
            reports.append(verify_orthonormality(assemble(m, kind), sample=sample, seed=seed))
        elif name == "complete":
            reports.append(verify_completeness_and_nesting(m))
        elif name == "independence":
            reports.append(verify_linear_independence(assemble(m, kind)))
    return reports


# -- JSON wire format ---------------------------------------------------------


def basis_to_json(b: BasisMatrix) -> dict:
    from .algebra import element_to_json

    return {
        "m": b.m,
        "kind": b.kind,
        "blocks": [
            {
                "diagram": list(block.diagram.rows),
                "tableaux": [tableau_to_json(t) for t in block.tableaux],
                "operators": [
                    [element_to_json(op) for op in row] for row in block.operators
                ],
            }
            for block in b.blocks
        ],
    }


def basis_from_json(obj: dict) -> BasisMatrix:
    from .algebra import element_from_json

    blocks = tuple(
        BasisBlock(
            YoungDiagram(tuple(blk["diagram"])),
            tuple(tableau_from_json(t) for t in blk["tableaux"]),
            tuple(
                tuple(element_from_json(op) for op in row) for row in blk["operators"]
            ),
        )
        for blk in obj["blocks"]
    )
    return BasisMatrix(obj["m"], obj["kind"], blocks)
