"""Block basis assembly and the verification suite.

The m! operators — one projector per standard tableau plus all same-shape
transition pairs — arrange into a block matrix indexed by Young diagram,
with projectors on the diagonal of each block and transitions off it.  The
functions here assemble that matrix and check, with exact arithmetic, the
four properties that make it a basis: matrix-unit multiplication,
orthonormality of the trace pairing, completeness/nesting of the
projectors, and linear independence over the permutation expansion.

The multiplication table, orthonormality and linear independence share one
Jucys–Murphy verdict per ``BasisMatrix`` object, ``_judge``, which forms no
full product.  It tells, per operator, whether the operator is on the line
of one matrix unit, and whether its block is proved.  A proved block costs
the suites nothing; in an unproved one only the pairs that touch an
operator off its line are formed in full, and the chains of operators on
their lines are read off one coefficient each.  Operators on their lines
are independent; a grid with one off its line is ranked exactly with
``surd_rank``.  So a failing report lists every failed pair or names the
rank.

Verification reports are structured: every failed identity carries an exact
witness string, and a report with no failures means every instance of the
identity was checked and held.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import groupby
from math import factorial, lcm

import numpy as np

from . import _fast
from ._linalg import surd_rank
from .algebra import AlgebraElement, _square_sum, multiply, scalar_product, trace
from .coefficients import PolyN, int_from_json, ints_from_json
from .projectors import _in_line, dimension_formula, hermitian_projector, young_projector
from .tableaux import (
    YoungDiagram,
    YoungTableau,
    enumerate_tableaux,
    _contents,
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

_BASIS_KINDS = ("young", "hermitian")


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


def _chains_hold(
    m: int, parts: list[_fast.Parts], chains: list[tuple[int, int, int]]
) -> list[bool]:
    """Whether (a·c)[g] = z[g] for each chain (a, c, z) of indices into
    ``parts``, g the first permutation where z is nonzero; ``chains`` is not
    empty.

    (a·c)[g] = Σ_h a[h]·c[h⁻¹g] is one row-wise sum of length m! per radicand
    pair √d·√e = r·√s, compared over the common denominator D of ``parts``:
    D²·(a·c)[g] against D²·z[g].  Only the factors are stacked, as stored,
    so a row-wise sum cannot overflow (see ``_fast``).  The sums run in the
    order of g, in chunks that read h⁻¹g off the images once per distinct g
    and hold at most ``_fast._GATHER_LIMIT`` entries, images included.
    """
    n = factorial(m)
    step = max(1, _fast._GATHER_LIMIT // ((m + 3) * n))
    rows = [(z, vec) for z in sorted({z for _, _, z in chains}) for _, vec in parts[z].values()]
    first = np.full(len(parts), n)  # where each target is first nonzero
    for lo in range(0, len(rows), step):
        found = (np.stack([vec for _, vec in rows[lo : lo + step]]) != 0).argmax(axis=1)
        np.minimum.at(first, [z for z, _ in rows[lo : lo + step]], found)
    factors = sorted({x for a, c, _ in chains for x in (a, c)})
    row_of = {key: r for r, key in enumerate((x, d) for x in factors for d in parts[x])}
    stacked = np.stack([parts[x][d][1] for x, d in row_of])
    den = lcm(*(denom for p in parts for denom, _ in p.values()))
    radicands = {d for p in parts for d in p}
    landing = {(d, e): (s, r) for s, terms in _fast._landing(radicands).items() for d, e, r in terms}
    # (chain, a's row, c's row, g, s, r·(D/den_a)·(D/den_c)), in the order of g
    terms = [
        (k, row_of[a, d], row_of[c, e], first[z], s, r * (den // pa) * (den // pc))
        for k, (a, c, z) in sorted(enumerate(chains), key=lambda chain: first[chain[1][2]])
        for d, (pa, _) in parts[a].items()
        for e, (pc, _) in parts[c].items()
        for s, r in [landing[d, e]]
    ]
    images, inverse = _fast.lexicographic(m)[0], _fast.inverse_table(m)
    got: list[dict[int, int]] = [{} for _ in chains]
    for lo in range(0, len(terms), step):
        ks, ra, rc, gs, ss, scales = zip(*terms[lo : lo + step])
        # h⁻¹g = (g⁻¹h)⁻¹ over h, once per distinct g: g⁻¹'s images read at h's
        firsts = sorted(set(gs))
        lines = inverse[_fast.positions(m, images[inverse[firsts]][:, images])]
        partner = lines[[firsts.index(g) for g in gs]] + n * np.array(rc)[:, None]
        products = stacked.ravel()[partner]
        products *= stacked[list(ra)]
        sums = products.sum(axis=1).tolist()
        for k, s, scale, total in zip(ks, ss, scales, sums):
            got[k][s] = got[k].get(s, 0) + scale * total
    holds = []
    for k, (_, _, z) in enumerate(chains):
        g = first[z]
        want = {s: den * (den // pz) * int(vz[g]) for s, (pz, vz) in parts[z].items()}
        holds.append({s: v for s, v in got[k].items() if v} == {s: v for s, v in want.items() if v})
    return holds


class _Identity:
    """A key that is equal only to itself: it hashes the object's id and holds
    the object, so that the id is not reused while the key is cached."""

    __slots__ = ("obj",)

    def __init__(self, obj: object):
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Identity) and other.obj is self.obj


@lru_cache(maxsize=1)
def _verdict(key: _Identity) -> tuple[np.ndarray, np.ndarray]:
    b = key.obj
    labels = b.labels()
    tableaux = [t for block in b.blocks for t in block.tableaux]
    if len(set(tableaux)) != len(tableaux) or any(t.n != b.m for t in tableaux):
        return (np.zeros(len(labels), dtype=bool),) * 2
    at = {label: x for x, label in enumerate(labels)}
    flip = [at[blk, j, i] for blk, i, j in labels]
    parts = [b.operator(label)._parts for label in labels]
    # O_ST† = O_TS: (x†)[g] = x[g⁻¹] under the same radicands and denominators
    keys = [[(d, den) for d, (den, _) in p.items()] for p in parts]
    adjoint = np.array([keys[x] == keys[y] for x, y in enumerate(flip)], dtype=bool)
    rows = [
        (x, vec, parts[y][d][1])
        for x, y in enumerate(flip)
        if x <= y and adjoint[x]
        for d, (_, vec) in parts[x].items()
    ]
    inverse = _fast.inverse_table(b.m)
    step = max(1, _fast._GATHER_LIMIT // len(inverse))
    for lo in range(0, len(rows), step):
        xs, vs, ws = zip(*rows[lo : lo + step])
        same = (np.take(np.stack(vs), inverse, axis=1) == np.stack(ws)).all(axis=1)
        adjoint[np.array(xs)[~same]] = False
    adjoint &= adjoint[flip]
    # the right eigen rows of every operator; those of O_TS are O_ST's left side
    owner = np.array([x for x, p in enumerate(parts) for _ in p], dtype=np.intp)
    right = np.array([bool(p) for p in parts], dtype=bool)
    # each label takes its column tableau's contents
    start = np.cumsum([0] + [block.size for block in b.blocks])
    column = np.array([start[blk] + j for blk, _, j in labels], dtype=np.intp)
    content = np.array([_contents(t) for t in tableaux], dtype=np.intp).reshape(-1, b.m)
    vecs = [vec for p in parts for _, vec in p.values()]
    right[owner[~_fast.in_eigenspaces(b.m, vecs, content[column[owner]])]] = False
    on = right & right[flip]
    for x in np.flatnonzero(~adjoint).tolist():
        blk, i, j = labels[x]
        on[x] = _in_line(b.operator(labels[x]), b.blocks[blk].tableaux[i], b.blocks[blk].tableaux[j])
    block_of = np.array([blk for blk, _, _ in labels], dtype=np.intp)
    proved = np.ones(len(b.blocks), dtype=bool)
    proved[block_of[~(on & adjoint)]] = False
    # the chains of the blocks that pass (a)
    closed = proved.tolist()
    candidate = [(x, label) for x, label in enumerate(labels) if closed[label[0]]]
    chains = [(at[blk, i, 0], at[blk, 0, j], x) for x, (blk, i, j) in candidate]
    chains += [(at[blk, 0, j], at[blk, j, 0], at[blk, 0, 0]) for _, (blk, i, j) in candidate if i == j]
    if chains:
        held = _chains_hold(b.m, parts, chains)
        proved[[labels[z][0] for (_, _, z), ok in zip(chains, held) if not ok]] = False
    return on, proved[block_of]


def _judge(b: BasisMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per operator of ``b`` in label order: whether it is on its line, and
    whether its block is proved.

    Write O_ST for ``operators[i][j]`` of a block, S = ``tableaux[i]``,
    T = ``tableaux[j]``, 1 for its first tableau, X_k = Σ_{i<k} (i k) and
    c_T(k) for the content (column − row) of k in T.  Nothing is on its
    line unless the tableaux of ``b`` are pairwise distinct and of degree m.
    Then O_ST is on its line when it is nonzero, X_k·O_ST = c_S(k)·O_ST and
    O_ST·X_k = c_T(k)·O_ST for k = 2..m.  A block is proved when (a) its
    operators are on their lines and O_ST† = O_TS, and (b)
    (O_S1·O_1T)[g] = O_ST[g] and (O_1T·O_T1)[g] = O_11[g], g the first
    permutation where the right-hand side is nonzero (``_chains_hold``).

    The right sides are one ``_fast.in_eigenspaces`` mask over the stored
    vectors.  The X_k are Hermitian, so where O_ST† = O_TS the right side of
    O_TS is the left side of O_ST; any other operator runs
    ``projectors._in_line``.  Only blocks that pass (a) run their chains.

    Proof.  The X_k generate the commutative algebra of the primitive
    idempotents E_T of all standard tableaux T, X_k·E_T = E_T·X_k =
    c_T(k)·E_T, and content vectors separate standard tableaux
    (Okounkov–Vershik).  So X_k·a = c_S(k)·a for all k gives
    (c_U(k) − c_S(k))·E_U·a = 0, hence a = E_S·a, and the right side gives
    a = a·E_T: an operator on its line lies in E_S·A·E_T, the line of the
    seminormal unit E_ST when S, T have one shape and 0 otherwise, so
    O_ST = c_ST·E_ST with c_ST ≠ 0.  Hence two operators on their lines
    multiply to 0 unless they chain as O_ST·O_TV, as E_ST·E_UV = δ_TU·E_SV,
    and pair to 0 unless they are one operator: O_ST† lies in E_T·A·E_S,
    so tr(O_ST†·O_UV) = 0 for S ≠ U, and tr(E_T·a·E_V) = tr(E_V·E_T·a) = 0
    for T ≠ V.  Operators on their lines, as nonzero elements of distinct
    summands of A = ⊕ E_S·A·E_T, are independent.  In a block that passes
    (a), E_ST[g] ≠ 0 where O_ST[g] ≠ 0, so (b) reads c_S1·c_1T = c_ST and
    c_1T·c_T1 = c_11, and S = T = 1 gives c_11 = 1, so c_ST·c_TV =
    c_S1·(c_1T·c_T1)·c_1V = c_SV: O_ST·O_TV = O_SV.  As O_ST† = O_TS, the
    cyclic trace gives ⟨O_ST, O_ST⟩ = tr(O_TS·O_ST) = tr(O_TT) =
    tr(O_T1·O_1T) = tr(O_11).  So every product and pairing of a proved
    block's operators holds.  Keppeler–Sjödahl identify the Hermitian Young
    projectors with the E_T, so every block of the Hermitian grid is proved.

    The three suites share the verdict of the latest basis object, keyed by
    identity, as hashing a basis hashes every operator vector.
    """
    return _verdict(_Identity(b))


def verify_multiplication_table(
    b: BasisMatrix, *, jobs: int | None = None
) -> VerificationReport:
    """Check the matrix-unit law over every ordered pair of basis operators.

    A product keeps only chains whose inner endpoints agree — block and
    tableau both — and then equals the outer-endpoint operator; everything
    else must vanish: O_ij·O_kl = δ_jk·O_il, with O_ij^λ·O_kl^μ = 0 for λ ≠ μ.

    Every pair within a block that ``_judge`` proves holds, and so does every
    pair of operators on their lines that does not chain.  A chain of an
    unproved block whose operators are on their lines holds iff one
    coefficient does (``_chains_hold``).  Every other pair is multiplied:
    those with an operator off its line, and the chains whose target is.  A
    failure names the first permutation whose coefficient differs, with the
    expected and the actual coefficient.
    ``jobs`` is accepted for compatibility and ignored.
    """
    labels = b.labels()
    on, proved = _judge(b)
    if proved.all():
        return VerificationReport("multiplication_table", len(labels) ** 2)
    names = [b.describe(label) for label in labels]
    ops = [b.operator(label) for label in labels]
    position = {label: k for k, label in enumerate(labels)}
    # O_ij·O_jl = O_il within an unproved block, in the order of the labels
    target = {
        (a, position[blk, j, l]): position[blk, i, l]
        for a, (blk, i, j) in enumerate(labels)
        if not proved[a]
        for l in range(b.blocks[blk].size)
    }
    failures = {}

    def check(a: int, c: int) -> None:
        z = target.get((a, c))
        expected, rhs = (AlgebraElement.zero(b.m), "0") if z is None else (ops[z], names[z])
        got = multiply(ops[a], ops[c])
        if got != expected:
            failures[a, c] = CheckFailure(
                identity=f"{names[a]} * {names[c]} == {rhs}",
                witness=_first_difference(expected, got),
            )

    # one call per block, so that only its operators are stacked
    lined = [(a, c, z) for (a, c), z in target.items() if on[a] and on[c] and on[z]]
    parts = [op._parts for op in ops]
    for _, chains in groupby(lined, key=lambda chain: labels[chain[0]][0]):
        chains = list(chains)
        for (a, c, _), holds in zip(chains, _chains_hold(b.m, parts, chains)):
            if not holds:
                check(a, c)
    off = [x for x, ok in enumerate(on) if not ok]
    suspects = {pair for x in off for y in range(len(ops)) for pair in ((x, y), (y, x))}
    suspects.update(pair for pair, z in target.items() if not on[z])
    for a, c in suspects:
        check(a, c)
    return VerificationReport(
        "multiplication_table", len(labels) ** 2, tuple(failures[k] for k in sorted(failures))
    )


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
    the dimension polynomial of its block's diagram.  With ``sample`` the
    report covers that many pairs drawn uniformly with ``seed`` instead of
    all of them.  Pairs within a block that ``_judge`` proves hold, and so
    do two distinct operators on their lines.  An operator on its line in an
    unproved block pairs with itself to dim(λ)·H_λ·Σ_g O[g]², λ the shape of
    its tableaux, so only the pairs with an operator off its line are formed,
    once each.  ``jobs`` is accepted for compatibility and ignored.
    """
    if b.kind != "hermitian":
        raise ValueError("orthonormality holds only for the hermitian basis kind")
    _check_sample(sample)
    labels = b.labels()
    n = len(labels)
    checked = n * n if sample is None else sample
    on, proved = _judge(b)
    if proved.all():
        return VerificationReport("orthonormality", checked)
    names = [b.describe(label) for label in labels]
    ops = [b.operator(label) for label in labels]
    dims = {k: trace(block.operators[0][0]) for k, block in enumerate(b.blocks) if block.size}
    if sample is None:
        off = [x for x, ok in enumerate(on) if not ok]
        touched = {pair for x in off for y in range(n) for pair in ((x, y), (y, x))}
        pairs = sorted(touched | {(x, x) for x in range(n) if not proved[x]})
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(sample)]
    found: dict[tuple[int, int], CheckFailure | None] = {}
    for a, c in pairs:
        if (a, c) in found or (a != c and on[a] and on[c]) or (a == c and proved[a]):
            continue
        if a == c:
            expected, rhs = dims[labels[a][0]], f"dim({names[a]})"
        else:
            expected, rhs = PolyN(), "0"
        if a == c and on[a]:
            # O†·O = μ·E_T, μ = H_λ·(O·O†)[e] = H_λ·Σ_g O[g]², and tr(E_T) = dim λ
            blk, i, _ = labels[a]
            shape = b.blocks[blk].tableaux[i].shape
            value = dimension_formula(shape) * (shape.hook_length() * _square_sum(ops[a]))
        else:
            value = scalar_product(ops[a], ops[c])
        found[a, c] = None if value == expected else CheckFailure(
            identity=f"<{names[a]}, {names[c]}> == {rhs}",
            witness=f"expected {expected}, got {value}",
        )
    failures = tuple(found[pair] for pair in pairs if found.get(pair))
    return VerificationReport("orthonormality", checked, failures)


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
    the stacked matrix must have full rank over the surd field.  Operators
    that ``_judge`` puts on their lines are independent, so when all of them
    are, the rank is their number.  Otherwise the rows are ranked exactly by
    ``surd_rank``, so a failing report names the actual rank.  Each row is
    its operator's integer vectors over the operator's own common
    denominator: scaling a row keeps the rank.
    """
    on, _ = _judge(b)
    expected = factorial(b.m)
    if on.all():
        rank = len(on)
    else:
        rows = []
        for _, op in b.flat():
            den = lcm(*(denom for denom, _ in op._parts.values()))
            scaled = {d: (vec.tolist(), den // denom) for d, (denom, vec) in op._parts.items()}
            rows.append({d: {k: v * s for k, v in enumerate(vec) if v} for d, (vec, s) in scaled.items()})
        rank = surd_rank(rows)
    failures = ()
    if rank != expected:
        failures = (
            CheckFailure(
                identity=f"rank of the {len(on)}x{expected} expansion == {expected}",
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
    """Parse a basis; a block whose operator grid is not square over its
    tableaux, or that holds an operator of another degree, raises ValueError."""
    from .algebra import element_from_json

    m, kind = int_from_json(obj["m"]), obj["kind"]
    _check_basis(m, kind)
    blocks = []
    for blk in obj["blocks"]:
        diagram = YoungDiagram(ints_from_json(blk["diagram"]))
        tableaux = tuple(tableau_from_json(t) for t in blk["tableaux"])
        grid = tuple(tuple(element_from_json(op) for op in row) for row in blk["operators"])
        name = ",".join(map(str, diagram.rows))
        if len(grid) != len(tableaux) or any(len(row) != len(tableaux) for row in grid):
            raise ValueError(f"block ({name}): operator grid is not {len(tableaux)}x{len(tableaux)}")
        if any(op.m != m for row in grid for op in row):
            raise ValueError(f"block ({name}): operator degree differs from m = {m}")
        blocks.append(BasisBlock(diagram, tableaux, grid))
    return BasisMatrix(m, kind, tuple(blocks))
