"""Block basis assembly and the verification suite.

The m! operators — one projector per standard tableau plus all same-shape
transition pairs — arrange into a block matrix indexed by Young diagram,
with projectors on the diagonal of each block and transitions off it.  The
functions here assemble that matrix and check, with exact arithmetic, the
four properties that make it a basis: matrix-unit multiplication,
orthonormality of the trace pairing, completeness/nesting of the
projectors, and linear independence over the permutation expansion.

Each ``BasisMatrix`` object holds its own Jucys–Murphy verdict, ``_verdict``,
formed on first use, which ``assemble`` and the suites of the multiplication
table, orthonormality and linear independence read; a new grid object is
proved afresh.  The verdict forms no full product; it is the Hermitian
grid's one line check (``projectors._normalize`` checks a standalone operator).
It tells, per operator, whether the operator is on the line of one matrix
unit, and whether its block is proved.  A proved block costs the suites
nothing; in an unproved one only the pairs that touch an operator off its
line are formed in full, and the chains of operators on their lines are
read off one coefficient each.  Operators on their lines are independent;
a grid with one off its line is ranked exactly with ``surd_rank``.  So a
failing report lists every failed pair or names the rank.

Verification reports are structured: every failed identity carries an exact
witness string, and a report with no failures means every instance of the
identity was checked and held.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import groupby
from math import factorial, lcm

from . import _fast
from ._fast import np
from ._linalg import surd_rank
from .algebra import (
    AlgebraElement, _square_sum, element_from_json, element_to_json, multiply, scalar_product,
)
from .coefficients import PolyN, int_from_json, ints_from_json, squarefree_decompose
from .permutations import _check_degree
from .projectors import _mold_bar, _unit, hermitian_projector, young_projector
from .tableaux import (
    YoungDiagram,
    YoungTableau,
    enumerate_tableaux,
    _contents,
    dimension_formula,
    partitions,
    tableau_to_json,
    tableau_from_json,
    tableaux_of_shape,
)
from .transitions import young_transition

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


@dataclass(frozen=True)
class BasisMatrix:
    """The full block matrix of projectors and transitions at degree ``m``."""

    m: int
    kind: str
    blocks: tuple[BasisBlock, ...]

    @cached_property
    def _proof(self) -> tuple[np.ndarray, np.ndarray, _Rows | None]:
        """The grid's ``_verdict``, formed once and freed with the grid."""
        return _verdict(self)

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
    _check_degree(m)
    if kind not in _BASIS_KINDS:
        raise ValueError(f"unknown basis kind: {kind!r}")
    if kind == "young" and m >= 5:
        raise ValueError("Young transition basis undefined beyond m=4")


def assemble(m: int, kind: str = "hermitian") -> BasisMatrix:
    """Build the basis matrix: projectors on block diagonals, transitions off.

    Blocks follow the reverse-lexicographic diagram order and tableaux the
    canonical row-word order, so identical calls produce identical layouts,
    and every spelling of one call returns the one cached grid.  A Hermitian
    grid is proved by its verdict: an operator off its line raises ValueError.
    """
    return _assemble(m, kind)


def _entry(kind: str, s: YoungTableau, t: YoungTableau) -> AlgebraElement:
    """Operator [s][t] of a grid: the projector of s, or the transition from t onto s."""
    if kind == "young":
        return (young_projector(s) if s == t else young_transition(s, t)).element
    return hermitian_projector(s).element if s == t else _unit(_mold_bar(s, t), s)[0]


@cache
def _assemble(m: int, kind: str) -> BasisMatrix:
    _check_basis(m, kind)
    blocks = []
    for diagram in partitions(m):
        ts = tableaux_of_shape(diagram)
        blocks.append(BasisBlock(diagram, ts, tuple(tuple(_entry(kind, s, t) for t in ts) for s in ts)))
    matrix = BasisMatrix(m, kind, tuple(blocks))
    sizes = [b.size for b in matrix.blocks]
    assert all(b.size == b.diagram.tableau_count() for b in matrix.blocks)
    assert sum(s * s for s in sizes) == factorial(m)
    if kind == "hermitian" and not (on := matrix._proof[0]).all():
        name = matrix.describe(matrix.labels()[int(np.argmin(on))])
        raise ValueError(f"{name}: product is not in its tableaux' Jucys–Murphy eigenspaces")
    return matrix


def _first_difference(expected: AlgebraElement, got: AlgebraElement) -> str:
    """Name the first permutation, in canonical order, whose coefficients differ."""
    p = (got - expected).support()[0]
    return (
        f"first differing permutation {p}: "
        f"expected {expected.coefficient(p)}, got {got.coefficient(p)}"
    )


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For counts c_k: the k of each of the Σ c_k items, and its place among its c_k."""
    k = np.repeat(np.arange(len(counts)), counts)
    return k, np.arange(len(k)) - (np.cumsum(counts) - counts)[k]


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values in increasing order, and the place of each value
    among them: ``np.unique`` by one stable argsort, which maps none of
    numpy's other sort kernels into the process."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.ones(len(values), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    place = np.empty(len(values), dtype=np.intp)
    place[order] = np.cumsum(new) - 1
    return ordered[new], place


@dataclass(frozen=True, slots=True)
class _Rows:
    """The stored vectors of a grid as rows, one per (operator, radicand)
    pair in label order, and what the chains read of them as arrays.

    Operator x owns the ``count[x]`` rows from ``start[x]``.  Row r stands
    for √rads[rad[r]]·vecs[r]/q, and ``lift[r]`` = D/q over the common
    denominator ``den`` = D.  Operator x is first nonzero at ``first[x]``,
    where row r of it holds ``lead[r]``; ``lift`` and ``lead`` hold Python
    integers.
    """

    m: int
    vecs: list[np.ndarray]
    start: np.ndarray
    count: np.ndarray
    rads: list[int]
    rad: np.ndarray
    lift: np.ndarray
    den: int
    first: np.ndarray
    lead: np.ndarray


def _chains_hold(rows: _Rows, a: np.ndarray, c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per chain k, whether (O_a·O_c)[g] = O_z[g] for the nonzero operators
    a[k], c[k] and z[k] of ``rows``, g the first permutation where O_z is
    nonzero; ``z`` is not empty.

    Each pair of a row of O_a and a row of O_c, √d·√e = r·√s, is one term
    Σ_h O_a[h]·O_c[h⁻¹g], a row-wise sum of length m!.  Only the factors'
    rows are stacked, as stored, so a row-wise sum cannot overflow (see
    ``_fast``).  Over the common denominator D a chain holds when, for each
    s, its terms' sums times r·(D/q_a)·(D/q_c) add up to D·(D/q_z)·O_z[g]'s
    numerator, compared in Python integers.  The sums run in the order of
    g, in chunks that read h⁻¹g off the images once per distinct g and hold
    at most ``_fast._GATHER_LIMIT`` entries, images included.
    """
    m, n = rows.m, factorial(rows.m)
    chain, k = _spread(rows.count[a] * rows.count[c])
    width = rows.count[c][chain]
    ra, rc = rows.start[a][chain] + k // width, rows.start[c][chain] + k % width
    g = rows.first[z][chain]
    factors, at = _distinct(np.concatenate([ra, rc]))
    stacked = _fast.stack([rows.vecs[r] for r in factors.tolist()])
    fa, fc = at[: len(ra)], at[len(ra) :]
    images, inverse = _fast.lexicographic(m)[0], _fast.inverse_table(m)
    sums = np.empty(len(chain), dtype=object)  # Python integers
    order = np.argsort(g, kind="stable")
    step = max(1, _fast._GATHER_LIMIT // ((m + 3) * n))
    for lo in range(0, len(order), step):
        terms = order[lo : lo + step]
        # h⁻¹g = (g⁻¹h)⁻¹ over h, once per distinct g: g⁻¹'s images read at h's
        firsts, line = _distinct(g[terms])
        lines = inverse[_fast.positions(m, images[inverse[firsts]][:, images])]
        products = stacked.ravel()[lines[line] + n * fc[terms, None]]
        products *= stacked[fa[terms]]
        sums[terms] = products.sum(axis=1)
    # √d·√e = r·√s once per distinct pair of radicands, s numbered after them
    many = len(rows.rads)
    pairs, pair = _distinct(rows.rad[ra] * many + rows.rad[rc])
    number = {d: x for x, d in enumerate(rows.rads)}
    lands, roots = [], []
    for p in pairs.tolist():
        s, r = squarefree_decompose(rows.rads[p // many] * rows.rads[p % many])
        lands.append(number.setdefault(s, len(number)))
        roots.append(r)
    got = sums * np.array(roots, dtype=object)[pair] * rows.lift[ra] * rows.lift[rc]
    target, k = _spread(rows.count[z])
    rz = rows.start[z][target] + k
    want = rows.den * rows.lift[rz] * rows.lead[rz]
    # chain k holds when got − want adds to 0 under every (k, s)
    lands = np.array(lands, dtype=np.intp)[pair]
    keys, key = _distinct(np.concatenate([chain * len(number) + lands, target * len(number) + rows.rad[rz]]))
    totals = np.zeros(len(keys), dtype=object)
    np.add.at(totals, key, np.concatenate([got, -want]))
    holds = np.ones(len(z), dtype=bool)
    holds[keys[totals != 0] // len(number)] = False
    return holds


def _verdict(b: BasisMatrix) -> tuple[np.ndarray, np.ndarray, _Rows | None]:
    """Per operator of ``b`` in label order: whether it is on its line, and
    whether its block is proved; and the rows its chains read (``_Rows``),
    None when the tableaux are not distinct and of degree m.  A grid forms
    it once, as ``BasisMatrix._proof``.

    Write O_ST for ``operators[i][j]`` of a block, S = ``tableaux[i]``,
    T = ``tableaux[j]``, 1 for its first tableau, X_k = Σ_{i<k} (i k) and
    c_T(k) for the content (column − row) of k in T.  Nothing is on its
    line unless the tableaux of ``b`` are pairwise distinct and of degree m.
    Then O_ST is on its line when it is nonzero, X_k·O_ST = c_S(k)·O_ST and
    O_ST·X_k = c_T(k)·O_ST for k = 2..m.  A block is proved when (a) its
    operators are on their lines and O_ST† = O_TS, and (b)
    (O_S1·O_1T)[g] = O_ST[g] and (O_1T·O_T1)[g] = O_11[g], g the first
    permutation where the right-hand side is nonzero (``_chains_hold``).

    The verdict is one array program over the stored vectors as rows, one
    per (operator, radicand) pair (``_Rows``).  The labels' blocks, rows,
    columns and adjoint partners, each row's operator, radicand and
    denominator, and each operator's first nonzero permutation are index
    arrays, computed once.  One pass over the rows, in chunks of whole
    blocks under ``_fast._GATHER_LIMIT`` entries, checks O_ST† = O_TS and
    finds the first nonzeros.  The sides are one ``_fast.in_eigenspaces``
    mask over all rows.  The X_k are Hermitian, so where O_ST† = O_TS the
    right side of O_TS is the left side of O_ST; any other operator's
    adjoint rows, O_ST†[g] = O_ST[g⁻¹], join the mask with S's contents.
    Only blocks that pass (a) run their chains, in one ``_chains_hold`` call.

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
    """
    m, n = b.m, factorial(b.m)
    tableaux = [t for block in b.blocks for t in block.tableaux]
    parts = [op._parts for block in b.blocks for row in block.operators for op in row]
    if len(set(tableaux)) != len(tableaux) or any(t.n != m for t in tableaux):
        return np.zeros(len(parts), dtype=bool), np.zeros(len(parts), dtype=bool), None
    # labels: block, row i and column j, the block's first label and O_ST's O_TS
    sizes = np.array([block.size for block in b.blocks], dtype=np.intp)
    block_of, local = _spread(sizes * sizes)
    side = sizes[block_of]
    i, j = np.divmod(local, side)
    corner = np.arange(len(parts)) - local
    flip = corner + j * side + i
    # rows: operator, place among its rows, radicand and denominator
    count = np.array([len(p) for p in parts], dtype=np.intp)
    owner, place = _spread(count)
    start = np.cumsum(count) - count
    vecs = [vec for p in parts for _, vec in p.values()]
    rads = sorted({d for p in parts for d in p})
    number = {d: x for x, d in enumerate(rads)}
    rad = np.array([number[d] for p in parts for d in p], dtype=np.intp)
    denoms = [q for p in parts for q, _ in p.values()]
    qs = sorted(set(denoms))
    index = {q: x for x, q in enumerate(qs)}
    denom = np.array([index[q] for q in denoms], dtype=np.intp)
    den = lcm(*qs)
    # O_ST† = O_TS: (x†)[g] = x[g⁻¹] under the same radicands and denominators
    paired = count == count[flip]
    twin = np.where(paired[owner], start[flip][owner] + place, 0)
    adjoint = paired.copy()
    adjoint[owner[(rad != rad[twin]) | (denom != denom[twin])]] = False
    check = adjoint[owner] & (owner <= flip[owner])
    # one pass over the rows, in chunks of whole blocks where they fit: a
    # chunk and the gathers of its adjoint check hold at most
    # ``_fast._GATHER_LIMIT`` entries
    inverse = _fast.inverse_table(m)
    step = max(1, _fast._GATHER_LIMIT // (4 * n))
    edges = np.append(start, len(vecs))[np.concatenate([[0], np.cumsum(sizes * sizes)])]
    found = np.empty(len(vecs), dtype=np.intp)
    value = np.empty(len(vecs), dtype=object)
    lo = 0
    while lo < len(vecs):
        hi = edges[np.searchsorted(edges, lo + step, side="right") - 1]
        hi = hi if hi > lo else min(lo + step, len(vecs))
        stacked = _fast.stack(vecs[lo:hi])
        found[lo:hi] = (stacked != 0).argmax(axis=1)
        value[lo:hi] = stacked[np.arange(hi - lo), found[lo:hi]]
        r = np.flatnonzero(check[lo:hi])
        if len(r):
            w = twin[lo + r]
            inside = w.min() >= lo and w.max() < hi
            adjoints = stacked[w - lo] if inside else _fast.stack([vecs[x] for x in w.tolist()])
            same = (np.take(stacked[r], inverse, axis=1) == adjoints).all(axis=1)
            adjoint[owner[lo + r[~same]]] = False
        lo = hi
    adjoint &= adjoint[flip]
    first = np.full(len(parts), n)
    np.minimum.at(first, owner, found)
    lead = np.where(found == first[owner], value, 0)
    lift = np.array([den // q for q in qs], dtype=object)[denom]
    rows = _Rows(m, vecs, start, count, rads, rad, lift, den, first, lead)
    # the right sides of all rows, and the adjoint rows x†[g] = x[g⁻¹] where x† ≠ O_TS
    offset = (np.cumsum(sizes) - sizes)[block_of]
    content = np.array([_contents(t) for t in tableaux], dtype=np.intp).reshape(-1, m)
    lone = np.flatnonzero(~adjoint[owner])
    sides = np.concatenate([(offset + j)[owner], (offset + i)[owner[lone]]])
    held = _fast.in_eigenspaces(m, vecs + [vecs[r][inverse] for r in lone.tolist()], content[sides])
    right = count > 0
    right[owner[~held[: len(vecs)]]] = False
    on = right & np.where(adjoint, right[flip], True)
    on[owner[lone[~held[len(vecs) :]]]] = False
    proved = np.ones(len(sizes), dtype=bool)
    proved[block_of[~(on & adjoint)]] = False
    # the chains of the blocks that pass (a): O_S1·O_1T = O_ST and O_1T·O_T1 = O_11
    x = np.flatnonzero(proved[block_of])
    d = x[i[x] == j[x]]
    z = np.concatenate([x, corner[d]])
    if len(z):
        a = np.concatenate([corner[x] + i[x] * side[x], corner[d] + j[d]])
        c = np.concatenate([corner[x] + j[x], corner[d] + j[d] * side[d]])
        proved[block_of[z[~_chains_hold(rows, a, c, z)]]] = False
    return on, proved[block_of], rows


def verify_multiplication_table(
    b: BasisMatrix, *, jobs: int | None = None
) -> VerificationReport:
    """Check the matrix-unit law over every ordered pair of basis operators.

    A product keeps only chains whose inner endpoints agree — block and
    tableau both — and then equals the outer-endpoint operator; everything
    else must vanish: O_ij·O_kl = δ_jk·O_il, with O_ij^λ·O_kl^μ = 0 for λ ≠ μ.

    Every pair within a block that the verdict proves holds, and so does every
    pair of operators on their lines that does not chain.  A chain of an
    unproved block whose operators are on their lines holds iff one
    coefficient does (``_chains_hold``).  Every other pair is multiplied:
    those with an operator off its line, and the chains whose target is.  A
    failure names the first permutation whose coefficient differs, with the
    expected and the actual coefficient.
    ``jobs`` is accepted for compatibility and ignored.
    """
    on, proved, rows = b._proof
    if proved.all():
        return VerificationReport("multiplication_table", len(on) ** 2)
    labels = b.labels()
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
    for _, chains in groupby(lined, key=lambda chain: labels[chain[0]][0]):
        a, c, z = np.array(list(chains)).T
        for x, y, holds in zip(a.tolist(), c.tolist(), _chains_hold(rows, a, c, z)):
            if not holds:
                check(x, y)
    suspects = _touching(on)
    suspects.update(pair for pair, z in target.items() if not on[z])
    for a, c in suspects:
        check(a, c)
    return VerificationReport(
        "multiplication_table", len(labels) ** 2, tuple(failures[k] for k in sorted(failures))
    )


def _touching(on: np.ndarray) -> set[tuple[int, int]]:
    """The ordered pairs of labels that touch an operator off its line."""
    return {pair for x in np.flatnonzero(~on).tolist() for y in range(len(on)) for pair in ((x, y), (y, x))}


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
    ``dimension_formula`` of its row tableau's shape.  With ``sample`` the
    report covers that many pairs drawn uniformly with ``seed`` instead of
    all of them.  Pairs within a block that the verdict proves hold, and so
    do two distinct operators on their lines.  An operator on its line in an
    unproved block pairs with itself to dim(λ)·H_λ·Σ_g O[g]², λ the shape of
    its tableaux, so only the pairs with an operator off its line are formed,
    once each.  ``jobs`` is accepted for compatibility and ignored.
    """
    if b.kind != "hermitian":
        raise ValueError("orthonormality holds only for the hermitian basis kind")
    _check_sample(sample)
    on, proved, _ = b._proof
    n = len(on)
    checked = n * n if sample is None else sample
    if proved.all():
        return VerificationReport("orthonormality", checked)
    labels = b.labels()
    names = [b.describe(label) for label in labels]
    ops = [b.operator(label) for label in labels]
    if sample is None:
        pairs = sorted(_touching(on) | {(x, x) for x in range(n) if not proved[x]})
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(sample)]
    found: dict[tuple[int, int], CheckFailure | None] = {}
    for a, c in pairs:
        if (a, c) in found or (a != c and on[a] and on[c]) or (a == c and proved[a]):
            continue
        if a == c:
            blk, i, _ = labels[a]
            shape = b.blocks[blk].tableaux[i].shape
            expected, rhs = dimension_formula(shape), f"dim({names[a]})"
        else:
            expected, rhs = PolyN(), "0"
        if a == c and on[a]:
            # O†·O = μ·E_T, μ = H_λ·(O·O†)[e] = H_λ·Σ_g O[g]², and tr(E_T) = dim λ
            value = expected * (shape.hook_length() * _square_sum(ops[a]))
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
    _check_degree(m)
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
    the stacked matrix's rank over the surd field must be both its row count
    and m!.  Operators that the verdict puts on their lines are independent,
    so when all of them are, the rank is their number.  Otherwise the rows
    are ranked exactly by ``surd_rank``, so a failing report names the actual
    rank.  Each row is its operator's integer vectors over the operator's
    own common denominator: scaling a row keeps the rank.
    """
    on = b._proof[0]
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
    ranks = dict.fromkeys((len(on), expected))
    failures = ()
    if set(ranks) != {rank}:
        failures = (
            CheckFailure(
                identity=f"rank of the {len(on)}x{expected} expansion == {' == '.join(map(str, ranks))}",
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
    if not suites:
        raise ValueError("empty suite selection")
    unknown = [s for s in suites if s not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}; choose from {', '.join(_SUITES)}")
    repeated = [s for i, s in enumerate(suites) if s in suites[:i]]
    if repeated:
        raise ValueError(f"repeated suites: {repeated}")
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
    """Parse a basis; malformed input raises ValueError, and so does a block
    whose diagram is not its tableaux' shape, has another degree or repeats,
    or whose operator grid is not square or of another degree."""
    if not isinstance(obj, dict) or not {"m", "kind", "blocks"} <= obj.keys():
        raise ValueError("basis JSON must have 'm', 'kind' and 'blocks'")
    m, kind = int_from_json(obj["m"]), obj["kind"]
    _check_basis(m, kind)
    if not isinstance(obj["blocks"], list):
        raise ValueError(f"basis blocks must be a list, got {obj['blocks']!r}")
    blocks = []
    for blk in obj["blocks"]:
        try:
            diagram = YoungDiagram(ints_from_json(blk["diagram"]))
            tableaux = tuple(tableau_from_json(t) for t in blk["tableaux"])
            grid = tuple(tuple(element_from_json(op) for op in row) for row in blk["operators"])
        except (KeyError, TypeError):
            raise ValueError(
                "a basis block must have 'diagram', 'tableaux' and an 'operators' grid"
            ) from None
        name = ",".join(map(str, diagram.rows))
        shapes = {t.shape for t in tableaux} - {diagram}
        if shapes:
            rows = ",".join(map(str, min(shapes).rows))
            raise ValueError(f"block ({name}): its tableaux have shape ({rows})")
        if diagram.n != m:  # every tableau has the diagram's shape
            what = f"tableau {tableaux[0]}" if tableaux else "its diagram"
            raise ValueError(f"block ({name}): {what} has {diagram.n} boxes, not {m}")
        if any(block.diagram == diagram for block in blocks):
            raise ValueError(f"block ({name}): an earlier block has its diagram")
        if len(grid) != len(tableaux) or any(len(row) != len(tableaux) for row in grid):
            raise ValueError(f"block ({name}): operator grid is not {len(tableaux)}x{len(tableaux)}")
        if any(op.m != m for row in grid for op in row):
            raise ValueError(f"block ({name}): operator degree differs from m = {m}")
        blocks.append(BasisBlock(diagram, tableaux, grid))
    return BasisMatrix(m, kind, tuple(blocks))
