"""Command-line interface: exit codes, formats, determinism, config merge."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunbasis.algebra import AlgebraElement, element_from_json, latex_element
from sunbasis.basis import assemble, basis_from_json
from sunbasis.cli import (
    _BASIS_MAX_DEGREE,
    _DIMS_MAX_DEGREE,
    _SUITE_NAMES,
    _TABLEAUX_MAX_DEGREE,
    FORMATS,
    latex_poly,
    latex_rational,
    latex_surd,
    main,
)
from sunbasis.coefficients import PolyN, Surd, poly_from_json, surd_from_json
from sunbasis.matrix_rep import matrix_to_json, rank, represent
from sunbasis.permutations import Permutation, all_permutations, latex_permutation
from sunbasis.projectors import hermitian_projector, young_projector
from sunbasis.tableaux import dimension_formula, enumerate_tableaux, tableau_from_json
from sunbasis.transitions import transition


def run(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue(), err.getvalue()


def run_json(args: list[str]):
    rc, out, err = run(args)
    assert rc == 0, err
    return json.loads(out)


# -- tableaux ----------------------------------------------------------------


def test_tableaux_json_enumeration():
    payload = run_json(["tableaux", "--m", "3"])
    assert payload["m"] == 3
    assert payload["count"] == 4
    shapes = [tuple(d["shape"]) for d in payload["diagrams"]]
    assert shapes == [(3,), (2, 1), (1, 1, 1)]
    tabs = enumerate_tableaux(3)
    listed = [
        (entry["index"], tableau_from_json(entry))
        for d in payload["diagrams"]
        for entry in d["tableaux"]
    ]
    assert listed == [(i + 1, t) for i, t in enumerate(tabs)]


def test_tableaux_shape_filter_keeps_global_indices():
    payload = run_json(["tableaux", "--m", "3", "--shape", "2,1"])
    assert len(payload["diagrams"]) == 1
    entries = payload["diagrams"][0]["tableaux"]
    assert [e["index"] for e in entries] == [2, 3]


def test_tableaux_enumerates_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return enumerate_tableaux(n)

    monkeypatch.setattr("sunbasis.cli.enumerate_tableaux", counting)
    for fmt in ("json", "text", "latex"):
        calls.clear()
        assert run(["tableaux", "--m", "6", "--format", fmt])[0] == 0
        assert calls == [6]


def test_tableaux_degree_zero_is_usage_error():
    rc, _, err = run(["tableaux", "--m", "0"])
    assert rc == 2
    assert "error" in err


def test_tableaux_shape_with_wrong_box_count():
    rc, _, _ = run(["tableaux", "--m", "3", "--shape", "2,2"])
    assert rc == 2


# -- projector ---------------------------------------------------------------


def test_projector_json_round_trip():
    payload = run_json(["projector", "--m", "3", "--tableau", "2"])
    t = enumerate_tableaux(3)[1]
    proj = hermitian_projector(t)
    assert payload["kind"] == "mold"
    assert payload["index"] == 2
    assert tableau_from_json(payload["tableau"]) == t
    assert element_from_json(payload["element"]) == proj.element
    assert surd_from_json(payload["normalization"]) == proj.normalization
    assert poly_from_json(payload["dimension"]) == dimension_formula(t.shape)


def test_projector_kind_young():
    payload = run_json(["projector", "--m", "3", "--tableau", "3", "--kind", "young"])
    t = enumerate_tableaux(3)[2]
    assert element_from_json(payload["element"]) == young_projector(t).element
    assert payload["kind"] == "young"


def test_projector_accepts_inline_tableau_json():
    payload = run_json(["projector", "--m", "3", "--tableau", "[[1,3],[2]]"])
    assert payload["index"] == 3


_PROJECTOR_ERRORS = [
    (
        ["projector", "--m", "3", "--tableau", "2", "--kind", "bogus"],
        "unknown projector kind 'bogus'; choose from hermitian, mold, staircase, young",
    ),
    (["projector", "--m", "3", "--tableau", "9"], "tableau index 9 out of range 1..4 for m=3"),
    (["projector", "--m", "3", "--tableau", "[[1,2],[3],[4]]"], "tableau has 4 boxes, expected 3"),
    (
        ["projector", "--m", "3", "--tableau", "not json"],
        "tableau spec is neither an index nor JSON: Expecting value: line 1 column 1 (char 0)",
    ),
    (["projector", "--m", "3"], "--tableau is required"),
    (["projector", "--tableau", "1"], "--m is required"),
    (["projector", "--m", "11", "--tableau", "1"], "degree must be between 1 and 7, got 11"),
    (
        ["projector", "--m", "3", "--tableau", "[[1.9,2],[3]]"],
        "bad tableau: expected a list of integers, got [1.9, 2]",
    ),
]


@pytest.mark.parametrize(
    "argv,message", _PROJECTOR_ERRORS, ids=[f"argv{i}" for i in range(len(_PROJECTOR_ERRORS))]
)
def test_projector_usage_errors(argv, message):
    assert run(argv) == (2, "", f"error: {message}\n")


# -- transition --------------------------------------------------------------


def test_transition_json_matches_library():
    payload = run_json(["transition", "--m", "3", "--from", "3", "--to", "2"])
    tabs = enumerate_tableaux(3)
    op = transition(tabs[1], tabs[2], method="compact")
    assert payload["method"] == "compact"
    assert payload["from_index"] == 3
    assert payload["to_index"] == 2
    assert tableau_from_json(payload["from"]) == tabs[2]
    assert tableau_from_json(payload["to"]) == tabs[1]
    assert Fraction(payload["tau_squared"]) == op.tau_squared == Fraction(4, 3)
    assert element_from_json(payload["element"]) == op.element


def test_transition_method_young():
    payload = run_json(
        ["transition", "--m", "3", "--from", "3", "--to", "2", "--method", "young"]
    )
    tabs = enumerate_tableaux(3)
    op = transition(tabs[1], tabs[2], method="young")
    assert element_from_json(payload["element"]) == op.element


_TRANSITION_ERRORS = [
    (
        ["transition", "--m", "3", "--from", "1", "--to", "2"],
        "transition requires tableaux of equal shape, got (2, 1) and (3,)",
    ),
    (
        ["transition", "--m", "3", "--from", "2", "--to", "3", "--method", "bogus"],
        "unknown transition method: 'bogus'",
    ),
    (["transition", "--m", "3", "--from", "2"], "--to is required"),
    (["transition", "--m", "3", "--to", "2"], "--from is required"),
    (["transition", "--m", "3"], "--from is required"),
]


@pytest.mark.parametrize(
    "argv,message", _TRANSITION_ERRORS, ids=[f"argv{i}" for i in range(len(_TRANSITION_ERRORS))]
)
def test_transition_usage_errors(argv, message):
    assert run(argv) == (2, "", f"error: {message}\n")


# -- basis -------------------------------------------------------------------


def test_basis_json_round_trip():
    payload = run_json(["basis", "--m", "3", "--kind", "hermitian"])
    assert basis_from_json(payload["basis"]) == assemble(3, "hermitian")
    assert "reports" not in payload


def test_basis_with_verification_reports():
    payload = run_json(["basis", "--m", "3", "--kind", "hermitian", "--verify", "all"])
    names = [r["name"] for r in payload["reports"]]
    assert names == [
        "multiplication_table",
        "orthonormality",
        "completeness_and_nesting",
        "linear_independence",
    ]
    assert all(r["passed"] for r in payload["reports"])


def test_basis_young_verify_all_skips_orthonormality():
    payload = run_json(["basis", "--m", "3", "--kind", "young", "--verify", "all"])
    names = [r["name"] for r in payload["reports"]]
    assert "orthonormality" not in names
    assert len(names) == 3


def test_basis_young_explicit_ortho_is_usage_error():
    rc, _, _ = run(["basis", "--m", "3", "--kind", "young", "--verify", "ortho"])
    assert rc == 2


def test_basis_unknown_kind():
    rc, _, _ = run(["basis", "--m", "3", "--kind", "bogus"])
    assert rc == 2


# -- represent ---------------------------------------------------------------


def test_represent_inline_identity():
    op = {"m": 2, "terms": [{"perm": [1, 2], "coeff": [[1, "1/1"]]}]}
    payload = run_json(
        ["represent", "--N", "2", "--op", json.dumps(op), "--rank"]
    )
    assert payload["size"] == 4
    assert payload["rank"] == 4
    assert payload["entries"] == [[i, i, [[1, "1/1"]]] for i in range(4)]


def test_represent_accepts_projector_payload(tmp_path):
    rc, out, _ = run(["projector", "--m", "3", "--tableau", "2"])
    assert rc == 0
    path = tmp_path / "proj.json"
    path.write_text(out)
    payload = run_json(
        ["represent", "--m", "3", "--N", "2", "--op", f"@{path}", "--rank"]
    )
    # image dimension of the (2,1) projector at N=2: N(N^2-1)/3 = 2
    assert payload["rank"] == 2
    assert payload["size"] == 8


def test_represent_cap_and_override():
    op = {"m": 5, "terms": [{"perm": [1, 2, 3, 4, 5], "coeff": [[1, "1/1"]]}]}
    rc, _, err = run(["represent", "--N", "9", "--op", json.dumps(op)])
    assert rc == 2
    assert "cap" in err
    payload = run_json(
        ["represent", "--N", "3", "--op", json.dumps(op), "--cap", "243"]
    )
    assert payload["size"] == 243


@pytest.mark.parametrize(
    "argv",
    [
        ["represent", "--op", "{}"],  # missing --N
        ["represent", "--N", "2"],  # missing --op
        ["represent", "--N", "2", "--op", "not json"],
        ["represent", "--N", "2", "--op", "@/no/such/file.json"],
        [
            "represent",
            "--m",
            "3",
            "--N",
            "2",
            "--op",
            '{"m": 2, "terms": [{"perm": [1, 2], "coeff": [[1, "1/1"]]}]}',
        ],  # --m cross-check
        [
            "represent",
            "--N",
            "2",
            "--op",
            '{"m": 3, "terms": [{"perm": [1, 2, 3], "coeff": [[1.5, "1/1"]]}]}',
        ],  # a radicand that is no integer
        # operators of the wrong shape: no perm, terms no list, a term that is a list
        ["represent", "--N", "2", "--op", '{"m": 2, "terms": [{"coeff": [[1, "1/2"]]}]}'],
        ["represent", "--N", "2", "--op", '{"m": 2, "terms": 5}'],
        ["represent", "--N", "2", "--op", '{"m": 2, "terms": [[[1, 2], [[1, "1/2"]]]]}'],
        ["represent", "--N", "2", "--op", '{"m": 2, "terms": [{"perm": [1, 2], "coeff": 5}]}'],
        ["represent", "--N", "2", "--op", '[2, []]'],
    ],
)
def test_represent_usage_errors(argv):
    rc, _, _ = run(argv)
    assert rc == 2


def test_represent_refuses_a_radicand_too_large_to_factor():
    # (2^31 − 1)(2^61 − 1) has no prime factor below the trial bound and is no square
    op = {"m": 2, "terms": [{"perm": [1, 2], "coeff": [[(2**31 - 1) * (2**61 - 1), "1/1"]]}]}
    rc, out, err = run(["represent", "--N", "2", "--op", json.dumps(op)])
    assert (rc, out) == (2, "")
    assert "squarefree part of 4951760154835678088235319297" in err


@st.composite
def loose_operators(draw):
    """An operator and a dimension n, n^m ≤ 81, in wire form but not canonical:
    perms may repeat, a coefficient may be 0, rationals are not reduced and
    radicands are not squarefree; sometimes wrapped as {"element": ...}."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, {1: 9, 2: 9, 3: 4, 4: 3}[m]))
    perms = [list(p.images) for p in all_permutations(m)]
    texts = st.tuples(st.integers(-6, 6), st.integers(1, 6)).map(
        lambda pq: f"{pq[0]}/{pq[1]}" if pq[1] > 1 or pq[0] % 2 else str(pq[0])
    )
    pairs = st.lists(st.tuples(st.sampled_from([1, 2, 3, 4, 8, 12]), texts).map(list), max_size=3)
    term = st.fixed_dictionaries({"perm": st.sampled_from(perms), "coeff": pairs})
    terms = draw(st.lists(term, max_size=6))
    return {"m": m, "terms": terms}, n, draw(st.booleans())


def _rendered(mat, n: int, fmt: str) -> str:
    """The matrix and its rank as ``represent --rank`` writes them."""
    entries, r = sorted(mat.entries.items()), rank(mat)
    if fmt == "json":
        return json.dumps(dict(matrix_to_json(mat), rank=r), indent=2, sort_keys=True) + "\n"
    if fmt == "latex":
        lines = [f"% concrete matrix, N={n}, m={mat.m}, size {mat.size}"]
        lines += [f"M_{{{i},{j}}} = {latex_surd(v)}" for (i, j), v in entries]
        lines.append(f"\\operatorname{{rank}} M = {r}")
    else:
        lines = [f"matrix N={n} m={mat.m} size={mat.size} nonzeros={len(entries)}"]
        lines += [f"  ({i},{j}) = {v}" for (i, j), v in entries]
        lines.append(f"rank: {r}")
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(loose_operators())
def test_represent_reads_a_loose_operator_as_the_library_does(case):
    # the CLI builds the matrix from the operator's terms as written; the
    # library from the canonical vectors that element_from_json makes of them
    obj, n, wrapped = case
    mat = represent(element_from_json(obj), n)
    op = json.dumps({"element": obj} if wrapped else obj)
    for fmt in FORMATS:
        rc, out, err = run(["represent", "--N", str(n), "--op", op, "--rank", "--format", fmt])
        assert (rc, err) == (0, "")
        assert out == _rendered(mat, n, fmt)


# -- verify ------------------------------------------------------------------


def test_verify_all_passes_m3():
    payload = run_json(["verify", "--m", "3", "--suite", "all"])
    assert payload["passed"] is True
    assert len(payload["reports"]) == 4


def test_verify_suite_subset_in_order():
    payload = run_json(["verify", "--m", "3", "--suite", "complete,table"])
    assert [r["name"] for r in payload["reports"]] == [
        "completeness_and_nesting",
        "multiplication_table",
    ]


def test_verify_unknown_suite():
    rc, _, err = run(["verify", "--m", "3", "--suite", "bogus"])
    assert rc == 2
    assert "bogus" in err


@pytest.mark.parametrize("spec", ["table,table", "complete,table,complete", ","])
def test_verify_refuses_a_repeated_or_empty_suite_selection(spec):
    for command in (["verify", "--m", "3", "--suite", spec], ["basis", "--m", "3", "--verify", spec]):
        rc, out, err = run(command)
        assert (rc, out) == (2, "")
        assert ("repeated suites" if spec != "," else "empty suite selection") in err


def test_verify_refuses_a_degree_above_the_cap_before_enumerating_partitions(monkeypatch):
    from sunbasis import basis

    def refuse(m):
        raise AssertionError(f"partitions({m}) enumerated")

    monkeypatch.setattr(basis, "partitions", refuse)
    assert run(["verify", "--m", "60"]) == (2, "", "error: degree must be between 1 and 7, got 60\n")


def test_verify_failure_exits_one(monkeypatch):
    from sunbasis.basis import CheckFailure, VerificationReport

    def fake_run_suite(m, kind, suites=None, *, sample=None, seed=None):
        return [
            VerificationReport(
                name="multiplication_table",
                checked=1,
                failures=(CheckFailure(identity="x*y", witness="planted"),),
            )
        ]

    monkeypatch.setattr("sunbasis.basis.run_suite", fake_run_suite)
    rc, out, _ = run(["verify", "--m", "3", "--suite", "table"])
    assert rc == 1
    assert json.loads(out)["passed"] is False
    rc, _, _ = run(["basis", "--m", "3", "--verify", "table"])
    assert rc == 1
    rc, _, _ = run(["verify", "--m", "3", "--suite", "table", "--format", "text"])
    assert rc == 1


# -- output plumbing ---------------------------------------------------------


def test_json_output_is_deterministic():
    args = ["basis", "--m", "3", "--kind", "hermitian", "--verify", "all"]
    assert run(args) == run(args)


def test_jobs_flag_is_accepted_and_ignored(tmp_path):
    plain = run(["verify", "--m", "4"])
    assert plain[0] == 0
    assert run(["verify", "--m", "4", "--jobs", "2"]) == plain
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"jobs": 0}))
    assert run(["verify", "--m", "4", "--config", str(config)]) == plain
    assert run(["basis", "--m", "3", "--jobs", "2"]) == run(["basis", "--m", "3"])


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path):
    path = tmp_path / "dims.json"
    rc, out, _ = run(["dims", "--m", "4", "--out", str(path)])
    assert rc == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["m"] == 4
    assert len(payload["shapes"]) == 5


def test_dims_polynomials_match_formula():
    payload = run_json(["dims", "--m", "4"])
    got = {tuple(s["shape"]): poly_from_json(s["dimension"]) for s in payload["shapes"]}
    for shape, poly in got.items():
        from sunbasis.tableaux import YoungDiagram

        assert poly == dimension_formula(YoungDiagram(shape))
    assert sum(s["tableau_count"] for s in payload["shapes"]) == 10


def test_dims_above_the_degree_cap_is_usage_error():
    rc, out, err = run(["dims", "--m", str(_DIMS_MAX_DEGREE + 1)])
    assert (rc, out) == (2, "")
    assert err == f"error: dims takes --m up to {_DIMS_MAX_DEGREE}, got {_DIMS_MAX_DEGREE + 1}\n"
    # a degree the process could not finish is refused just as fast
    assert run(["dims", "--m", "1000"])[0] == 2


def test_tableaux_above_the_degree_cap_is_usage_error():
    over = _TABLEAUX_MAX_DEGREE + 1
    rc, out, err = run(["tableaux", "--m", str(over)])
    assert (rc, out) == (2, "")
    assert err == f"error: tableaux takes --m up to {_TABLEAUX_MAX_DEGREE}, got {over}\n"
    # with a shape too, and at a degree that would exhaust memory
    assert run(["tableaux", "--m", str(over), "--shape", f"[{over}]"])[0] == 2
    assert run(["tableaux", "--m", "40"])[0] == 2


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("m", [7, 40])
def test_basis_above_the_degree_cap_is_usage_error(fmt, m):
    assert _BASIS_MAX_DEGREE == 6
    rc, out, err = run(["basis", "--m", str(m), "--format", fmt])
    assert (rc, out) == (2, "")
    assert err == f"error: basis takes --m up to 6, got {m}\n"


def test_unknown_format_is_usage_error():
    rc, _, _ = run(["dims", "--m", "3", "--format", "xml"])
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["represent", "--N", "2", "--op", "{}", "--cap", "0"],
        ["verify", "--m", "3", "--sample", "-5"],
        ["basis", "--m", "3", "--verify", "ortho", "--sample", "0"],
    ],
)
def test_nonpositive_knobs_are_usage_errors(argv):
    rc, _, _ = run(argv)
    assert rc == 2


def test_no_subcommand_is_usage_error():
    rc, _, _ = run([])
    assert rc == 2


# -- config file -------------------------------------------------------------


def test_config_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3, "format": "text"}))
    rc, out, _ = run(["dims", "--config", str(cfg)])
    assert rc == 0
    assert out.startswith("image dimensions for m=3")
    rc, out, _ = run(["dims", "--config", str(cfg), "--m", "4"])
    assert out.startswith("image dimensions for m=4")


def test_config_maps_from_to_and_N(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3, "from": 3, "to": 2}))
    payload = run_json(["transition", "--config", str(cfg)])
    assert payload["from_index"] == 3
    assert payload["to_index"] == 2
    cfg2 = tmp_path / "cfg2.json"
    op = {"m": 2, "terms": [{"perm": [1, 2], "coeff": [[1, "1/1"]]}]}
    cfg2.write_text(json.dumps({"N": 2, "op": op, "rank": True}))
    payload = run_json(["represent", "--config", str(cfg2)])
    assert payload["rank"] == 4


@pytest.mark.parametrize(
    "content",
    ["[1, 2]", '{"nonsense": 1}', "not json", b"\xff\xfe{}"],
)
def test_config_rejects_bad_content(tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content if isinstance(content, bytes) else content.encode())
    rc, out, err = run(["dims", "--m", "3", "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


_IDENTITY_M2 = {"m": 2, "terms": [{"perm": [1, 2], "coeff": [[1, "1/1"]]}]}


@pytest.mark.parametrize(
    "args,config,key,want",
    [
        (["tableaux", "--m", "3"], {"out": 5}, "out", "a string"),
        (["verify", "--m", "3"], {"kind": ["young"]}, "kind", "a string"),
        (["projector", "--m", "3", "--tableau", "1"], {"kind": ["young"]}, "kind", "a string"),
        (["dims", "--m", "3"], {"format": None}, "format", "a string"),
        (["transition", "--m", "3", "--from", "2", "--to", "3"], {"method": 1}, "method", "a string"),
        (["represent"], {"N": 2, "op": _IDENTITY_M2, "rank": "no"}, "rank", "true or false"),
        (["represent"], {"N": 2, "op": _IDENTITY_M2, "rank": 1}, "rank", "true or false"),
    ],
)
def test_config_rejects_values_of_the_wrong_type(tmp_path, args, config, key, want):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc, out, err = run([*args, "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert err == f"error: config key {key!r} must be {want}, got {config[key]!r}\n"


@pytest.mark.parametrize(
    "key,value",
    [
        ("N", 2.5),
        ("N", True),
        ("N", [3]),
        ("N", "2.5"),
        ("m", 3.7),
        ("cap", 1.5),
        ("sample", False),
        ("seed", 0.5),
    ],
)
def test_config_rejects_non_integer_values(tmp_path, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 3, "op": _IDENTITY_M2, "rank": True, key: value}))
    rc, out, err = run(["represent", "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert f"config key {key!r}" in err


@pytest.mark.parametrize("value", [3, 3.0, "3"])
def test_config_accepts_integral_values(tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": value, "op": _IDENTITY_M2, "rank": True}))
    payload = run_json(["represent", "--config", str(cfg)])
    assert (payload["size"], payload["rank"]) == (9, 9)


@pytest.mark.parametrize(
    "m,shape,bad",
    [(2, [[1]], "[1]"), (3, [2.5, 1], "2.5"), (3, [True, True, True], "True")],
)
def test_config_rejects_non_integer_shape_parts(tmp_path, m, shape, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": m, "shape": shape}))
    rc, out, err = run(["tableaux", "--config", str(cfg)])
    assert rc == 2
    assert out == ""
    assert err == f"error: each part of shape {shape!r} must be an integer, got {bad}\n"


def test_config_missing_file():
    rc, _, _ = run(["dims", "--m", "3", "--config", "/no/such/cfg.json"])
    assert rc == 2


# -- latex emission ----------------------------------------------------------


def test_latex_scalar_helpers():
    assert latex_rational(Fraction(-4, 3)) == "-\\tfrac{4}{3}"
    assert latex_rational(Fraction(5)) == "5"
    assert latex_surd(Surd({1: Fraction(1), 2: Fraction(1, 2)})) == (
        "1 + \\tfrac{1}{2}\\sqrt{2}"
    )
    assert latex_permutation(Permutation((1, 2, 3))) == "\\mathrm{id}"
    assert latex_permutation(Permutation((2, 3, 1))) == "(1\\,2\\,3)"
    assert latex_poly(PolyN({3: Fraction(1, 3), 1: Fraction(-1, 3)})) == (
        "\\tfrac{1}{3}N^{3} - \\tfrac{1}{3}N"
    )


def test_latex_of_zero_unit_and_compound_coefficients():
    assert latex_surd(Surd()) == "0"
    assert latex_element(AlgebraElement.zero(3)) == "0"
    assert latex_poly(PolyN()) == "0"
    # a unit coefficient is left out, a compound one is bracketed
    assert latex_surd(Surd({2: 1, 3: -1, 5: Fraction(-2, 3)})) == (
        "\\sqrt{2} - \\sqrt{3} - \\tfrac{2}{3}\\sqrt{5}"
    )
    swap = Permutation((2, 1, 3))
    a = (
        AlgebraElement.identity(3)
        - AlgebraElement.from_permutation(swap)
        + AlgebraElement.from_permutation(Permutation((2, 3, 1)), 1 + Surd.sqrt(2))
        + AlgebraElement.from_permutation(Permutation((3, 1, 2)), -Surd.sqrt(3))
        + AlgebraElement.from_permutation(Permutation((1, 3, 2)), Fraction(1, 2))
    )
    assert latex_element(a) == (
        "\\mathrm{id} + \\tfrac{1}{2}\\,(2\\,3) - (1\\,2)"
        " + \\bigl(1 + \\sqrt{2}\\bigr)\\,(1\\,2\\,3) - \\sqrt{3}\\,(1\\,3\\,2)"
    )
    assert latex_element(-AlgebraElement.from_permutation(swap)) == "-(1\\,2)"
    assert latex_poly(
        PolyN({4: 1, 3: -1, 2: 1 + Surd.sqrt(2), 1: Surd.sqrt(3) - 1, 0: Fraction(-1, 2)})
    ) == (
        "N^{4} - N^{3} + \\bigl(1 + \\sqrt{2}\\bigr)N^{2}"
        " + \\bigl(-1 + \\sqrt{3}\\bigr)N - \\tfrac{1}{2}"
    )
    assert latex_poly(PolyN({1: 1, 0: 1})) == "N + 1"
    assert latex_poly(PolyN({1: -1, 0: -1})) == "-N - 1"
    assert latex_poly(PolyN({0: 1 - Surd.sqrt(2)})) == "\\bigl(1 - \\sqrt{2}\\bigr)"
    assert latex_poly(PolyN({2: Surd.sqrt(2)})) == "\\sqrt{2}N^{2}"


def test_latex_transition_output():
    rc, out, _ = run(
        ["transition", "--m", "3", "--from", "3", "--to", "2", "--format", "latex"]
    )
    assert rc == 0
    assert "\\tau^2 = \\tfrac{4}{3}" in out
    assert "\\sqrt{3}" in out
    assert "(2\\,3)" in out


def test_latex_projector_output():
    rc, out, _ = run(
        ["projector", "--m", "3", "--tableau", "1", "--format", "latex"]
    )
    assert rc == 0
    assert "\\mathrm{id}" in out
    assert "\\dim" in out


# -- installed entry point ---------------------------------------------------


def run_module(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "sunbasis.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_subprocess_exit_codes():
    assert run_module(["dims", "--m", "4"]).returncode == 0
    assert run_module(["tableaux", "--m", "0"]).returncode == 2
    assert run_module(["verify", "--m", "2", "--suite", "all"]).returncode == 0


# Runs the CLI with the given arguments and reports the child's peak RSS in
# kB (Linux) and its exit code on stderr.  A forked child starts with its
# parent's resident pages, so a child forked from the test process would
# report at least the test process's size; this launcher is small.
_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "sunbasis.cli", *sys.argv[1:]])
_, status, usage = os.wait4(child.pid, 0)
print(usage.ru_maxrss, os.waitstatus_to_exitcode(status), file=sys.stderr)
"""


def test_verify_m7_passes_all_four_suites():
    # about ten seconds and 290 MB in a grandchild process
    result = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, "verify", "--m", "7"],
        capture_output=True,
        text=True,
        timeout=1800,
    )
    peak_kb, code = map(int, result.stderr.split()[-2:])
    assert code == 0, result.stderr
    if sys.platform.startswith("linux"):
        assert peak_kb < 300 * 1024
    payload = json.loads(result.stdout)
    assert payload["passed"] is True
    assert [(r["name"], r["passed"]) for r in payload["reports"]] == [
        ("multiplication_table", True),
        ("orthonormality", True),
        ("completeness_and_nesting", True),
        ("linear_independence", True),
    ]


_THREAD_COUNTS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _threads_after(statement: str, **preset: str) -> str:
    """The thread count of a fresh process after ``statement``, and the
    OpenBLAS thread count its environment then holds."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_COUNTS}
    probe = (
        f"import os; {statement}; "
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env={**env, **preset}, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


# every way the package first imports numpy: each module that imports it, and a lazy name
_NUMPY_STARTS = [
    "import sunbasis._fast",
    "import sunbasis.algebra",
    "import sunbasis.basis",
    "import sunbasis.projectors",
    "import sunbasis.transitions",
    "import sunbasis; sunbasis.AlgebraElement",
]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc")
def test_import_starts_numpy_without_a_blas_thread_pool():
    # no kernel calls a float BLAS routine, so the package starts numpy with
    # one thread and leaves the environment of child processes as it was
    assert _threads_after("import sunbasis") == "1 None"
    for statement in _NUMPY_STARTS:
        assert _threads_after(statement) == "1 None", statement
    # a thread count the caller chose is kept, as with numpy alone
    first_use = _NUMPY_STARTS[-1]
    for name in _THREAD_COUNTS:
        preset = {name: "2"}
        assert _threads_after(first_use, **preset) == _threads_after("import numpy", **preset)
    assert _threads_after(first_use, OPENBLAS_NUM_THREADS="2").endswith(" 2")


def _cli_in_fresh_process(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter; stderr ends with the exit code and
    whether numpy was imported."""
    probe = (
        "import sys; from sunbasis.cli import main; code = main(sys.argv[1:]); "
        "print(code, 'numpy' in sys.modules, file=sys.stderr)"
    )
    return subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, timeout=120
    )


def test_the_suite_help_names_every_suite():
    from sunbasis import basis

    assert _SUITE_NAMES == basis._SUITES


def test_every_package_name_is_its_defining_module_binding():
    # ``sunbasis.<name>`` is found lazily, numpy-free modules first; each
    # name must still be the object its own module binds
    import importlib

    import sunbasis

    for name in sunbasis.__all__:
        obj = getattr(sunbasis, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        sunbasis.nothing


def test_only_the_vector_commands_import_numpy():
    # tableaux, dims and represent read and write plain integers and surds
    result = subprocess.run(
        [sys.executable, "-c", "import sys, sunbasis; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.stdout == "False\n", result.stderr
    op = {
        "m": 3,
        "terms": [
            {"perm": [1, 2, 3], "coeff": [[1, "1/1"]]},
            {"perm": [2, 1, 3], "coeff": [[2, "-1/2"]]},
        ],
    }
    for argv in (
        ["represent", "--N", "2", "--op", json.dumps(op), "--rank"],
        ["dims", "--m", "3"],
        ["tableaux", "--m", "3"],
    ):
        result = _cli_in_fresh_process(*argv)
        assert result.stderr.splitlines()[-1] == "0 False", (argv, result.stderr)
    # verification builds the grid's vectors, so it starts numpy and still passes
    result = _cli_in_fresh_process("verify", "--m", "3")
    assert result.stderr.splitlines()[-1] == "0 True", result.stderr
    assert json.loads(result.stdout)["passed"] is True


def test_subprocess_byte_identical_runs():
    a = run_module(["basis", "--m", "3", "--kind", "hermitian"])
    b = run_module(["basis", "--m", "3", "--kind", "hermitian"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_help_exits_zero():
    rc, _, _ = run(["--help"])
    assert rc == 0
