"""Command-line front end for the basis toolkit.

Subcommands
-----------
tableaux    enumerate standard tableaux, optionally restricted to one shape
projector   build an exact projector for one tableau
transition  build the operator carrying one tableau's image onto another's
basis       assemble the full operator grid, optionally verifying it
represent   evaluate an operator as an exact concrete matrix
verify      run verification suites headlessly (exit code carries the verdict)
dims        per-shape image dimensions as polynomials in the symbolic N

Exit codes: 0 success, 1 a verification check failed, 2 bad usage or
invalid input.  Output goes to stdout or ``--out``; ``--format`` selects
json (default, deterministic: identical invocations give identical bytes),
text, or latex.  A ``--config`` JSON file supplies defaults for any long
option; explicit flags win.

``COMMANDS`` maps each subcommand to its help text, its handler and its
options.  A handler computes its result once and returns ``(exit code,
payload)``: the payload is a JSON object for ``--format json`` and a list
of output lines for text or latex.  Only ``main`` renders the payload and
writes it.

At module level this imports only modules without numpy.  The handlers
that build group-algebra vectors (projector, transition, basis and verify)
import ``algebra``, ``projectors``, ``transitions`` and ``basis`` when they
run, so tableaux, dims and represent never start numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from .coefficients import (
    latex_poly,
    latex_rational,
    latex_surd,
    poly_to_json,
    rational_to_json,
    surd_to_json,
)
from .matrix_rep import matrix_to_json, rank, represent
from .permutations import Terms, _check_degree, terms_from_json
from .tableaux import (
    YoungDiagram,
    YoungTableau,
    dimension_formula,
    enumerate_tableaux,
    partitions,
    tableau_from_json,
    tableau_to_json,
    tableaux_of_shape,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2

FORMATS = ("json", "text", "latex")
# dims builds one polynomial per partition of m; m = 18 takes ≈ 0.7 s cold on 2 vCPUs
_DIMS_MAX_DEGREE = 18
# tableaux lists every standard tableau of degree m; m = 11 (35 696 of them)
# takes ≈ 3.0 s at 186 MB cold on 2 vCPUs, and m = 12 ≈ 15 s at 668 MB
_TABLEAUX_MAX_DEGREE = 11
# basis prints every operator of degree m; m = 6 prints 119 MB of JSON in
# 9 s at 865 MB peak on 2 vCPUs, and the m = 7 JSON passed 4.4 GB unfinished
_BASIS_MAX_DEGREE = 6


class UsageError(Exception):
    """Invalid arguments or inputs; mapped to exit code 2."""


# -- shared input parsing ----------------------------------------------------


def _parse_shape(spec: Any) -> YoungDiagram:
    if isinstance(spec, str):
        try:
            rows = tuple(int(part) for part in spec.split(","))
        except ValueError as exc:
            raise UsageError(f"bad shape {spec!r}: {exc}") from None
    elif isinstance(spec, (list, tuple)):
        rows = tuple(_config_int(f"each part of shape {spec!r}", part) for part in spec)
    else:
        raise UsageError(f"bad shape {spec!r}")
    return YoungDiagram(rows)


def _tableau_from_obj(obj: Any, m: int) -> YoungTableau:
    if isinstance(obj, list):
        obj = {"rows": obj}
    try:
        t = tableau_from_json(obj)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad tableau: {exc}") from None
    if t.n != m:
        raise UsageError(f"tableau has {t.n} boxes, expected {m}")
    return t


def _parse_tableau_spec(spec: Any, m: int) -> YoungTableau:
    """A tableau given either as a 1-based index into the degree-m
    enumeration or as JSON (a rows list, or an object with "rows")."""
    # before enumerating the degree-m tableaux, which outnumber 35 000 at m = 11
    _check_degree(m)
    if isinstance(spec, bool):
        raise UsageError(f"bad tableau spec {spec!r}")
    if isinstance(spec, (list, dict)):
        return _tableau_from_obj(spec, m)
    if isinstance(spec, int):
        index = spec
    else:
        s = str(spec).strip()
        try:
            index = int(s)
        except ValueError:
            try:
                obj = json.loads(s)
            except json.JSONDecodeError as exc:
                raise UsageError(f"tableau spec is neither an index nor JSON: {exc}") from None
            return _tableau_from_obj(obj, m)
    tabs = enumerate_tableaux(m)
    if not 1 <= index <= len(tabs):
        raise UsageError(f"tableau index {index} out of range 1..{len(tabs)} for m={m}")
    return tabs[index - 1]


def _tableau_index(t: YoungTableau) -> int:
    """1-based position in the canonical enumeration for its degree."""
    return enumerate_tableaux(t.n).index(t) + 1


def _required(value: Any, flag: str) -> Any:
    if value is None:
        raise UsageError(f"{flag} is required")
    return value


def _parse_suites(spec: Any) -> tuple[str, ...] | None:
    """Comma-separated suite names, which ``run_suite`` checks; "all" (or
    nothing) means every suite applicable to the basis kind."""
    if spec is None or spec == "all":
        return None
    if isinstance(spec, (list, tuple)):
        return tuple(str(part).strip() for part in spec)
    return tuple(part.strip() for part in str(spec).split(",") if part.strip())


def _run_suites(args: argparse.Namespace, m: int, spec: Any) -> tuple[int, list]:
    """Run the selected suites; the exit code carries the verdict."""
    from .basis import run_suite

    reports = run_suite(m, args.kind, _parse_suites(spec), sample=args.sample, seed=args.seed)
    return (EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION), reports


def _reports_text(reports) -> list[str]:
    lines = []
    for r in reports:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name}: {verdict} ({r.checked} identities checked)")
        for f in r.failures[:5]:
            lines.append(f"  failed {f.identity}: {f.witness}")
        if len(r.failures) > 5:
            lines.append(f"  ... and {len(r.failures) - 5} more failures")
    return lines


# -- subcommand handlers -----------------------------------------------------

Payload = dict[str, Any] | list[str]


def _cmd_tableaux(args: argparse.Namespace) -> tuple[int, Payload]:
    m = _required(args.m, "--m")
    if m > _TABLEAUX_MAX_DEGREE:
        raise UsageError(f"tableaux takes --m up to {_TABLEAUX_MAX_DEGREE}, got {m}")
    wanted = _parse_shape(args.shape) if args.shape is not None else None
    if wanted is not None and wanted.n != m:
        raise UsageError(f"shape {wanted.rows} has {wanted.n} boxes, expected {m}")
    index = {t: i for i, t in enumerate(enumerate_tableaux(m), 1)}
    groups = [(d, tableaux_of_shape(d)) for d in partitions(m) if wanted is None or d == wanted]

    if args.format == "json":
        return EXIT_OK, {
            "m": m,
            "count": sum(len(tabs) for _, tabs in groups),
            "diagrams": [
                {
                    "shape": list(d.rows),
                    "tableau_count": len(tabs),
                    "tableaux": [dict(tableau_to_json(t), index=index[t]) for t in tabs],
                }
                for d, tabs in groups
            ],
        }
    if args.format == "latex":
        lines = []
        for _, tabs in groups:
            for t in tabs:
                cells = "".join("[" + "\\,".join(map(str, row)) + "]" for row in t.rows)
                lines.append(f"t_{{{index[t]}}} = {cells}")
        return EXIT_OK, lines
    lines = [f"standard tableaux for m={m}"]
    for d, tabs in groups:
        lines.append(f"shape {d.rows}: {len(tabs)} tableaux")
        lines.extend(f"  {index[t]}: {[list(r) for r in t.rows]}" for t in tabs)
    return EXIT_OK, lines


# each projector kind, by the name of its builder in ``projectors``
_PROJECTOR_BUILDERS = {
    "young": "young_projector",
    "staircase": "hermitian_staircase",
    "mold": "hermitian_mold",
    "hermitian": "hermitian_mold",
}


def _cmd_projector(args: argparse.Namespace) -> tuple[int, Payload]:
    from . import projectors
    from .algebra import element_to_json, latex_element

    m = _required(args.m, "--m")
    if args.kind not in _PROJECTOR_BUILDERS:
        raise UsageError(
            f"unknown projector kind {args.kind!r}; choose from "
            f"{', '.join(sorted(_PROJECTOR_BUILDERS))}"
        )
    t = _parse_tableau_spec(_required(args.tableau, "--tableau"), m)
    proj = getattr(projectors, _PROJECTOR_BUILDERS[args.kind])(t)
    dim = dimension_formula(t.shape)

    if args.format == "json":
        return EXIT_OK, {
            "m": m,
            "kind": proj.kind,
            "index": _tableau_index(t),
            "tableau": tableau_to_json(t),
            "normalization": surd_to_json(proj.normalization),
            "dimension": poly_to_json(dim),
            "element": element_to_json(proj.element),
        }
    if args.format == "latex":
        return EXIT_OK, [
            f"% projector, kind={proj.kind}, tableau {t}",
            f"P = {latex_element(proj.element)}",
            f"\\dim = {latex_poly(dim)}",
        ]
    return EXIT_OK, [
        f"projector kind={proj.kind} tableau={t} (index {_tableau_index(t)})",
        f"normalization: {proj.normalization}",
        f"dimension: {dim}",
        f"element: {proj.element}",
    ]


def _cmd_transition(args: argparse.Namespace) -> tuple[int, Payload]:
    from .algebra import element_to_json, latex_element
    from .transitions import transition

    m = _required(args.m, "--m")
    source = _parse_tableau_spec(_required(args.src, "--from"), m)
    target = _parse_tableau_spec(_required(args.dst, "--to"), m)
    op = transition(target, source, method=args.method)

    if args.format == "json":
        return EXIT_OK, {
            "m": m,
            "method": op.kind,
            "from": tableau_to_json(op.from_tableau),
            "from_index": _tableau_index(op.from_tableau),
            "to": tableau_to_json(op.to_tableau),
            "to_index": _tableau_index(op.to_tableau),
            "tau_squared": rational_to_json(op.tau_squared),
            "element": element_to_json(op.element),
        }
    if args.format == "latex":
        return EXIT_OK, [
            f"% transition, method={op.kind}, {source} -> {target}",
            f"\\tau^2 = {latex_rational(op.tau_squared)}",
            f"T = {latex_element(op.element)}",
        ]
    return EXIT_OK, [
        f"transition method={op.kind} from={source} to={target}",
        f"tau^2: {op.tau_squared}",
        f"element: {op.element}",
    ]


def _cmd_basis(args: argparse.Namespace) -> tuple[int, Payload]:
    from .algebra import latex_element
    from .basis import assemble, basis_to_json

    m = _required(args.m, "--m")
    if m > _BASIS_MAX_DEGREE:
        raise UsageError(f"basis takes --m up to {_BASIS_MAX_DEGREE}, got {m}")
    b = assemble(m, args.kind)
    code, reports = EXIT_OK, None
    if args.verify is not None:
        code, reports = _run_suites(args, m, args.verify)

    if args.format == "json":
        payload: dict[str, Any] = {"basis": basis_to_json(b)}
        if reports is not None:
            payload["reports"] = [r.to_json() for r in reports]
        return code, payload
    if args.format == "latex":
        lines = [f"% operator basis, m={m}, kind={b.kind}"]
        for block in b.blocks:
            lines.append(f"% block shape {block.diagram.rows}, size {block.size}")
            for i, row in enumerate(block.operators, 1):
                for j, op in enumerate(row, 1):
                    lines.append(f"\\mathfrak{{m}}_{{{i}{j}}} = {latex_element(op)}")
        return code, lines + ["% " + line for line in _reports_text(reports or [])]
    lines = [f"basis m={m} kind={b.kind}: {len(b.flat())} operators"]
    for block in b.blocks:
        lines.append(f"block shape {block.diagram.rows}: size {block.size}")
        for i, row in enumerate(block.operators, 1):
            lines.extend(f"  [{i},{j}] {op}" for j, op in enumerate(row, 1))
    return code, lines + _reports_text(reports or [])


def _read_operator(spec: Any) -> Terms:
    """An operator's term table from inline JSON, an already-parsed config
    value, or @file."""
    if isinstance(spec, str) and spec.startswith("@"):
        try:
            spec = Path(spec[1:]).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read operator file: {exc}") from None
    try:
        obj = json.loads(spec) if isinstance(spec, str) else spec
        if isinstance(obj, dict) and "element" in obj and "terms" not in obj:
            obj = obj["element"]
        return terms_from_json(obj)
    except ValueError as exc:
        raise UsageError(f"bad operator JSON: {exc}") from None


def _cmd_represent(args: argparse.Namespace) -> tuple[int, Payload]:
    n = int(_required(args.n_dim, "--N"))
    if args.op is None:
        raise UsageError("--op is required (inline JSON or @file)")
    op = _read_operator(args.op)
    if args.m is not None and int(args.m) != op.m:
        raise UsageError(f"operator acts on {op.m} factors, but --m {args.m} was given")
    mat = represent(op, n, cap=args.cap)
    mat_rank = rank(mat) if args.rank else None

    if args.format == "json":
        payload = matrix_to_json(mat)
        if mat_rank is not None:
            payload["rank"] = mat_rank
        return EXIT_OK, payload
    entries = sorted(mat.entries.items())
    if args.format == "latex":
        lines = [f"% concrete matrix, N={n}, m={mat.m}, size {mat.size}"]
        lines.extend(f"M_{{{r},{c}}} = {latex_surd(v)}" for (r, c), v in entries)
        if mat_rank is not None:
            lines.append(f"\\operatorname{{rank}} M = {mat_rank}")
        return EXIT_OK, lines
    lines = [f"matrix N={n} m={mat.m} size={mat.size} nonzeros={len(entries)}"]
    lines.extend(f"  ({r},{c}) = {v}" for (r, c), v in entries)
    if mat_rank is not None:
        lines.append(f"rank: {mat_rank}")
    return EXIT_OK, lines


def _cmd_verify(args: argparse.Namespace) -> tuple[int, Payload]:
    m = _required(args.m, "--m")
    code, reports = _run_suites(args, m, args.suite)

    if args.format == "json":
        return code, {
            "m": m,
            "kind": args.kind,
            "passed": code == EXIT_OK,
            "reports": [r.to_json() for r in reports],
        }
    lines = [f"verification m={m} kind={args.kind}", *_reports_text(reports)]
    lines.append("PASS" if code == EXIT_OK else "FAIL")
    if args.format == "latex":
        lines = ["% " + line for line in lines]
    return code, lines


def _cmd_dims(args: argparse.Namespace) -> tuple[int, Payload]:
    m = _required(args.m, "--m")
    if m > _DIMS_MAX_DEGREE:
        raise UsageError(f"dims takes --m up to {_DIMS_MAX_DEGREE}, got {m}")
    rows = [(d, d.tableau_count(), dimension_formula(d)) for d in partitions(m)]

    if args.format == "json":
        return EXIT_OK, {
            "m": m,
            "shapes": [
                {
                    "shape": list(d.rows),
                    "tableau_count": count,
                    "dimension": poly_to_json(dim),
                    "dimension_str": str(dim),
                }
                for d, count, dim in rows
            ],
        }
    if args.format == "latex":
        return EXIT_OK, [
            f"\\dim_{{{','.join(map(str, d.rows))}}} = {latex_poly(dim)}" for d, _, dim in rows
        ]
    lines = [f"image dimensions for m={m}"]
    lines.extend(f"shape {d.rows}: {count} tableaux, dim = {dim}" for d, count, dim in rows)
    return EXIT_OK, lines


# -- parser and entry point --------------------------------------------------


def _dump_json(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


_COMMON = [
    ("--format", {"default": "json", "help": "json, text, or latex"}),
    ("--out", {"default": None, "help": "write output to this file"}),
    (
        "--config",
        {"default": None, "help": "JSON file of default option values (same keys as the long flags)"},
    ),
]
_INT = {"type": int, "default": None}
_M = ("--m", _INT)
_KIND = ("--kind", {"default": "hermitian", "help": "young or hermitian"})
_SAMPLING = [
    ("--sample", dict(_INT, help="orthonormality pair sample size")),
    ("--seed", dict(_INT, default=0, help="sampling seed")),
    ("--jobs", dict(_INT, help="accepted and ignored")),
]
# ``basis._SUITES``, named here so that building the parser imports no numpy
_SUITE_NAMES = ("table", "ortho", "complete", "independence")
_SUITES_HELP = f"all, or comma-separated from {', '.join(_SUITE_NAMES)}"

# name -> (help, handler, [(flag, add_argument keywords)]), after the common options
COMMANDS = {
    "tableaux": ("enumerate standard tableaux", _cmd_tableaux, [
        ("--m", dict(_INT, help="number of boxes")),
        ("--shape", {"default": None, "help": "restrict to one shape, e.g. 3,1"}),
    ]),
    "projector": ("build one projector", _cmd_projector, [
        _M,
        ("--tableau", {"default": None, "help": "1-based tableau index or tableau JSON"}),
        ("--kind", {"default": "hermitian", "help": "young, staircase, mold, or hermitian (= mold)"}),
    ]),
    "transition": ("build one transition operator", _cmd_transition, [
        _M,
        ("--from", {"dest": "src", "default": None, "help": "source tableau (index or JSON)"}),
        ("--to", {"dest": "dst", "default": None, "help": "target tableau (index or JSON)"}),
        ("--method", {"default": "compact", "help": "young, general, or compact"}),
    ]),
    "basis": ("assemble the full operator grid", _cmd_basis, [
        _M, _KIND, ("--verify", {"default": None, "help": f"run suites: {_SUITES_HELP}"}), *_SAMPLING,
    ]),
    "represent": ("concrete matrix of an operator", _cmd_represent, [
        ("--m", dict(_INT, help="optional cross-check of the operator degree")),
        ("--N", dict(_INT, dest="n_dim", help="underlying space dimension")),
        ("--op", {"default": None, "help": "operator JSON, or @file"}),
        ("--rank", {"action": "store_true", "help": "also compute the exact rank"}),
        ("--cap", dict(_INT, default=10_000, help="largest allowed matrix size")),
    ]),
    "verify": ("run verification suites", _cmd_verify, [
        _M, _KIND, ("--suite", {"default": "all", "help": _SUITES_HELP}), *_SAMPLING,
    ]),
    "dims": ("image dimensions by shape", _cmd_dims, [_M]),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="sunbasis",
        description="exact projector and transition-operator toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    subparsers: dict[str, argparse.ArgumentParser] = {}
    for name, (help_text, _, options) in COMMANDS.items():
        sp = subparsers[name] = sub.add_parser(name, help=help_text)
        for flag, keywords in _COMMON + options:
            sp.add_argument(flag, **keywords)
    return parser, subparsers


_CONFIG_KEY_MAP = {"from": "src", "to": "dst", "N": "n_dim"}
# options that argparse reads as a string or a switch, but a config value bypasses
_CONFIG_STRINGS = {"format", "out", "kind", "method"}
_CONFIG_SWITCHES = {"rank"}


def _scan_config_path(argv: list[str]) -> str | None:
    for i, a in enumerate(argv):
        if a == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a path")
            return argv[i + 1]
        if a.startswith("--config="):
            return a.split("=", 1)[1]
    return None


def _load_config(path: str, known_dests: set[str], int_dests: set[str]) -> dict[str, Any]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"bad config JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    out: dict[str, Any] = {}
    for key, value in raw.items():
        dest = _CONFIG_KEY_MAP.get(key, str(key).replace("-", "_"))
        if dest not in known_dests:
            raise UsageError(f"unknown config key {key!r}")
        what = f"config key {key!r}"
        if dest in int_dests:
            value = _config_int(what, value)
        elif dest in _CONFIG_STRINGS and not isinstance(value, str):
            raise UsageError(f"{what} must be a string, got {value!r}")
        elif dest in _CONFIG_SWITCHES and not isinstance(value, bool):
            raise UsageError(f"{what} must be true or false, got {value!r}")
        out[dest] = value
    return out


def _config_int(what: str, value: Any) -> int:
    """An integer from a config value; bools and non-integral numbers are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise UsageError(f"{what} must be an integer, got {value!r}")


def _check_options(args: argparse.Namespace) -> None:
    """Range checks on the parsed options.

    They run after parsing because ``--config`` values bypass argparse.
    """
    if args.format not in FORMATS:
        raise UsageError(f"unknown format {args.format!r}; choose from {', '.join(FORMATS)}")
    for name, bound in (("m", "at least 1"), ("cap", "positive"), ("sample", "positive")):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise UsageError(f"--{name} must be {bound}, got {value}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    actions = [action for sp in subparsers.values() for action in sp._actions]
    known_dests = {action.dest for action in actions if action.dest != "help"}
    int_dests = {action.dest for action in actions if action.type is int}

    try:
        config_path = _scan_config_path(argv)
        if config_path is not None:
            defaults = _load_config(config_path, known_dests, int_dests)
            for sp in subparsers.values():
                sp.set_defaults(**defaults)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        _check_options(args)
        code, payload = COMMANDS[args.command][1](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # the one renderer and writer for all user-visible output
    body = (_dump_json(payload) if isinstance(payload, dict) else "\n".join(payload)) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(body)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(body)
    return code


if __name__ == "__main__":
    sys.exit(main())
