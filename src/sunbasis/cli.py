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
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .algebra import AlgebraElement, element_from_json, element_to_json
from .basis import assemble, basis_to_json, run_suite
from .coefficients import (
    PolyN,
    Surd,
    poly_to_json,
    rational_to_json,
    surd_to_json,
)
from .matrix_rep import matrix_to_json, rank, represent
from .permutations import Permutation
from .projectors import (
    dimension_formula,
    hermitian_mold,
    hermitian_staircase,
    young_projector,
)
from .tableaux import (
    YoungDiagram,
    YoungTableau,
    enumerate_tableaux,
    partitions,
    tableau_from_json,
    tableau_to_json,
)
from .transitions import transition

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2

FORMATS = ("json", "text", "latex")
SUITE_NAMES = ("table", "ortho", "complete", "independence")


class UsageError(Exception):
    """Invalid arguments or inputs; mapped to exit code 2."""


# -- LaTeX emission ----------------------------------------------------------
#
# Operators print as signed sums of cycle-notation permutations; no diagram
# drawing.  Coefficients render as (sums of) rational multiples of square
# roots, polynomials as descending powers of N.


def latex_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\tfrac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def latex_surd(x: Surd) -> str:
    terms = x.terms()
    if not terms:
        return "0"
    parts: list[str] = []
    for d, c in terms:
        if d == 1:
            parts.append(latex_rational(c))
        elif c == 1:
            parts.append(f"\\sqrt{{{d}}}")
        elif c == -1:
            parts.append(f"-\\sqrt{{{d}}}")
        else:
            parts.append(f"{latex_rational(c)}\\sqrt{{{d}}}")
    return _join_signed(parts)


def latex_permutation(p: Permutation) -> str:
    cycles = p.cycles()
    if not cycles:
        return "\\mathrm{id}"
    return "".join("(" + "\\,".join(map(str, c)) + ")" for c in cycles)


def latex_element(a: AlgebraElement) -> str:
    if a.is_zero():
        return "0"
    parts: list[str] = []
    for p in a.support():
        c = a.coefficient(p)
        cs = latex_surd(c)
        if len(c.terms()) > 1:
            cs = f"\\bigl({cs}\\bigr)"
        body = latex_permutation(p)
        if cs == "1":
            parts.append(body)
        elif cs == "-1":
            parts.append(f"-{body}")
        else:
            parts.append(f"{cs}\\,{body}")
    return _join_signed(parts)


def latex_poly(poly: PolyN) -> str:
    coeffs = poly.coeffs()
    if not coeffs:
        return "0"
    parts: list[str] = []
    for k, c in reversed(coeffs):
        cs = latex_surd(c)
        if len(c.terms()) > 1:
            cs = f"\\bigl({cs}\\bigr)"
        if k == 0:
            parts.append(cs)
            continue
        power = "N" if k == 1 else f"N^{{{k}}}"
        if cs == "1":
            parts.append(power)
        elif cs == "-1":
            parts.append(f"-{power}")
        else:
            parts.append(f"{cs}{power}")
    return _join_signed(parts)


def _join_signed(parts: list[str]) -> str:
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


# -- shared input parsing ----------------------------------------------------


def _parse_shape(spec: Any) -> YoungDiagram:
    if isinstance(spec, YoungDiagram):
        return spec
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
    if isinstance(spec, bool) or spec is None:
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


def _require_m(args: argparse.Namespace) -> int:
    if args.m is None:
        raise UsageError("--m is required")
    return args.m


def _parse_suites(spec: Any) -> tuple[str, ...] | None:
    """Comma-separated suite names; "all" (or nothing) means every
    suite applicable to the basis kind."""
    if spec is None or spec == "all":
        return None
    if isinstance(spec, (list, tuple)):
        names = tuple(str(part).strip() for part in spec)
    else:
        names = tuple(part.strip() for part in str(spec).split(",") if part.strip())
    if not names:
        raise UsageError("empty suite selection")
    for name in names:
        if name not in SUITE_NAMES:
            raise UsageError(
                f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or 'all'"
            )
    return names


def _run_suites(args: argparse.Namespace, m: int, spec: Any) -> tuple[int, list]:
    """Run the selected suites; the exit code carries the verdict."""
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


def _cmd_tableaux(args: argparse.Namespace) -> tuple[int, str]:
    m = _require_m(args)
    diagrams = partitions(m)
    wanted = _parse_shape(args.shape) if args.shape is not None else None
    if wanted is not None and wanted.n != m:
        raise UsageError(f"shape {wanted.rows} has {wanted.n} boxes, expected {m}")

    all_tabs = enumerate_tableaux(m)
    groups = []
    for d in diagrams:
        if wanted is not None and d != wanted:
            continue
        tabs = [t for t in all_tabs if t.shape == d]
        groups.append((d, tabs))

    if args.format == "json":
        payload = {
            "m": m,
            "count": sum(len(tabs) for _, tabs in groups),
            "diagrams": [
                {
                    "shape": list(d.rows),
                    "tableau_count": len(tabs),
                    "tableaux": [
                        dict(tableau_to_json(t), index=_tableau_index(t)) for t in tabs
                    ],
                }
                for d, tabs in groups
            ],
        }
        return EXIT_OK, _dump_json(payload)
    if args.format == "latex":
        lines = []
        for d, tabs in groups:
            for t in tabs:
                cells = "".join(
                    "[" + "\\,".join(map(str, row)) + "]" for row in t.rows
                )
                lines.append(f"t_{{{_tableau_index(t)}}} = {cells}")
        return EXIT_OK, "\n".join(lines)
    lines = [f"standard tableaux for m={m}"]
    for d, tabs in groups:
        lines.append(f"shape {d.rows}: {len(tabs)} tableaux")
        for t in tabs:
            lines.append(f"  {_tableau_index(t)}: {[list(r) for r in t.rows]}")
    return EXIT_OK, "\n".join(lines)


_PROJECTOR_BUILDERS = {
    "young": young_projector,
    "staircase": hermitian_staircase,
    "mold": hermitian_mold,
    "hermitian": hermitian_mold,
}


def _cmd_projector(args: argparse.Namespace) -> tuple[int, str]:
    m = _require_m(args)
    if args.kind not in _PROJECTOR_BUILDERS:
        raise UsageError(
            f"unknown projector kind {args.kind!r}; choose from "
            f"{', '.join(sorted(_PROJECTOR_BUILDERS))}"
        )
    t = _parse_tableau_spec(args.tableau, m)
    proj = _PROJECTOR_BUILDERS[args.kind](t)
    dim = dimension_formula(t.shape)

    if args.format == "json":
        payload = {
            "m": m,
            "kind": proj.kind,
            "index": _tableau_index(t),
            "tableau": tableau_to_json(t),
            "normalization": surd_to_json(proj.normalization),
            "dimension": poly_to_json(dim),
            "element": element_to_json(proj.element),
        }
        return EXIT_OK, _dump_json(payload)
    if args.format == "latex":
        lines = [
            f"% projector, kind={proj.kind}, tableau {t}",
            f"P = {latex_element(proj.element)}",
            f"\\dim = {latex_poly(dim)}",
        ]
        return EXIT_OK, "\n".join(lines)
    lines = [
        f"projector kind={proj.kind} tableau={t} (index {_tableau_index(t)})",
        f"normalization: {proj.normalization}",
        f"dimension: {dim}",
        f"element: {proj.element}",
    ]
    return EXIT_OK, "\n".join(lines)


def _cmd_transition(args: argparse.Namespace) -> tuple[int, str]:
    m = _require_m(args)
    source = _parse_tableau_spec(args.src, m)
    target = _parse_tableau_spec(args.dst, m)
    op = transition(target, source, method=args.method)

    if args.format == "json":
        payload = {
            "m": m,
            "method": op.kind,
            "from": tableau_to_json(op.from_tableau),
            "from_index": _tableau_index(op.from_tableau),
            "to": tableau_to_json(op.to_tableau),
            "to_index": _tableau_index(op.to_tableau),
            "tau_squared": rational_to_json(op.tau_squared),
            "element": element_to_json(op.element),
        }
        return EXIT_OK, _dump_json(payload)
    if args.format == "latex":
        lines = [
            f"% transition, method={op.kind}, {source} -> {target}",
            f"\\tau^2 = {latex_rational(op.tau_squared)}",
            f"T = {latex_element(op.element)}",
        ]
        return EXIT_OK, "\n".join(lines)
    lines = [
        f"transition method={op.kind} from={source} to={target}",
        f"tau^2: {op.tau_squared}",
        f"element: {op.element}",
    ]
    return EXIT_OK, "\n".join(lines)


def _cmd_basis(args: argparse.Namespace) -> tuple[int, str]:
    m = _require_m(args)
    b = assemble(m, args.kind)
    code, reports = EXIT_OK, None
    if args.verify is not None:
        code, reports = _run_suites(args, m, args.verify)

    if args.format == "json":
        payload: dict[str, Any] = {"basis": basis_to_json(b)}
        if reports is not None:
            payload["reports"] = [r.to_json() for r in reports]
        return code, _dump_json(payload)
    if args.format == "latex":
        lines = [f"% operator basis, m={m}, kind={b.kind}"]
        for block in b.blocks:
            lines.append(f"% block shape {block.diagram.rows}, size {block.size}")
            for i, row in enumerate(block.operators):
                for j, op in enumerate(row):
                    lines.append(
                        f"\\mathfrak{{m}}_{{{i + 1}{j + 1}}} = {latex_element(op)}"
                    )
        if reports is not None:
            lines.extend("% " + line for line in _reports_text(reports))
        return code, "\n".join(lines)
    lines = [f"basis m={m} kind={b.kind}: {len(b.flat())} operators"]
    for block in b.blocks:
        lines.append(f"block shape {block.diagram.rows}: size {block.size}")
        for i, row in enumerate(block.operators):
            for j, op in enumerate(row):
                lines.append(f"  [{i + 1},{j + 1}] {op}")
    if reports is not None:
        lines.extend(_reports_text(reports))
    return code, "\n".join(lines)


def _cmd_represent(args: argparse.Namespace) -> tuple[int, str]:
    if args.n_dim is None:
        raise UsageError("--N is required")
    n = int(args.n_dim)
    if args.op is None:
        raise UsageError("--op is required (inline JSON or @file)")
    text = args.op
    if isinstance(text, str) and text.startswith("@"):
        try:
            text = Path(text[1:]).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read operator file: {exc}") from None
    if isinstance(text, str):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad operator JSON: {exc}") from None
    else:
        obj = text
    if isinstance(obj, dict) and "element" in obj and "terms" not in obj:
        obj = obj["element"]
    try:
        a = element_from_json(obj)
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError(f"bad operator JSON: {exc}") from None
    if args.m is not None and int(args.m) != a.m:
        raise UsageError(f"operator acts on {a.m} factors, but --m {args.m} was given")
    mat = represent(a, n, cap=args.cap)
    mat_rank = rank(mat) if args.rank else None

    if args.format == "json":
        payload = matrix_to_json(mat)
        if mat_rank is not None:
            payload["rank"] = mat_rank
        return EXIT_OK, _dump_json(payload)
    if args.format == "latex":
        lines = [f"% concrete matrix, N={n}, m={mat.m}, size {mat.size}"]
        for (r, c), v in sorted(mat.entries.items()):
            lines.append(f"M_{{{r},{c}}} = {latex_surd(v)}")
        if mat_rank is not None:
            lines.append(f"\\operatorname{{rank}} M = {mat_rank}")
        return EXIT_OK, "\n".join(lines)
    lines = [
        f"matrix N={n} m={mat.m} size={mat.size} nonzeros={len(mat.entries)}"
    ]
    for (r, c), v in sorted(mat.entries.items()):
        lines.append(f"  ({r},{c}) = {v}")
    if mat_rank is not None:
        lines.append(f"rank: {mat_rank}")
    return EXIT_OK, "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    m = _require_m(args)
    code, reports = _run_suites(args, m, args.suite)

    if args.format == "json":
        payload = {
            "m": m,
            "kind": args.kind,
            "passed": code == EXIT_OK,
            "reports": [r.to_json() for r in reports],
        }
        return code, _dump_json(payload)
    lines = [f"verification m={m} kind={args.kind}"]
    lines.extend(_reports_text(reports))
    lines.append("PASS" if code == EXIT_OK else "FAIL")
    body = "\n".join(lines)
    if args.format == "latex":
        body = "\n".join("% " + line for line in lines)
    return code, body


def _cmd_dims(args: argparse.Namespace) -> tuple[int, str]:
    m = _require_m(args)
    diagrams = partitions(m)
    rows = [(d, d.tableau_count(), dimension_formula(d)) for d in diagrams]

    if args.format == "json":
        payload = {
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
        return EXIT_OK, _dump_json(payload)
    if args.format == "latex":
        lines = [
            f"\\dim_{{{','.join(map(str, d.rows))}}} = {latex_poly(dim)}"
            for d, _, dim in rows
        ]
        return EXIT_OK, "\n".join(lines)
    lines = [f"image dimensions for m={m}"]
    for d, count, dim in rows:
        lines.append(f"shape {d.rows}: {count} tableaux, dim = {dim}")
    return EXIT_OK, "\n".join(lines)


# -- parser and entry point --------------------------------------------------


def _dump_json(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", default="json", help="json, text, or latex")
    common.add_argument("--out", default=None, help="write output to this file")
    common.add_argument(
        "--config",
        default=None,
        help="JSON file of default option values (same keys as the long flags)",
    )
    return common


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="sunbasis",
        description="exact projector and transition-operator toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    subparsers: dict[str, argparse.ArgumentParser] = {}

    sp = sub.add_parser("tableaux", parents=[common], help="enumerate standard tableaux")
    sp.add_argument("--m", type=int, default=None, help="number of boxes")
    sp.add_argument("--shape", default=None, help="restrict to one shape, e.g. 3,1")
    sp.set_defaults(func=_cmd_tableaux)
    subparsers["tableaux"] = sp

    sp = sub.add_parser("projector", parents=[common], help="build one projector")
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument(
        "--tableau", default=None, help="1-based tableau index or tableau JSON"
    )
    sp.add_argument(
        "--kind",
        default="hermitian",
        help="young, staircase, mold, or hermitian (= mold)",
    )
    sp.set_defaults(func=_cmd_projector)
    subparsers["projector"] = sp

    sp = sub.add_parser(
        "transition", parents=[common], help="build one transition operator"
    )
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument(
        "--from", dest="src", default=None, help="source tableau (index or JSON)"
    )
    sp.add_argument(
        "--to", dest="dst", default=None, help="target tableau (index or JSON)"
    )
    sp.add_argument(
        "--method", default="compact", help="young, general, or compact"
    )
    sp.set_defaults(func=_cmd_transition)
    subparsers["transition"] = sp

    sp = sub.add_parser(
        "basis", parents=[common], help="assemble the full operator grid"
    )
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--kind", default="hermitian", help="young or hermitian")
    sp.add_argument(
        "--verify",
        default=None,
        help="run suites: all, or comma-separated from "
        "table, ortho, complete, independence",
    )
    sp.add_argument("--sample", type=int, default=None, help="orthonormality pair sample size")
    sp.add_argument("--seed", type=int, default=0, help="sampling seed")
    sp.add_argument("--jobs", type=int, default=None, help="accepted and ignored")
    sp.set_defaults(func=_cmd_basis)
    subparsers["basis"] = sp

    sp = sub.add_parser(
        "represent", parents=[common], help="concrete matrix of an operator"
    )
    sp.add_argument("--m", type=int, default=None, help="optional cross-check of the operator degree")
    sp.add_argument("--N", dest="n_dim", type=int, default=None, help="underlying space dimension")
    sp.add_argument("--op", default=None, help="operator JSON, or @file")
    sp.add_argument("--rank", action="store_true", help="also compute the exact rank")
    sp.add_argument("--cap", type=int, default=10_000, help="largest allowed matrix size")
    sp.set_defaults(func=_cmd_represent)
    subparsers["represent"] = sp

    sp = sub.add_parser("verify", parents=[common], help="run verification suites")
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--kind", default="hermitian", help="young or hermitian")
    sp.add_argument(
        "--suite",
        default="all",
        help="all, or comma-separated from table, ortho, complete, independence",
    )
    sp.add_argument("--sample", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=None, help="accepted and ignored")
    sp.set_defaults(func=_cmd_verify)
    subparsers["verify"] = sp

    sp = sub.add_parser(
        "dims", parents=[common], help="image dimensions by shape"
    )
    sp.add_argument("--m", type=int, default=None)
    sp.set_defaults(func=_cmd_dims)
    subparsers["dims"] = sp

    return parser, subparsers


_CONFIG_KEY_MAP = {"from": "src", "to": "dst", "N": "n_dim"}


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
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad config JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    out: dict[str, Any] = {}
    for key, value in raw.items():
        dest = _CONFIG_KEY_MAP.get(key, str(key).replace("-", "_"))
        if dest not in known_dests:
            raise UsageError(f"unknown config key {key!r}")
        out[dest] = _config_int(f"config key {key!r}", value) if dest in int_dests else value
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
        code, body = args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # single writer for all user-visible output
    if not body.endswith("\n"):
        body += "\n"
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
