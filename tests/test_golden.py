"""Golden-output tests: CLI stdout pinned byte for byte.

Each run in ``RUNS`` replays one CLI invocation in-process and compares its
stdout with the file ``tests/golden/<name>.out``; outputs above
``INLINE_LIMIT`` bytes are pinned by their sha256 in
``tests/golden/sha256.json`` instead.  Any change to the arithmetic that
alters a coefficient, a term order or a JSON layout fails here.

To re-capture after a deliberate output change, run from the repository
root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from sunbasis.cli import COMMANDS, FORMATS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
SHA_FILE = GOLDEN / "sha256.json"
INLINE_LIMIT = 50_000

# operators fed to `represent --rank`, each as the CLI command in the value prints it:
# a transition with sqrt(3) coefficients, the Hermitian projector of the first
# (2,2) tableau and the sqrt-transition between the first two (3,1) tableaux
OP_FILES = {
    "transition_m3_2_3": ["transition", "--m", "3", "--from", "2", "--to", "3"],
    "projector_m4_t5": ["projector", "--m", "4", "--tableau", "5"],
    "transition_m4_3_2": ["transition", "--m", "4", "--from", "3", "--to", "2"],
}

# (first, last) tableau index of every m = 4 shape
_M4_PAIRS = ((1, 1), (2, 4), (5, 6), (7, 9), (10, 10))


def _runs() -> dict[str, list[str]]:
    runs: dict[str, list[str]] = {}
    for t in range(1, 11):
        for kind in ("young", "staircase", "mold", "hermitian"):
            runs[f"projector_m4_t{t}_{kind}"] = [
                "projector", "--m", "4", "--tableau", str(t), "--kind", kind,
            ]
    for src, dst in _M4_PAIRS:
        for method in ("young", "general", "compact"):
            runs[f"transition_m4_{src}_{dst}_{method}"] = [
                "transition", "--m", "4", "--from", str(src), "--to", str(dst),
                "--method", method,
            ]
    for kind in ("hermitian", "young"):
        runs[f"basis_m4_{kind}"] = ["basis", "--m", "4", "--kind", kind]
    runs["basis_m5_hermitian"] = ["basis", "--m", "5"]
    for fmt in ("text", "latex"):
        runs[f"basis_m3_{fmt}"] = ["basis", "--m", "3", "--format", fmt]
    runs["verify_m4"] = ["verify", "--m", "4"]
    runs["dims_m5"] = ["dims", "--m", "5"]
    for name, op, n in (
        ("represent_n3_rank", "transition_m3_2_3", 3),
        ("represent_n5_p4_22_rank", "projector_m4_t5", 5),
        ("represent_n4_t4_31_rank", "transition_m4_3_2", 4),
    ):
        runs[name] = [
            "represent", "--N", str(n), "--op", f"@{GOLDEN / f'{op}.json'}", "--rank",
        ]
    runs["tableaux_m4"] = ["tableaux", "--m", "4"]
    # the smallest latex outputs: a bare identity and a unit N
    runs["projector_m1_t1_latex"] = ["projector", "--m", "1", "--tableau", "1", "--format", "latex"]
    runs["dims_m2_latex"] = ["dims", "--m", "2", "--format", "latex"]
    # text and latex of every subcommand
    for name, argv in (
        ("tableaux_m4", ["tableaux", "--m", "4"]),
        ("projector_m4_t5", ["projector", "--m", "4", "--tableau", "5"]),
        ("projector_m4_t5_young", ["projector", "--m", "4", "--tableau", "5", "--kind", "young"]),
        ("transition_m4_3_2", ["transition", "--m", "4", "--from", "3", "--to", "2"]),
        ("basis_m3_verify", ["basis", "--m", "3", "--verify", "all"]),
        ("represent_n3_rank", runs["represent_n3_rank"]),
        ("verify_m4", ["verify", "--m", "4"]),
        ("dims_m5", ["dims", "--m", "5"]),
    ):
        for fmt in ("text", "latex"):
            runs[f"{name}_{fmt}"] = [*argv, "--format", fmt]
    return runs


RUNS = _runs()


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden(name):
    got = _stdout(RUNS[name])
    path = GOLDEN / f"{name}.out"
    if path.exists():
        assert got == path.read_text()
    else:
        assert _sha(got) == json.loads(SHA_FILE.read_text())[name]


def _format(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "json"


def test_every_command_and_format_is_pinned():
    pinned = {(argv[0], _format(argv)) for argv in RUNS.values()}
    assert {(c, f) for c in COMMANDS for f in FORMATS} <= pinned


def _capture() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for op, argv in OP_FILES.items():
        (GOLDEN / f"{op}.json").write_text(_stdout(argv))
    for old in GOLDEN.glob("*.out"):
        old.unlink()
    hashes = {}
    for name, argv in sorted(RUNS.items()):
        text = _stdout(argv)
        if len(text.encode()) > INLINE_LIMIT:
            hashes[name] = _sha(text)
        else:
            (GOLDEN / f"{name}.out").write_text(text)
    SHA_FILE.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _capture()
