"""Byte-identity of the CLI on a fixed corpus of in-process commands.

Every command of ``corpus()`` runs through ``oddlex.cli.main`` in this
process; its exit code, stdout and stderr must equal, byte for byte, the
record in ``cli_identity_expected.json``.  The record keeps stdout as its
length and SHA-256 digest (the full text of the corpus is about 700 kB) and
stderr in full.  A change that keeps behaviour leaves the record alone.  A
change that alters output on purpose regenerates it, and says why, with::

    PYTHONPATH=src python tests/test_cli_identity.py --write

Spec and theory paths are written as ``{label}`` in the record and filled in
with files under a temporary directory at run time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from oddlex.cli import main

EXPECTED = Path(__file__).with_name("cli_identity_expected.json")


def _left_nested(n: int, kinds: tuple[str, ...]) -> dict:
    return {"ranks": [1] * n, "iota": [kinds[i % len(kinds)] for i in range(n - 1)]}


SPECS = {
    "readme": {"ranks": [1, 1, 1], "iota": ["III", "IV"],
               "zdescs": [["*"], ["2", "*"]], "vdescs": [["2"], ["2", "3"]]},
    "q12": {"ranks": [1, 2], "iota": ["III"]},
    "iii12": _left_nested(12, ("III",)),
    "alt12": _left_nested(12, ("III", "IV")),
}

THEORIES = {
    "th-pq": "# premise\np * q\n",
    "th-mp": "p\np -> q\n",
}

# (formula, theory label or None): theorems (not found) and non-theorems.
FORMULAS = (
    ("p -> p", None),
    ("(p * q) -> p", None),
    ("(p * p) -> p", None),
    ("((p -> q) -> p) -> p", None),
    ("(p & ~q) | (q -> (p * r))", None),
    ("p", "th-pq"),
    ("q", "th-mp"),
)

VARIANTS = ((), ("--render-unit",), ("--standard",), ("--standard", "--render-unit"))


def corpus() -> list[list[str]]:
    """The fixed command list; ``{label}`` stands for a spec or theory file."""
    commands = []
    for s, label in enumerate(SPECS):
        for f, (formula, theory) in enumerate(FORMULAS):
            for v, variant in enumerate(VARIANTS):
                argv = ["countermodel", "{%s}" % label, formula,
                        "--budget", "300", "--seed", str(100 * s + 10 * f + v), *variant]
                if theory is not None:
                    argv += ["--theory", "{%s}" % theory]
                commands.append(argv)
        for standard in ((), ("--standard",)):
            commands.append(["verify", "{%s}" % label, "--json", "--samples", "25",
                             "--seed", str(s), *standard])
    for label in ("readme", "iii12"):
        commands.append(["build", "{%s}" % label, "--json", "--mode", "III-IV"])
        commands.append(["build", "{%s}" % label, "--json", "--standard"])
    commands.append(["countermodel", "{readme}", "p ->", "--budget", "10"])
    return commands


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    stdout = out.getvalue().encode()
    return {"rc": rc, "stdout_bytes": len(stdout),
            "stdout_sha256": hashlib.sha256(stdout).hexdigest(), "stderr": err.getvalue()}


def run_corpus() -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for label, doc in SPECS.items():
            paths[label] = Path(tmp, f"{label}.json")
            paths[label].write_text(json.dumps(doc))
        for label, text in THEORIES.items():
            paths[label] = Path(tmp, f"{label}.txt")
            paths[label].write_text(text)
        records = []
        for argv in corpus():
            filled = [str(paths[a[1:-1]]) if a[1:-1] in paths and a.startswith("{")
                      else a for a in argv]
            records.append({"argv": argv, **run(filled)})
        return records


def test_cli_output_is_byte_identical_to_the_record():
    expected = json.loads(EXPECTED.read_text())
    actual = run_corpus()
    assert [r["argv"] for r in actual] == [r["argv"] for r in expected]
    for got, want in zip(actual, expected):
        assert got == want, " ".join(want["argv"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_identity.py --write")
    EXPECTED.write_text(json.dumps(run_corpus(), indent=1) + "\n")
