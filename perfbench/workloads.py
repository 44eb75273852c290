"""Workload definitions and the seeded input generator.

A workload is a fixed list of specs plus a *round*: the list of CLI commands
one pass over those specs issues.  Rounds are generated from the workload
seed and the round index, so the same seed always gives the same commands,
formulas and theory files.  The program only ever receives the generated
spec files, formula strings and theory files.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

VARS = ("p", "q", "r")
BINARY = ("*", "&", "|", "->")
# Fixed depth distribution of the random corpus: mostly shallow formulas,
# which the systematic window falsifies, with a tail of deeper ones.
DEPTHS = (1, 2, 2, 3, 3, 4)

# Theorems of involutive uninorm logic.  Every one holds at or above the unit
# in every odd involutive FL_e-chain, so no search may ever report `found`.
THEOREMS = (
    "p -> p",
    "(p * q) -> (q * p)",
    "p -> (q -> (p * q))",
    "(p & q) -> p",
    "p -> (p | q)",
    "(p -> q) -> ((q -> r) -> (p -> r))",
    "~~p -> p",
    "(p * (p -> q)) -> q",
    "(p -> q) | (q -> p)",
    "(p -> q) -> (~q -> ~p)",
)

README_SPEC = {"ranks": [1, 1, 1], "iota": ["III", "IV"],
               "zdescs": [["*"], ["2", "*"]], "vdescs": [["2"], ["2", "3"]]}


def left_nested(n: int, kinds: tuple[str, ...]) -> dict:
    """``ranks = [1]*n`` with the stage kinds repeating ``kinds``."""
    return {"ranks": [1] * n, "iota": [kinds[i % len(kinds)] for i in range(n - 1)]}


@dataclass(frozen=True)
class Spec:
    label: str
    doc: dict
    standard: bool  # countermodel/verify: use the dense companion (--standard)
    why: str


@dataclass
class Command:
    kind: str  # countermodel | verify | iso-check | build
    argv: list[str]
    spec: Optional[Spec] = None
    formula: str = ""
    theory: tuple[str, ...] = ()
    budget: int = 0
    theorem: bool = False
    render: bool = False
    stages: int = 0
    mode: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # countermodel | verify | build
    specs: tuple[Spec, ...]
    why: str
    budget: int = 0
    random_per_spec: int = 0
    theorems_per_spec: int = 0


WORKLOADS = {
    "cm-wide": Workload(
        "cm-wide", "countermodel",
        (
            Spec("readme", README_SPEC, False,
                 "the README 3-stage spec with Z and V descriptors"),
            Spec("q12-std", {"ranks": [1, 2], "iota": ["III"]}, True,
                 "Q towers under --standard: rational arithmetic dominates"),
            Spec("z4", {"ranks": [4], "iota": []}, False,
                 "one stage of rank 4: the window materialises all 7^4 vectors"),
        ),
        "shallow wide specs: formula evaluation, the window rebuilt per query "
        "and Fraction arithmetic dominate; element trees stay <= 3 levels",
        budget=2000, random_per_spec=6, theorems_per_spec=2),
    "cm-deep": Workload(
        "cm-deep", "countermodel",
        (
            Spec("iii12", left_nested(12, ("III",)), False,
                 "12 left-nested type III stages"),
            Spec("alt12", left_nested(12, ("III", "IV")), False,
                 "12 left-nested stages alternating III/IV"),
            Spec("alt12-std", left_nested(12, ("III", "IV")), True,
                 "the same spec through its dense companion (--standard)"),
        ),
        "left-nested 12-stage specs: the per-level group-structure walk in "
        "chains and the oddness gate in plp dominate; the window stays tiny",
        budget=150, random_per_spec=5, theorems_per_spec=1),
    "verify": Workload(
        "verify", "verify",
        (
            Spec("readme", README_SPEC, False,
                 "the README spec: all suites including inclusion"),
            Spec("readme-std", README_SPEC, True,
                 "the README spec over its dense companion (--standard)"),
            Spec("mixed10", left_nested(10, ("III", "IV", "III")), False,
                 "10 mixed III/IV stages: deep samples; the known false tau-count "
                 "FAILs show on every seed from 10 stages on"),
        ),
        "verify --json on shallow and deep specs plus iso-check: fresh random "
        "elements, a witness string per sample, embed/between, standard targets"),
    "build": Workload(
        "build", "build",
        tuple(Spec(f"iii{n}", left_nested(n, ("III",)), False,
                   f"{n} left-nested type III stages") for n in (8, 16, 32, 64)),
        "build --standard and --mode III-IV on left-nested all-III specs of "
        "8-64 stages: only construction and serialize run; JSON grows ~n^2"),
}


# ---------------------------------------------------------------------------
# Seeded generator


def random_formula(rng: random.Random, depth: int) -> str:
    """A random formula over p, q, r with connectives ~ * & | ->."""
    if depth <= 0:
        return rng.choice(VARS)
    op = rng.randrange(len(BINARY) + 1)
    if op == len(BINARY):
        return "~" + random_formula(rng, depth - 1)
    left = random_formula(rng, depth - 1)
    right = random_formula(rng, rng.randrange(depth))
    return f"({left} {BINARY[op]} {right})"


def corpus_formula(rng: random.Random) -> str:
    return random_formula(rng, rng.choice(DEPTHS))


def rename(formula: str, rng: random.Random) -> str:
    """The same formula under a seeded permutation of p, q, r."""
    perm = dict(zip(VARS, rng.sample(VARS, len(VARS))))
    return re.sub(r"\b[pqr]\b", lambda m: perm[m.group()], formula)


def round_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def write_specs(workload: Workload, workdir: Path) -> dict[str, str]:
    paths = {}
    for spec in workload.specs:
        path = workdir / f"spec-{spec.label}.json"
        path.write_text(json.dumps(spec.doc))
        paths[spec.label] = str(path)
    return paths


def make_round(workload: Workload, seed: int, index: int, workdir: Path,
               spec_paths: dict[str, str]) -> list[Command]:
    """The commands of round ``index``, in a seeded order.

    Build rounds keep a fixed order: their inputs do not depend on the seed,
    and a seeded order only moved the heap's fragmentation (peak RSS varied
    by 12% between seeds).
    """
    if workload.kind == "build":
        return _build_round(workload, spec_paths)
    rng = round_rng(seed, workload.name, index)
    if workload.kind == "countermodel":
        commands = _countermodel_round(workload, rng, index, workdir, spec_paths)
    else:
        commands = _verify_round(workload, rng, spec_paths)
    rng.shuffle(commands)
    return commands


def _countermodel_round(workload, rng, index, workdir, spec_paths):
    commands = []
    for spec in workload.specs:
        jobs = [(corpus_formula(rng), False) for _ in range(workload.random_per_spec)]
        for j in range(workload.theorems_per_spec):
            theorem = THEOREMS[(index * workload.theorems_per_spec + j) % len(THEOREMS)]
            jobs.append((rename(theorem, rng), True))
        for formula, theorem in jobs:
            argv = ["countermodel", spec_paths[spec.label], formula,
                    "--budget", str(workload.budget),
                    "--seed", str(rng.randrange(2 ** 31))]
            if spec.standard:
                argv.append("--standard")
            theory: tuple[str, ...] = ()
            render = False
            if not theorem:
                if rng.random() < 1 / 3:
                    theory = tuple(random_formula(rng, rng.choice((1, 2)))
                                   for _ in range(rng.choice((1, 2))))
                    path = workdir / f"theory-{index}-{len(commands)}.txt"
                    path.write_text("# seeded premises\n" + "\n".join(theory) + "\n")
                    argv += ["--theory", str(path)]
                render = rng.random() < 1 / 3
                if render:
                    argv.append("--render-unit")
            commands.append(Command("countermodel", argv, spec, formula, theory,
                                    workload.budget, theorem, render))
    return commands


# The short verify commands run twice per round (with different seeds), so
# each of their medians rests on more than one sample.
SHORT_VERIFY_REPEATS = 2


def _verify_round(workload, rng, spec_paths):
    commands = []
    for spec in workload.specs:
        deep = len(spec.doc["ranks"]) > 3
        for _ in range(1 if deep else SHORT_VERIFY_REPEATS):
            argv = ["verify", spec_paths[spec.label], "--json",
                    "--seed", str(rng.randrange(2 ** 31))]
            if spec.standard:
                argv.append("--standard")
            commands.append(Command("verify", argv, spec))
    for _ in range(SHORT_VERIFY_REPEATS):
        commands.append(Command("iso-check", ["iso-check", "--json",
                                              "--seed", str(rng.randrange(2 ** 31))]))
    return commands


def _build_round(workload, spec_paths):
    commands = []
    for spec in workload.specs:
        n = len(spec.doc["ranks"])
        commands.append(Command("build", ["build", spec_paths[spec.label], "--standard", "--json"],
                                spec, stages=n, mode="standard"))
        commands.append(Command("build", ["build", spec_paths[spec.label], "--mode", "III-IV", "--json"],
                                spec, stages=n, mode="III-IV"))
    return commands
