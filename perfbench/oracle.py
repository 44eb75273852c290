"""Correctness oracle, run on each command's output outside the timed region.

* ``countermodel``: a ``found`` result is re-parsed with
  ``Countermodel.from_json`` and re-validated; it must refute the formula and
  theory that were asked, and carry a rendering when one was asked for.  A
  listed theorem must never come back ``found``.  ``not-found`` must echo the
  budget and the goal.
* ``verify`` / ``iso-check``: each reported property check is one operation,
  and a FAIL is a failed operation, because the laws hold in every
  constructible algebra.  The exit code must agree with the JSON.
* ``build``: only a hash of the printed tower is kept.  ``finish()``, run
  after the timed commands and after the peak memory has been read, builds
  the library's tower for each spec and mode, serialises it, and compares
  hashes.  The hash is Python's keyed 64-bit ``str`` hash, which is stable
  within one process: importing ``hashlib`` would load a library that adds
  about 3.5 MB to ``peak_rss_mb``.  That tower must also have the stage count, ranks and stage
  groups the input spec asks for: this part does not trust the library.

Any exit code outside {0, 1}, and any exception, is a failed operation.
``violations`` lists wrong answers; the run is correct only if it is empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from oddlex.logic import Countermodel, format_formula, parse_formula, parse_theory
from oddlex.serialize import tower_to_json
from oddlex.towers import (Countertower, RepresentationSpec, build_representation,
                           build_standard_target)


@dataclass
class Outcome:
    """One executed command: what ran, how long, and what the oracle saw."""

    command: object
    seconds: float  # wall time scaled to the reference speed (see run.py)
    wall: float  # raw wall time
    rc: object
    out_bytes: int
    ops: int = 1
    failed: int = 0
    samples: int = 0  # property samples (verify / iso-check)
    error: str = ""


@dataclass
class Oracle:
    violations: list[str] = field(default_factory=list)
    # (spec label, mode) -> [(outcome, hash of the printed tower)]
    _builds: dict = field(default_factory=dict)

    def reject(self, outcome: Outcome, why: str) -> None:
        outcome.failed = max(outcome.failed, 1)
        self.violations.append(f"{' '.join(outcome.command.argv)}: {why}")

    def check(self, outcome: Outcome, stdout: str) -> None:
        cmd = outcome.command
        if outcome.error:
            self.reject(outcome, f"raised {outcome.error}")
            return
        if outcome.rc not in (0, 1):
            self.reject(outcome, f"exit code {outcome.rc} on valid input")
            return
        if cmd.kind == "build":
            self._build(outcome, stdout)
            return
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            self.reject(outcome, f"output is not JSON ({exc})")
            return
        getattr(self, "_" + cmd.kind.replace("-", "_"))(outcome, doc)

    # -- per command kind ----------------------------------------------------

    def _countermodel(self, outcome: Outcome, doc: dict) -> None:
        cmd = outcome.command
        goal = parse_formula(cmd.formula)
        if outcome.rc == 1:
            if (doc.get("result") != "not-found" or doc.get("budget") != cmd.budget
                    or doc.get("goal") != format_formula(goal)):
                self.reject(outcome, "malformed not-found report")
            return
        if cmd.theorem:
            self.reject(outcome, f"theorem {cmd.formula!r} reported as found")
            return
        if doc.get("result") != "found":
            self.reject(outcome, "exit code 0 without a found result")
            return
        try:
            cm = Countermodel.from_json(doc)
            cm.validate()
        except Exception as exc:  # any failure to re-parse or re-validate
            self.reject(outcome, f"countermodel does not validate: {exc!r}")
            return
        if cm.goal != goal or cm.theory != tuple(parse_theory("\n".join(cmd.theory))):
            self.reject(outcome, "countermodel answers a different question")
        elif cmd.render and not cm.rendering:
            self.reject(outcome, "--render-unit gave no rendering")

    def _verify(self, outcome: Outcome, doc: dict) -> None:
        checks = [c for suite in doc.get("suites", []) for c in suite["checks"]]
        self._tally(outcome, doc, checks)

    def _iso_check(self, outcome: Outcome, doc: dict) -> None:
        self._tally(outcome, doc, doc.get("checks", []))

    def _tally(self, outcome: Outcome, doc: dict, checks: list) -> None:
        if not checks:
            self.reject(outcome, "no property checks reported")
            return
        outcome.ops = len(checks)
        outcome.failed = sum(1 for c in checks if c["failures"])
        outcome.samples = sum(c["samples"] for c in checks)
        ok = outcome.failed == 0
        if doc.get("ok") is not ok or (outcome.rc == 0) is not ok:
            self.reject(outcome, "exit code and ok flag disagree with the checks")

    def _build(self, outcome: Outcome, stdout: str) -> None:
        cmd = outcome.command
        self._builds.setdefault((cmd.spec.label, cmd.mode), []).append((outcome, hash(stdout)))

    def finish(self) -> None:
        """Check the recorded ``build`` outputs, one spec and mode at a time."""
        for runs in self._builds.values():
            cmd = runs[0][0].command
            doc = tower_to_json(expected_tower(cmd.spec.doc, cmd.mode))
            digest = hash(json.dumps(doc, indent=2) + "\n")
            problem = _stage_shape_problem(doc, cmd.spec.doc, cmd.mode)
            del doc
            for outcome, printed in runs:
                if problem:
                    self.reject(outcome, problem)
                elif printed != digest:
                    self.reject(outcome, "printed tower differs from the spec's tower")
        self._builds.clear()


def expected_tower(spec_doc: dict, mode: str):
    """The tower ``build --json`` must print for a spec in a mode."""
    spec = RepresentationSpec.from_json(spec_doc)
    if mode == "standard":
        target = build_standard_target(spec)
        return Countertower(target.spec, "standard", target.stages)
    return build_representation(spec, mode)


def _stage_shape_problem(doc: dict, asked: dict, mode: str) -> str:
    """The tower must have the input spec's ranks, and stage i+1 must be the
    product of stage i with the stage group the spec names."""
    spec = doc["spec"]
    stages = doc["stages"]
    if spec["ranks"] != asked["ranks"] or spec["iota"] != asked["iota"]:
        return "tower spec differs from the input spec"
    if len(stages) != len(spec["ranks"]):
        return "stage count differs from the spec"
    for i, stage in enumerate(stages[1:], start=1):
        if stage.get("plp") != spec["iota"][i - 1] or stage["first"] != stages[i - 1]:
            return f"stage {i + 1} is not built on stage {i}"
        if mode != "standard" and stage["second"] != {"base": "Z", "rank": spec["ranks"][i]}:
            return f"stage {i + 1} has the wrong second factor"
    return ""
