"""Command-line interface.

Subcommands: ``build``, ``verify``, ``countermodel``, ``eval``, ``iso-check``.
Exit codes: 0 success (or countermodel found), 1 not found / verification
failure, 2 usage and validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chains import adjoin_bounds
from .elements import format_elem
from .errors import OddlexError
from .literals import parse_elem
from .logic import (
    check_consequence,
    eval_formula,
    format_formula,
    holds,
    parse_formula,
    parse_theory,
    rendered,
)
from .serialize import algebra_to_json, tower_to_json
from .towers import (
    Countertower,
    MODE_I_II,
    MODE_III_IV,
    RepresentationSpec,
    build_representation,
    build_standard_target,
)
from .verify import SUITE_NAMES, iso_suite, run_verification, _rng


def _load_spec(path: str) -> RepresentationSpec:
    with open(path) as fh:
        return RepresentationSpec.from_json(json.load(fh))


def _final_algebra(spec: RepresentationSpec, standard: bool):
    if standard:
        return build_standard_target(spec).top
    return build_representation(spec, MODE_I_II).top


def _stage_lines(stages) -> list[str]:
    lines = []
    for i, alg in enumerate(stages, start=1):
        kinds = ",".join(alg.ambient_kinds) or "-"
        lines.append(f"stage {i}: {alg}")
        lines.append(f"  group part: coords [{kinds}] restricted to {alg.group_part_descriptor}")
        lines.append(f"  discretely embedded group part: {alg.grpart_discretely_embedded}")
    return lines


def cmd_build(args) -> int:
    spec = _load_spec(args.spec)
    if args.standard:
        target = build_standard_target(spec)
        tower = Countertower(target.spec, "standard", target.stages)
        if len(target.spec.ranks) != len(spec.ranks):
            print(f"note: consecutive type IV stages merged; ranks now {list(target.spec.ranks)}")
    else:
        tower = build_representation(spec, args.mode)
    if args.json:
        print(json.dumps(tower_to_json(tower), indent=2))
    else:
        print(f"mode: {tower.mode}")
        for line in _stage_lines(tower.stages):
            print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(tower_to_json(tower), fh, indent=2)
        print(f"tower written to {args.out}", file=sys.stderr)
    return 0


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise OddlexError(f"--samples must be a positive integer, got {samples}")


def cmd_verify(args) -> int:
    _check_samples(args.samples)
    spec = _load_spec(args.spec)
    reports = run_verification(spec, args.suite, args.samples, args.seed,
                               standard=args.standard)
    ok = all(r.ok for r in reports)
    if args.json:
        doc = {
            "seed": args.seed,
            "samples": args.samples,
            "ok": ok,
            "suites": [
                {
                    "suite": r.suite,
                    "subject": r.subject,
                    "ok": r.ok,
                    "checks": [
                        {"name": c.name, "samples": c.samples,
                         "failures": c.failures, "witnesses": c.witnesses,
                         "info": c.info}
                        for c in r.checks
                    ],
                }
                for r in reports
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in reports:
            print(f"[{r.suite}] {r.subject}")
            for c in r.checks:
                print(f"  {c.line()}")
                for w in c.witnesses:
                    print(f"    witness: {w}")
        print("all properties hold" if ok else "verification FAILED")
    return 0 if ok else 1


def cmd_countermodel(args) -> int:
    spec = _load_spec(args.spec)
    algebra = adjoin_bounds(_final_algebra(spec, args.standard))
    goal = parse_formula(args.formula)
    theory = []
    if args.theory:
        with open(args.theory) as fh:
            theory = parse_theory(fh.read())
    cm = check_consequence(algebra, theory, goal, budget=args.budget, seed=args.seed)
    if cm is None:
        print(json.dumps({"result": "not-found", "budget": args.budget,
                          "seed": args.seed, "goal": format_formula(goal)}))
        return 1
    if args.render_unit:
        cm = rendered(cm)
    cm.validate()
    doc = cm.to_json()
    doc["result"] = "found"
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def cmd_eval(args) -> int:
    spec = _load_spec(args.spec)
    algebra = adjoin_bounds(_final_algebra(spec, args.standard))
    formula = parse_formula(args.formula)
    assignment = {}
    for item in args.assign or []:
        if "=" not in item:
            raise OddlexError(f"--assign takes var=literal, got {item!r}")
        name, literal = item.split("=", 1)
        assignment[name.strip()] = parse_elem(algebra, literal)
    value = eval_formula(algebra, formula, assignment)
    designated = holds(algebra, value)
    if args.json:
        print(json.dumps({"algebra": algebra_to_json(algebra),
                          "formula": format_formula(formula),
                          "value": format_elem(value),
                          "designated": designated}))
    else:
        print(f"value: {format_elem(value)}  (designated: {designated})")
    return 0


def cmd_iso_check(args) -> int:
    _check_samples(args.samples)
    pairs = []
    for chunk in args.pairs.split(";"):
        try:
            j, k = (int(v) for v in chunk.split(","))
        except ValueError:
            raise OddlexError(f"--pairs chunk {chunk!r} is not of the form j,k") from None
        pairs.append((j, k))
    checks = iso_suite(_rng(args.seed, "iso-check"), args.samples, tuple(pairs))
    ok = all(c.ok for c in checks)
    if args.json:
        print(json.dumps({"ok": ok, "checks": [
            {"name": c.name, "samples": c.samples, "failures": c.failures}
            for c in checks]}))
    else:
        for c in checks:
            print(c.line())
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddlex",
        description="Construct odd residuated chains by partial lexicographic "
                    "products, verify their laws, and search for countermodels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the tower a spec describes")
    p.add_argument("spec", help="representation spec (JSON file)")
    p.add_argument("--mode", default=MODE_I_II, choices=[MODE_I_II, MODE_III_IV],
                   help="which construction pair to apply")
    p.add_argument("--standard", action="store_true",
                   help="build the dense companion tower instead")
    p.add_argument("--out", help="write the tower file here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="run sampled property suites")
    p.add_argument("spec")
    p.add_argument("--suite", default="all", choices=list(SUITE_NAMES))
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--standard", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("countermodel",
                       help="falsify a formula over the spec's bounded top algebra")
    p.add_argument("spec")
    p.add_argument("formula")
    p.add_argument("--theory", help="file with one premise per line")
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--standard", action="store_true")
    p.add_argument("--render-unit", action="store_true",
                   help="also render all touched elements into (0,1)")
    p.add_argument("--out", help="write the countermodel JSON here")
    p.set_defaults(fn=cmd_countermodel)

    p = sub.add_parser("eval", help="evaluate a formula under an assignment")
    p.add_argument("spec")
    p.add_argument("formula")
    p.add_argument("--assign", action="append", metavar="VAR=LITERAL")
    p.add_argument("--standard", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("iso-check", help="sampled canonical isomorphism checks")
    p.add_argument("--pairs", default="1,1;1,2;2,1",
                   help="semicolon-separated j,k pairs for the tower flattening")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_iso_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OddlexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
