"""Self-check of the benchmark at minimal size.

    python3 perfbench/selfcheck.py

* Every workload runs one round (``--seconds 0``), untraced and traced, and
  must print exactly the metrics BENCHMARK.json names, with their units.
* The oracle must reject a tampered countermodel, a theorem reported as
  found, an exit code of 2, a verify report whose exit code disagrees with
  its checks, and a build that prints the wrong tower, so its checks cannot
  pass silently.
* A copy holding only BENCHMARK.json and perfbench/ must fail without
  printing a result.

Exits 0 when every check passes.  The traced runs take a few minutes.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import oddlex.cli as cli  # noqa: E402
from oddlex.elements import format_elem  # noqa: E402
from oddlex.logic import Countermodel  # noqa: E402
from perfbench.oracle import Oracle, Outcome  # noqa: E402
from perfbench.workloads import README_SPEC, WORKLOADS, Command, Spec  # noqa: E402

PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {what}")
    if not ok:
        PROBLEMS.append(what)


def run_workload(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(traced: bool) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}
    for workload in (w["name"] for w in bench["workloads"]):
        proc = run_workload(workload, int(traced))
        label = f"{workload} --trace {int(traced)}"
        if proc.returncode:
            expect(False, f"{label} exits 0 ({proc.stderr.strip()[-300:]})")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == wanted, f"{label}: emits every metric BENCHMARK.json names "
                              f"(missing {sorted(set(wanted) - set(got))}, "
                              f"extra {sorted(set(got) - set(wanted))})")
        values = [m["value"] for m in result["metrics"].values()]
        expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
               f"{label}: every value is a finite number")
        if not traced:
            expect(all(v > 0 for v in values), f"{label}: no end-to-end metric is 0")
        expect(result["correct"] and result["attempted"] >= 1, f"{label}: correct, attempted >= 1")


def cli_output(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def check_oracle(workdir: Path) -> None:
    spec = Spec("readme", README_SPEC, False, "")
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(README_SPEC))

    def judged(cmd, rc, text) -> tuple[Oracle, Outcome]:
        oracle = Oracle()
        outcome = Outcome(cmd, 0.0, 0.0, rc, len(text))
        oracle.check(outcome, text)
        return oracle, outcome

    formula = "(p * q) -> p"
    cmd = Command("countermodel", [], spec, formula, budget=100)
    rc, text = cli_output(["countermodel", str(spec_path), formula, "--budget", "100"])
    oracle, _ = judged(cmd, rc, text)
    expect(rc == 0 and not oracle.violations, "a genuine countermodel is accepted")

    doc = json.loads(text)
    # Claim the goal evaluates to the unit: re-evaluation must disagree.
    doc["goal_value"] = format_elem(Countermodel.from_json(doc).algebra.unit())
    oracle, outcome = judged(cmd, 0, json.dumps(doc))
    expect(bool(oracle.violations) and outcome.failed == 1, "a tampered countermodel is rejected")

    theorem = Command("countermodel", [], spec, formula, budget=100, theorem=True)
    oracle, _ = judged(theorem, 0, text)
    expect(bool(oracle.violations), "a theorem reported as found is rejected")

    oracle, outcome = judged(cmd, 2, "")
    expect(bool(oracle.violations) and outcome.failed == 1, "exit code 2 is a failed operation")

    verify = Command("verify", [], spec)
    rc, text = cli_output(["verify", str(spec_path), "--json", "--suite", "tau", "--samples", "20"])
    doc = json.loads(text)
    doc["suites"][0]["checks"][0]["failures"] = 1
    oracle, outcome = judged(verify, rc, json.dumps(doc))
    expect(bool(oracle.violations), "a FAIL under exit code 0 is rejected")
    doc["ok"] = False
    oracle, outcome = judged(verify, 1, json.dumps(doc))
    expect(not oracle.violations and outcome.failed == 1,
           "a reported FAIL counts as a failed operation")

    build = Command("build", [], spec, mode="III-IV")
    rc, text = cli_output(["build", str(spec_path), "--mode", "III-IV", "--json"])
    oracle, _ = judged(build, rc, text)
    oracle.finish()
    expect(not oracle.violations, "the printed tower is accepted")
    oracle, outcome = judged(build, rc, text.replace('"III"', '"IV"', 1))
    oracle.finish()
    expect(bool(oracle.violations) and outcome.failed == 1, "a wrong tower is rejected")
    oracle, outcome = judged(Command("build", [], Spec("other", {"ranks": [1, 2], "iota": ["III"]},
                                                        False, ""), mode="III-IV"), rc, text)
    oracle.finish()
    expect(bool(oracle.violations), "a tower for another spec is rejected")


def check_without_sources(workdir: Path) -> None:
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_workload(next(iter(WORKLOADS)), 0, cwd=bare)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           "without the program's sources the benchmark fails and prints no result")


def main() -> int:
    workdir = ROOT / "perfbench" / "out" / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        check_oracle(workdir)
        check_without_sources(workdir)
        check_metrics(traced=False)
        check_metrics(traced=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
