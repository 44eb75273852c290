"""Run one oddlex benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cm-wide --seed 1 --seconds 15 --trace 0

Every command runs in this process through ``oddlex.cli.main(argv)``, on spec,
formula and theory inputs generated from ``--seed``.  With ``--trace 0`` the
workload runs whole rounds of commands until ``--seconds`` of command time
have been measured, and the end-to-end metrics are reported.  With
``--trace 1`` round 0 runs once untraced and then traced until ``--seconds``
have passed; the per-layer metrics come from the traced passes, averaged per
pass, followed by the scaling probes.  Human-readable lines come first; the
last line of standard output is the JSON result.  Exit code 0 means the run
completed; whether the program's outputs were right is the ``correct`` field.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(cli, cmd):
    """Run one command in-process; only the call itself is timed.

    A real invocation starts in a fresh process, so the garbage earlier
    commands and the oracle left behind is collected first, off the clock.
    """
    from perfbench.oracle import Outcome
    from perfbench.speed import timed

    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            with redirect_stdout(out), redirect_stderr(err):
                return cli.main(cmd.argv), ""
        except SystemExit as exc:  # argparse usage errors
            return exc.code, ""
        except Exception as exc:  # an uncaught exception is a failed operation
            traceback.print_exc(file=sys.stderr)
            return None, f"{type(exc).__name__}: {exc}"

    gc.collect()
    (rc, error), seconds, wall = timed(call)
    text = out.getvalue()
    return Outcome(cmd, seconds, wall, rc, len(text.encode()), error=error), text


def build_algebras(workload) -> None:
    """Build, once, every algebra the workload's commands build."""
    from oddlex.chains import adjoin_bounds
    from oddlex.towers import (MODE_III_IV, RepresentationSpec, build_representation,
                               build_standard_target)

    for spec in workload.specs:
        rs = RepresentationSpec.from_json(spec.doc)
        if workload.kind == "countermodel":
            top = (build_standard_target(rs).top if spec.standard
                   else build_representation(rs).top)
            adjoin_bounds(top)
        elif workload.kind == "verify":
            target = build_standard_target(rs)
            top = target.top if spec.standard else build_representation(rs).top
            adjoin_bounds(top)
            if any(d is not None for d in rs.vdescs):
                build_representation(rs, MODE_III_IV)
        else:
            build_standard_target(rs)
            build_representation(rs, MODE_III_IV)


def measure_setup(workload) -> tuple[float, int]:
    """Median set-up time over at least three set-ups (more when they are
    fast), and the number of set-ups."""
    from perfbench.speed import timed

    times = []
    while len(times) < 3 or (sum(times) < 0.5 and len(times) < 50):
        gc.collect()
        _result, seconds, _wall = timed(lambda: build_algebras(workload))
        times.append(seconds)
    return statistics.median(times), len(times)


def command_type(o):
    """Spec and mode of a command: the strata the gated metrics are taken over."""
    cmd = o.command
    return (cmd.spec.label if cmd.spec else cmd.kind), cmd.mode


def per_type_medians(outcomes, seconds) -> dict:
    groups: dict = {}
    for o in outcomes:
        groups.setdefault(command_type(o), []).append(seconds(o))
    return {key: statistics.median(values) for key, values in groups.items()}


def spec_weighted_percentile(outcomes, q: int, seconds) -> float:
    """Percentile of ``seconds(o)`` over all commands, every spec weighted equally."""
    groups: dict = {}
    for o in outcomes:
        groups.setdefault(command_type(o), []).append(seconds(o))
    weighted = sorted((v, 1 / len(values)) for values in groups.values() for v in values)
    target, acc = q / 100 * len(groups), 0.0
    for value, weight in weighted:
        acc += weight
        if acc >= target:
            return value
    return weighted[-1][0]


def summary(workload, outcomes, seconds) -> tuple[dict, dict]:
    """The workload's figures with command time ``seconds(o)``.

    Returns the BENCHMARK.json metrics and the figures the workload
    definitions name (cm_found_ms_p50, verify_s_p50, ...).  The gated
    metrics are medians inside one spec (and mode), combined across specs:
    a percentile of all commands pooled falls between specs whenever the
    seed shifts how many commands each spec contributes, and jumps.
    """
    from perfbench.probes import exponent

    if workload.kind == "countermodel":
        timed_cmds = [o for o in outcomes if o.rc == 0]
        notfound = [o for o in outcomes if o.rc == 1]
        notfound_s = statistics.geometric_mean(per_type_medians(notfound, seconds).values())
        rate = workload.budget / notfound_s
        named = {f"cm_found_ms_p{q}": (spec_weighted_percentile(timed_cmds, q, seconds) * 1e3,
                                       f"ms (n={len(timed_cmds)}, specs weighted equally)")
                 for q in (50, 90)}
        named["cm_notfound_s_p50"] = (spec_weighted_percentile(notfound, 50, seconds),
                                      f"s (n={len(notfound)}, specs weighted equally)")
        named["search_assign_per_s"] = (rate, "assignments/s (budget / notfound time)")
    else:
        timed_cmds = outcomes
        times = [seconds(o) for o in outcomes]
        medians = per_type_medians(outcomes, seconds)
        # Work per second of one command of each type, each at its median time.
        work = per_type_medians(outcomes, lambda o: o.samples or o.command.stages)
        rate = sum(work.values()) / sum(medians.values())
        if workload.kind == "verify":
            named = {"verify_s_p50": (statistics.median(times), f"s (n={len(times)})"),
                     "verify_samples_per_s": (rate, "samples/s")}
        else:
            sizes = sorted({o.command.stages for o in outcomes})
            standard = [medians[f"iii{n}", "standard"] for n in sizes]
            named = {"build_s_p50": (statistics.median(times), f"s (n={len(times)})"),
                     "build_depth_exp": (exponent(sizes, standard),
                                         f"(build --standard time against stage counts {sizes})"),
                     "stages_per_s": (rate, "stages/s")}
    medians = per_type_medians(timed_cmds, seconds).values()
    metrics = {"latency_ms": (statistics.geometric_mean(medians) * 1e3, "ms"),
               "slowest_ms": (max(medians) * 1e3, "ms"),
               "work_per_s": (rate, "1/s")}
    return metrics, named


def end_to_end(workload, outcomes, setup_s, setups, peak):
    """(metrics, report lines).  Metrics use the BENCHMARK.json names."""
    metrics, named = summary(workload, outcomes, lambda o: o.seconds)
    lines = [f"  setup_s = {setup_s:.6g} s (median of {setups} set-ups)"]
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in named.items()]
    timed_cmds = [o for o in outcomes if workload.kind != "countermodel" or o.rc == 0]
    lines.append("  median ms per command type: " + ", ".join(
        f"{label}{'/' + mode if mode else ''} {t * 1e3:.4g}"
        for (label, mode), t in sorted(per_type_medians(timed_cmds, lambda o: o.seconds).items())))
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    lines += [f"  peak_rss_mb = {peak:.6g} MB",
              f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)"]
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak, "MB")
    return metrics, lines


SUITE_FUNCTIONS = {
    "adjoint": "adjointness_suite", "involution": "involution_suite",
    "tau": "tau_suite", "density": "density_suite", "structure": "monoid_suite",
    "covers": "covers_suite", "group-part": "group_part_suite",
    "inclusion": "inclusion_suite", "embedding": "embedding_suite", "iso": "iso_suite",
}


def per_layer(tracer, passes, overhead_s):
    """Per-layer metrics from the traced passes, per pass."""
    from perfbench.tracing import LAYERS

    k = len(passes)
    first = passes[0]

    def ending(layer, *suffixes):
        return tracer.named(lambda n: n.startswith(layer + ".")
                            and n.rsplit(".", 1)[1] in suffixes)

    m = {f"{layer}.self_s": (tracer.self_s(*tracer.named(lambda n, l=layer: n.startswith(l + "."))) / k, "s")
         for layer in LAYERS}
    ops = tracer.calls(*ending("chains", "_compare", "_mult", "_neg"))
    walk = tracer.calls(*ending("chains", "_is_group_elem", "_flatten", "_in_subgroup"))
    m.update({
        "groups.check.calls": (tracer.calls(*ending("groups", "check")) / k, "count"),
        "groups.contains_coords.calls": (tracer.calls("groups.SubgroupDescriptor.contains_coords") / k, "count"),
        "chains.op.calls": (ops / k, "count"),
        "chains.group_walk.calls": (walk / k, "count"),
        "chains.group_walk.per_op": (walk / ops if ops else 0.0, "ratio"),
        "chains.contains.calls": (tracer.calls(*ending("chains", "contains")) / k, "count"),
        "plp.build_plp.s": (tracer.outer_s("plp.build_plp") / k, "s"),
        "plp.build_plp.calls": (tracer.calls("plp.build_plp") / k, "count"),
        "plp.rank_gate.s": (tracer.caller_s("chains.Algebra.rank",
                                          lambda c: c == "plp.build_plp") / k, "s"),
        "towers.build_representation.s": (tracer.outer_s("towers.build_representation") / k, "s"),
        "towers.build_standard_target.s": (tracer.outer_s("towers.build_standard_target") / k, "s"),
        "towers.embed.s": (tracer.outer_s("towers.StandardTarget.embed") / k, "s"),
        "towers.between.s": (tracer.outer_s("towers.between") / k, "s"),
        "sampling.window_elements.s": (tracer.outer_s("sampling.window_elements") / k, "s"),
        "sampling.window_elements.calls": (tracer.calls("sampling.window_elements") / k, "count"),
        "sampling.sample_elem.self_s": (tracer.self_s("sampling.sample_elem") / k, "s"),
        "sampling.sample_elem.calls": (tracer.calls("sampling.sample_elem") / k, "count"),
        "sampling.sample_group_elem.calls": (tracer.calls("sampling.sample_group_elem") / k, "count"),
        "logic.render.s": ((tracer.outer_s("logic.rendered")
                            + tracer.caller_s("logic.unit_interval_render",
                                            lambda c: c != "logic.rendered")) / k, "s"),
        "logic.found": (sum(1 for o, _ in first
                            if o.command.kind == "countermodel" and o.rc == 0), "count"),
        "verify.checks_failed": (sum(o.failed for o, _ in first
                                     if o.command.kind in ("verify", "iso-check")), "count"),
        "elements.format_elem.calls": (tracer.calls("elements.format_elem") / k, "count"),
        "elements.format_elem.self_s": (tracer.self_s("elements.format_elem") / k, "s"),
        "serialize.tower_to_json.s": (tracer.outer_s("serialize.tower_to_json") / k, "s"),
        "serialize.algebra_to_json.s": (tracer.outer_s("serialize.algebra_to_json") / k, "s"),
        "cli.output_bytes": (sum(o.out_bytes for o, _ in first), "B"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (sum(s[0] for s in tracer.stats.values()) / k, "count"),
    })
    for suite, fn in SUITE_FUNCTIONS.items():
        m[f"verify.{suite}.s"] = (tracer.outer_s(f"verify.{fn}") / k, "s")
    return m


def run(args) -> dict:
    import oddlex.cli as cli
    from perfbench.oracle import Oracle
    from perfbench.workloads import WORKLOADS, make_round, write_specs

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spec_paths = write_specs(workload, workdir)
        setup_s, setups = measure_setup(workload)
        oracle = Oracle()
        print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
        if not args.trace:
            # Whole rounds; no round starts that would end well past --seconds.
            outcomes, measured, last, index = [], 0.0, 0.0, 0
            while index == 0 or measured + 0.5 * last < args.seconds:
                before = measured
                for cmd in make_round(workload, args.seed, index, workdir, spec_paths):
                    outcome, text = execute(cli, cmd)
                    oracle.check(outcome, text)
                    outcomes.append(outcome)
                    measured += outcome.wall
                last, index = measured - before, index + 1
            # Read before the oracle builds the expected towers, so that the
            # peak is the program's own.
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            oracle.finish()
            metrics, lines = end_to_end(workload, outcomes, setup_s, setups, peak)
            print(f"  {len(outcomes)} commands in {index} rounds, {measured:.3f} s measured")
        else:
            outcomes, metrics, lines = _traced(args, workload, cli, oracle, workdir, spec_paths)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    for violation in oracle.violations[:20]:
        print(f"  WRONG: {violation}")
    return {
        "correct": not oracle.violations,
        "attempted": sum(o.ops for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _traced(args, workload, cli, oracle, workdir, spec_paths):
    from perfbench.probes import probe_metrics
    from perfbench.tracing import Tracer
    from perfbench.workloads import make_round

    commands = make_round(workload, args.seed, 0, workdir, spec_paths)
    if workload.kind != "countermodel":
        # One command of each type: the repeats in a round only steady medians.
        first: dict = {}
        for cmd in commands:
            first.setdefault((cmd.kind, cmd.argv[1], cmd.mode), cmd)
        commands = list(first.values())
    untraced = [execute(cli, cmd) for cmd in commands]
    untraced_s = sum(o.wall for o, _ in untraced)
    tracer = Tracer()
    passes, traced_s = [], 0.0
    tracer.install()
    try:
        while not passes or traced_s < args.seconds:
            passes.append([execute(cli, cmd) for cmd in commands])
            traced_s += sum(o.wall for o, _ in passes[-1])
    finally:
        tracer.uninstall()
    # The oracle calls into the package too, so it runs with tracing off.
    for outcome, text in untraced + [r for p in passes for r in p]:
        oracle.check(outcome, text)
    oracle.finish()
    metrics = per_layer(tracer, passes, traced_s / len(passes) - untraced_s)
    tracer.write(OUT / f"trace-{workload.name}-s{args.seed}.jsonl")
    metrics.update(probe_metrics())
    outcomes = [o for o, _ in untraced] + [o for p in passes for o, _ in p]
    lines = [f"  round 0: {len(commands)} commands, {untraced_s:.3f} s untraced, "
             f"{traced_s / len(passes):.3f} s traced (mean of {len(passes)} passes)"]
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in sorted(metrics.items())]
    return outcomes, metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oddlex" / "__init__.py").is_file():
        print(f"perfbench: no oddlex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import oddlex

    if Path(oddlex.__file__).resolve().parent != (SRC / "oddlex").resolve():
        print(f"perfbench: imported oddlex from {oddlex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
