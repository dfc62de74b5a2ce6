"""Benchmark of topzeta: three seeded closed-loop workloads, checked by oracles.

Run from the root of a topzeta checkout:

    python3 bench/run.py --workload germ-ladder --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --quick          # every workload on a few inputs

One client sends one operation at a time.  A run repeats whole rounds of its
workload until the operations have taken ``--seconds`` at the reference host
speed (see hostspeed.py); the last line of standard output is the JSON
result.  With ``--trace 1`` the run reports per-layer metrics instead, from
spans recorded around the calls into each topzeta module (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from hostspeed import WINDOW, HostSpeed
from tracer import (COUNT_METRICS, COUNTS, END, ERROR, LAYERS, NAME, OP, PARENT, START, Tracer,
                    self_times)

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_SAMPLES = 2     # host-speed samples before and after each set-up
PROBE_REPEATS = 5
# CPU seconds one germ-ladder operation may take.  The slowest passing germ
# (the 4-branch product) takes 0.9 to 1.3 s at the reference host speed, and
# under 2.6 s while the host runs at half that speed; one factorization of
# the 6-branch germ takes about 12 s, and x^200+y^200 more than 40 s.  The
# limit sits between them with room on both sides.
OP_CPU_LIMIT = 5.0
CHILD_TIMEOUT = 120
# a percentile is read as the mean of the order statistics this many ranks
# either side of its own: a few costly germs or documents make up a tail, and
# a single order statistic jumps when two of them trade places
RANK_WINDOW = 4


class OpTimeout(BaseException):
    """An operation used up its CPU time; a BaseException so that no
    ``except Exception`` inside the program can swallow it."""


def _on_cpu_limit(signum, frame):
    raise OpTimeout()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("TOPZETA_JOBS", None)
    return env


def run_child(argv):
    """(wall seconds, completed process) of one child, which always ends."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT)
    return time.perf_counter() - t0, proc


def child_import_s():
    code = "import time; t = time.perf_counter(); import topzeta; print(time.perf_counter() - t)"
    _, proc = run_child([sys.executable, "-c", code])
    if proc.returncode:
        raise RuntimeError(f"import topzeta failed in a child: {proc.stderr.strip()}")
    return float(proc.stdout)


# -- workloads ---------------------------------------------------------------------


class Op:
    def __init__(self, label, run, check, fault=None):
        self.label, self.run, self.check, self.fault = label, run, check, fault


class GermLadder:
    """Plane-curve germs through cli.analyze_poly, rendered as machine JSON."""

    name = "germ-ladder"
    tail_percentile = 90
    in_children = False

    def __init__(self, seed, quick):
        self.seed, self.quick = seed, quick

    def setup(self):
        from topzeta import cli, formats
        self.cli, self.formats = cli, formats
        self.first = workloads.germ_round(self.seed, 0, self.quick)
        for text in ("x^2+y^3", "x*y", "(y-x)*(y-2*x)*(y+x)"):
            self._op(workloads.fixed("warm-up", text)).run()

    def round(self, r):
        germs = self.first if r == 0 else workloads.germ_round(self.seed, r, self.quick)
        return [self._op(g) for g in germs]

    def _op(self, g):
        cli, formats = self.cli, self.formats
        text, pipeline = g.text, g.pipeline
        pipelines = ["blowup", "toric"] if pipeline == "both" else [pipeline]

        def run():
            _, results = cli.analyze_poly(text, pipeline, allow_nonreduced=g.nonreduced)
            return formats.dump_canonical(cli.report_to_json({"poly": text}, results))

        def check(out):
            return checks.check_report(json.loads(out), workloads.germ_expectation(g), pipelines)

        return Op(f"{g.family} {text}", run, check, g.fault)

    def execute(self, op):
        signal.signal(signal.SIGPROF, _on_cpu_limit)
        try:
            signal.setitimer(signal.ITIMER_PROF, OP_CPU_LIMIT, 0.25)
            try:
                return op.run()
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
        finally:
            signal.signal(signal.SIGPROF, signal.SIG_DFL)


class ProductDocs:
    """Resolution documents from JSON text through cli.analyze_rd."""

    name = "product-docs"
    tail_percentile = 94
    in_children = False

    def __init__(self, seed, quick):
        self.seed, self.quick = seed, quick

    def setup(self):
        from topzeta import cli, formats, parse_poly, resolve_curve_germ
        self.cli, self.formats = cli, formats

        def resolve(g):
            f = parse_poly(g.text, ["x", "y"])
            return formats.resolution_to_json(resolve_curve_germ(f, allow_nonreduced=g.nonreduced))

        self.factors = workloads.product_factors(resolve)
        self.first = workloads.doc_round(self.seed, 0, self.factors, self.quick)
        for name, text, _ in self.first[:2]:
            self._op(name, text, None).run()

    def round(self, r):
        docs = self.first if r == 0 else workloads.doc_round(self.seed, r, self.factors, self.quick)
        return [self._op(*d) for d in docs]

    def _op(self, name, text, exp):
        cli, formats = self.cli, self.formats

        def run():
            rd, metadata = formats.resolution_from_json(json.loads(text))
            results = {"file": cli.analyze_rd(rd, metadata.get("isolated", "unknown"))}
            return formats.dump_canonical(cli.report_to_json({"file": name}, results))

        def check(out):
            return checks.check_report(json.loads(out), exp, ["file"])

        return Op(name, run, check)

    def execute(self, op):
        return op.run()


class ChildFailed(Exception):
    """A topzeta child process exited with a non-zero code."""


class CliCold:
    """One fresh ``python -m topzeta`` process per operation."""

    name = "cli-cold"
    tail_percentile = 75
    in_children = True

    def __init__(self, seed, quick):
        self.seed, self.quick = seed, quick
        self.tracer = None

    def setup(self):
        self._op(["zeta", "--poly", "x^2+y^3", "--format", "machine"], "report", None).run()
        self.first = workloads.cli_round(self.seed, 0, self.quick)

    def round(self, r):
        cmds = self.first if r == 0 else workloads.cli_round(self.seed, r, self.quick)
        return [self._op(*c) for c in cmds]

    def _op(self, argv, kind, exp):
        def run():
            if self.tracer is None:
                cmd = [sys.executable, "-m", "topzeta"] + argv
            else:
                spans = OUT / f"child-{os.getpid()}.jsonl"
                cmd = [sys.executable, str(BENCH / "trace_child.py"), str(spans)] + argv
            _, proc = run_child(cmd)
            if self.tracer is not None:
                self._merge(spans)
            if proc.returncode:
                raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return proc.stdout

        def check(out):
            if kind == "explain":
                return checks.check_explain(out, exp)
            if kind == "corpus":
                return checks.check_corpus(json.loads(out))
            pipelines = ["file"] if "--file" in argv else (
                ["blowup", "toric"] if "both" in argv else ["blowup"])
            return checks.check_report(json.loads(out), exp, pipelines)

        return Op(" ".join(argv), run, check)

    def _merge(self, path):
        """Append a child's spans to the tracer, under the current op."""
        t = self.tracer
        base = len(t.spans)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                rec[PARENT] = rec[PARENT] + base if rec[PARENT] >= 0 else t._stack[-1]
                rec[OP] = t.op
                t.spans.append(rec)
        path.unlink()

    def execute(self, op):
        return op.run()


WORKLOADS = {w.name: w for w in (GermLadder, ProductDocs, CliCold)}


# -- the closed loop --------------------------------------------------------------------


class Tally:
    def __init__(self, speed=None):
        self.latencies = []   # wall seconds per attempted op; None marks a failure
        self.windows = []     # per attempted op: (start, end, exception name or None)
        self.busy = 0.0       # seconds spent in operations, see spent()
        self.failures = {}    # exception name -> count
        self.problems = []
        self.speed = speed    # HostSpeed sampled before every operation, if any

    def record(self, start, end, failure):
        self.windows.append((start, end, failure))
        self.latencies.append(None if failure else end - start)
        self.busy += self.spent(start, end, failure)

    def spent(self, start, end, failure):
        """An operation's time at the reference host speed, as far as the
        samples so far tell it.  An OpTimeout counts its wall time, which the
        limit sets, not the program; without a probe every operation does."""
        if self.speed is None or failure == "OpTimeout":
            return end - start
        return self.speed.adjust(start, end)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(self.failures.values())


def run_round(wl, r, tally, tracer=None):
    for k, op in enumerate(wl.round(r)):
        run_op(wl, op, f"{r}.{k}", tally, tracer)


def run_op(wl, op, op_id, tally, tracer=None):
    if tally.speed is not None:
        tally.speed.sample()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.execute(op)
        else:
            with tracer.span("op", op_id):
                out = wl.execute(op)
    except (Exception, OpTimeout) as exc:
        kind = type(exc).__name__
        tally.record(t0, time.perf_counter(), kind)
        tally.failures[kind] = tally.failures.get(kind, 0) + 1
        if kind != op.fault:
            tally.problems.append(f"{op.label}: unexpected {kind}: {exc}")
        return
    tally.record(t0, time.perf_counter(), None)
    try:
        problems = op.check(out)
    except Exception as exc:  # malformed output is a wrong answer, not a crash
        problems = [f"output could not be checked: {exc!r}"]
    tally.problems += [f"{op.label}: {p}" for p in problems]


def run_loop(wl, seconds, tally, tracer=None, first_round=0):
    """Whole rounds until the operations took ``seconds`` (at the reference
    host speed, when the tally has a probe) and there are enough samples for
    the workload's tail percentile."""
    needed = min_samples(wl.tail_percentile)
    r = first_round
    while tally.busy < seconds or tally.attempted < needed:
        run_round(wl, r, tally, tracer)
        r += 1
    return r


def min_samples(p):
    """Samples needed for at least ten beyond the p-th percentile."""
    return math.ceil(10 * 100 / (100 - p))


def percentile(latencies, p):
    """Mean of the 2 * RANK_WINDOW + 1 order statistics centred on the rank
    of the p-th percentile.  Failures rank above every latency, so a window
    that reaches one reads infinite."""
    ranked = sorted(x if x is not None else math.inf for x in latencies)
    pos = round(p / 100 * (len(ranked) - 1))
    return statistics.fmean(ranked[max(0, pos - RANK_WINDOW):pos + RANK_WINDOW + 1])


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed_setup(wl, repeats, cold, own):
    """Median time of the set-up, at the reference host speed: import
    topzeta in a fresh interpreter, as a user pays it (adjusted by the
    ``cold`` probe), then generate the inputs and warm up (adjusted by the
    probe of the workload's operations, ``own``).  The benchmark process
    imports topzeta before the first set-up, which would otherwise pay for
    a second import on top of the child's."""
    import topzeta.cli  # noqa: F401
    probes = [cold] if own is cold else [cold, own]
    times = []
    for _ in range(repeats):
        for p in probes:
            p.sample(SETUP_SAMPLES)
        t0 = time.perf_counter()
        imported = child_import_s()
        t1 = time.perf_counter()
        wl.setup()
        t2 = time.perf_counter()
        for p in probes:
            p.sample(SETUP_SAMPLES)
        times.append(imported / cold.slowdown((t0 + t1) / 2)
                     + own.adjust(t1, t2))
    return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def adjusted(tally):
    """Latencies at the reference host speed (None for failures) and the time
    spent in operations, now that samples after the last operation are in."""
    tally.speed.sample(WINDOW)
    latencies, busy = [], 0.0
    for start, end, failure in tally.windows:
        dt = tally.spent(start, end, failure)
        busy += dt
        latencies.append(None if failure else dt)
    return latencies, busy


def probe_for(wl):
    """The host-speed probe that fits the workload's operations."""
    if wl.in_children:
        return HostSpeed.fresh_processes(child_env(), ROOT)
    return HostSpeed.in_process()


def end_to_end(args, wl):
    speed = probe_for(wl)
    cold = speed if wl.in_children else HostSpeed.fresh_processes(child_env(), ROOT)
    setup_s = timed_setup(wl, SETUP_REPEATS, cold, speed)
    tally = Tally(speed)
    rounds = run_loop(wl, args.seconds, tally)
    latencies, busy = adjusted(tally)
    passed = sum(x is not None for x in latencies)
    metrics = {
        "ops_per_s": metric(passed / busy, "1/s"),
        "latency_p50_s": metric(percentile(latencies, 50), "s"),
        "latency_tail_s": metric(percentile(latencies, wl.tail_percentile), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(wl.in_children), "MB"),
    }
    raw_busy = sum(end - start for start, end, _ in tally.windows)
    notes = {"rounds": rounds, "tail_percentile": wl.tail_percentile, "samples": tally.attempted,
             "failures": tally.failures, "raw_ops_per_s": round(passed / raw_busy, 4),
             "raw_p50_s": round(percentile(tally.latencies, 50), 5),
             "median_slowdown": round(speed.median_slowdown(), 3)}
    return tally, metrics, notes


# -- the traced run ------------------------------------------------------------------------

SELF = {
    "polynomial.germ_factors_s": ("polynomial.germ_factors",),
    "polynomial.parse_poly_s": ("polynomial.parse_poly",),
    "polynomial.is_nondegenerate_s": ("polynomial.is_nondegenerate_curve",),
    "unipoly.factor_rational_s": ("unipoly.factor_rational",),
    "unipoly.gcd_s": ("unipoly.gcd",),
    "curve_resolution.initial_state_s": ("curve_resolution.initial_state",),
    "curve_resolution.blowup_step_s": ("curve_resolution.blowup_step",),
    "curve_resolution.euler_strata_s": ("curve_resolution.euler_strata",),
    "toric_curve.toric_resolution_data_s": ("toric_curve.toric_resolution_data",),
    "zeta_core.zeta_s": ("zeta_core.zeta_local", "zeta_core.zeta_global"),
    "zeta_core.poles_s": ("zeta_core.poles",),
    "zeta_core.lct_s": ("zeta_core.lct_local", "zeta_core.lct_global"),
    "analysis.max_order_pole_report_s": ("analysis.max_order_pole_report",),
    "analysis.acampo_zeta_s": ("analysis.acampo_zeta",),
    "analysis.eigenvalues_s": ("analysis.monodromy_eigenvalues_germ",),
    "analysis.conjectures_s": ("analysis.check_conjecture2", "analysis.check_conjecture3",
                               "analysis.check_conjecture4"),
    "formats.resolution_from_json_s": ("formats.resolution_from_json",),
    "formats.render_s": ("formats.rational_to_json", "formats.zeta_to_json",
                         "formats.poles_to_json", "formats.prediction_to_json",
                         "formats.dump_canonical"),
}
CALLS = {
    "polynomial.germ_factors_calls": "polynomial.germ_factors",
    "unipoly.factor_rational_calls": "unipoly.factor_rational",
    "unipoly.gcd_calls": "unipoly.gcd",
    "curve_resolution.blowup_steps": "curve_resolution.blowup_step",
}


def layer_metrics(spans, ops, speed):
    """Per-layer self times (at the reference host speed) and counts, each
    per attempted operation."""
    own = [s / speed.slowdown((rec[START] + rec[END]) / 2)
           for rec, s in zip(spans, self_times(spans))]
    out = {}
    for layer in LAYERS:
        total = sum(s for rec, s in zip(spans, own) if rec[NAME].startswith(layer + "."))
        out[f"{layer}.self_s"] = metric(total / ops, "s/op")
    for name, funcs in SELF.items():
        total = sum(s for rec, s in zip(spans, own) if rec[NAME] in funcs)
        out[name] = metric(total / ops, "s/op")
    for name, func in CALLS.items():
        out[name] = metric(sum(rec[NAME] == func for rec in spans) / ops, "count/op")
    for name in COUNT_METRICS:
        total = sum(rec[COUNTS].get(name, 0) for rec in spans if rec[COUNTS])
        out[name] = metric(total / ops, "count/op")
    failed_ops = {rec[OP] for rec in spans
                  if rec[ERROR] and rec[NAME].startswith("curve_resolution.")}
    out["curve_resolution.failed"] = metric(len(failed_ops) / ops, "count/op")
    return out


def cli_probes():
    """Interpreter start, import cost, and whether a --file run loads sympy."""
    bare = statistics.median(
        run_child([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_REPEATS))
    imported = statistics.median(child_import_s() for _ in range(PROBE_REPEATS))
    code = ("import sys, io, contextlib; from topzeta.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    main(['zeta', '--file', '{workloads.BUNDLED}/{workloads.BUNDLED_DOCS[1]}',"
            " '--pipeline', 'file', '--format', 'machine'])\n"
            "print(int('sympy' in sys.modules))")
    _, proc = run_child([sys.executable, "-c", code])
    if proc.returncode:
        raise RuntimeError(f"sympy probe failed: {proc.stderr.strip()}")
    return {
        "cli.bare_python_s": metric(bare, "s"),
        "cli.import_s": metric(imported, "s"),
        "cli.sympy_imported": metric(int(proc.stdout), "count"),
    }


def traced(args, wl):
    """Round 0 with every operation run untraced and traced back to back (in
    alternating order, for the overhead; a known fault only traced), then
    traced rounds until the traced operations took --seconds."""
    wl.setup()
    probes = cli_probes()
    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    speed = probe_for(wl)
    plain, tally = Tally(speed), Tally(speed)
    for k, op in enumerate(wl.round(0)):
        order = (True,) if op.fault else (False, True) if k % 2 == 0 else (True, False)
        for traced_now in order:
            if traced_now:
                _tracing(wl, tracer, True)
                run_op(wl, op, f"0.{k}", tally, tracer)
                _tracing(wl, tracer, False)
            else:
                run_op(wl, op, f"0.{k}", plain)
    overhead = _passing_time(tally) / _passing_time(plain) - 1
    _tracing(wl, tracer, True)
    run_loop(wl, args.seconds, tally, tracer, first_round=1)
    _tracing(wl, tracer, False)
    speed.sample(WINDOW)
    tracer.dump(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl")
    ops = tally.attempted
    metrics = dict(probes)
    metrics.update(layer_metrics(tracer.spans, ops, speed))
    metrics["trace.overhead_pct"] = metric(100 * overhead, "%")
    notes = {"untraced_round_s": _passing_time(plain), "samples": ops,
             "failures": tally.failures}
    tally.problems += plain.problems
    return tally, metrics, notes


def _tracing(wl, tracer, on):
    """Route the workload's calls through the tracer, or stop doing so."""
    if wl.in_children:
        wl.tracer = tracer if on else None
    elif on:
        tracer.install()
    else:
        tracer.uninstall()


def _passing_time(tally):
    return sum(x for x in tally.latencies if x is not None)


# -- entry point -------------------------------------------------------------------------


def report(wl, tally, metrics, notes):
    print(f"# {wl.name}: {json.dumps(notes, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for p in tally.problems[:20]:
        print(f"# PROBLEM {p}")
    return {"correct": not tally.problems, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def quick():
    """Every workload on a few inputs, with every check on."""
    ok = True
    for cls in WORKLOADS.values():
        wl = cls(1, quick=True)
        wl.setup()
        tally = Tally()
        run_round(wl, 0, tally)
        print(f"{wl.name}: {tally.attempted} ops, failures {tally.failures}, "
              f"{len(tally.problems)} problems")
        for p in tally.problems:
            print(f"  {p}")
        ok = ok and not tally.problems and tally.attempted > tally.failed
    return 0 if ok else 1


def pin_to_one_cpu():
    """Keep this process, its host-speed samples and its children on one CPU,
    so that the samples see the CPU the operations run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "topzeta" / "__init__.py").is_file():
        print("bench: no src/topzeta here; run from the root of a topzeta checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required")
    pin_to_one_cpu()
    wl = WORKLOADS[args.workload](args.seed, quick=False)
    tally, metrics, notes = (traced if args.trace else end_to_end)(args, wl)
    result = report(wl, tally, metrics, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
