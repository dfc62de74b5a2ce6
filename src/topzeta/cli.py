"""Command-line surface: the ``zeta``, ``corpus`` and ``explain`` subcommands.

Exit codes: 0 success, 1 invalid input or corpus mismatch, 2 theorem
violation (an order-n pole with an impossible shape -- either corrupt data or
a genuine counterexample; never swallowed).  Machine-format output is
deterministic byte-for-byte across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import formats
from .analysis import (
    acampo_zeta,
    check_conjecture2,
    check_conjecture3,
    check_conjecture4,
    max_order_pole_report,
    monodromy_eigenvalues_germ,
)
from .curve_resolution import resolve_curve_state, resolution_data
from .errors import TheoremViolation, TopZetaError
from .polynomial import (
    germ_factors,
    is_nondegenerate_curve,
    newton_polygon_local,
    parse_poly,
)
from .toric_curve import dual_fan, toric_resolution_data, unimodular_subdivide
from .zeta_core import poles, zeta_global, zeta_local

DEFAULT_CORPUS = "data/corpus.json"


class InputError(TopZetaError):
    """Invalid command-line input; maps to exit code 1."""


# -- single-input analysis ------------------------------------------------------


def analyze_rd(rd, isolated: str, history=None, b_roots=None):
    """All derived values for one resolution data set."""
    z = zeta_global(rd) if rd.scope == "global" else zeta_local(rd)
    pt = poles(z, rd)
    prediction = max_order_pole_report(pt, rd, isolated=isolated)
    lct = prediction.lct
    eigen = monodromy_eigenvalues_germ(rd)
    return {
        "rd": rd,
        "zeta": z,
        "poles": pt,
        "lct": lct,
        "prediction": prediction,
        "acampo": acampo_zeta(rd),
        "eigenvalues": eigen,
        "conjecture3": check_conjecture3(pt, eigen),
        "conjecture4": check_conjecture4(pt, rd.ambient_dim, lct),
        "conjecture2": (
            check_conjecture2(z, b_roots) if b_roots is not None else None
        ),
        "history": history,
    }


def analyze_poly(text: str, pipeline: str, allow_nonreduced=False, b_roots=None):
    """Run the requested pipelines on a two-variable polynomial germ given as
    text; returns the parsed germ and the results."""
    f = parse_poly(text)
    return f, analyze_germ(f, pipeline, allow_nonreduced, b_roots)


def resolve_germ(f, pipeline: str, allow_nonreduced=False):
    """Resolve a parsed two-variable germ by the requested pipelines.

    Every pipeline needs a reduced germ unless ``allow_nonreduced`` is set.
    Returns the isolated flag and {pipeline: (resolution data, blowup state
    or None)}."""
    # one squarefree decomposition checks the germ and serves the reducedness
    # test and the blowups
    parts = germ_factors(f)
    reduced = all(m == 1 for _, m in parts)
    if not reduced and not allow_nonreduced:
        raise InputError(
            "germ is not reduced (a repeated factor passes through the origin); "
            "rerun with --allow-nonreduced to accept it"
        )
    # toric first: it raises Degenerate at once, where the blowups may run long
    wanted = ["toric", "blowup"] if pipeline == "both" else [pipeline]
    resolved = {}
    for name in wanted:
        if name == "blowup":
            state = resolve_curve_state(
                f, allow_nonreduced=allow_nonreduced, parts=parts
            )
            resolved[name] = (resolution_data(state), state)
        elif name == "toric":
            resolved[name] = (toric_resolution_data(f), None)
        else:
            raise InputError(f"pipeline {name!r} needs --file input")
    # reports list "blowup" before "toric"
    return ("yes" if reduced else "no"), dict(sorted(resolved.items()))


def analyze_germ(f, pipeline: str, allow_nonreduced=False, b_roots=None):
    """Run the requested pipelines on a parsed two-variable germ."""
    isolated, resolved = resolve_germ(f, pipeline, allow_nonreduced)
    return {
        name: analyze_rd(rd, isolated, state and state.numerical_history(), b_roots)
        for name, (rd, state) in resolved.items()
    }


def analyze_file(path: str, assert_isolated=False, b_roots=None):
    rd, metadata = formats.load_resolution_file(path)
    isolated = metadata.get("isolated", "unknown")
    if isolated not in ("yes", "no", "unknown"):
        raise InputError(f"metadata isolated={isolated!r} must be yes/no/unknown")
    if assert_isolated:
        isolated = "yes"
    return metadata, {"file": analyze_rd(rd, isolated, b_roots=b_roots)}


# -- report rendering -------------------------------------------------------------


def result_to_json(res) -> dict:
    doc = {
        "zeta": formats.zeta_to_json(res["zeta"]),
        "zeta_text": str(res["zeta"]),
        "poles": formats.poles_to_json(res["poles"]),
        "lct": formats.rational_to_json(res["lct"]),
        "prediction": formats.prediction_to_json(res["prediction"]),
        "monodromy_zeta": [[m, e] for m, e in res["acampo"].factors],
        "eigenvalues": [
            {"num": k, "den": d} for k, d in res["eigenvalues"].pairs()
        ],
        "conjecture3": [
            [formats.rational_to_json(loc), status]
            for loc, status in res["conjecture3"].results
        ],
        "conjecture4": {
            "at_most_one": res["conjecture4"].at_most_one,
            "closest_when_present": res["conjecture4"].closest_when_present,
            "equals_minus_lct": res["conjecture4"].equals_minus_lct,
            "passed": res["conjecture4"].passed(),
        },
        "conjecture2": res["conjecture2"],
        "scope": res["rd"].scope,
    }
    if res["history"] is not None:
        doc["blowup_history"] = [list(step) for step in res["history"]]
    return doc


def report_to_json(source: dict, results: dict) -> dict:
    doc = {
        "schema": formats.SCHEMA_VERSION,
        "input": source,
        "results": {name: result_to_json(res) for name, res in results.items()},
    }
    if {"blowup", "toric"} <= set(results):
        doc["agreement"] = (
            results["blowup"]["zeta"] == results["toric"]["zeta"]
            and results["blowup"]["lct"] == results["toric"]["lct"]
        )
    return doc


def render_human(source: dict, results: dict) -> str:
    lines = []
    what = source.get("poly") or source.get("file")
    lines.append(f"input: {what}")
    for name, res in results.items():
        lines.append(f"[{name}] scope={res['rd'].scope}")
        lines.append(f"  Z      = {res['zeta']}")
        pole_txt = ", ".join(
            f"({p.location}, order {p.order})" for p in res["poles"]
        ) or "none"
        lines.append(f"  poles  = {pole_txt}")
        lines.append(f"  lct    = {res['lct']}")
        pred = res["prediction"]
        if pred.has_max_order_pole():
            lines.append(
                f"  maximal-order pole at {pred.s0} (N = {pred.N}); "
                f"eigenvalue chain exp(2*pi*i*(-j/{pred.N})), j = 1..{pred.N}"
            )
            if pred.divisor_roots:
                div = ", ".join(f"({r})^{m}" for r, m in pred.divisor_roots)
                lines.append(f"  predicted b-function divisor roots: {div}")
            else:
                lines.append("  b-function divisor withheld (isolatedness not established)")
        else:
            lines.append(f"  no pole of maximal order {pred.n}")
        lines.append(f"  monodromy zeta = {res['acampo']}")
        c3 = "; ".join(f"{loc}: {status}" for loc, status in res["conjecture3"].results)
        lines.append(f"  conjecture 3: {c3 or 'no poles'}")
        c4 = res["conjecture4"]
        lines.append(
            "  conjecture 4: "
            + ("PASS" if c4.passed() else "FAIL")
            + (" (vacuous)" if not c4.order_n_locations else "")
        )
        if res["conjecture2"] is not None:
            lines.append(
                "  conjecture 2 against supplied b-roots: "
                + ("holds" if res["conjecture2"] else "VIOLATED")
            )
    if {"blowup", "toric"} <= set(results):
        agree = results["blowup"]["zeta"] == results["toric"]["zeta"]
        lines.append(
            "pipelines agree on Z: " + ("yes" if agree else "NO -- INVESTIGATE")
        )
    return "\n".join(lines) + "\n"


# -- corpus -----------------------------------------------------------------------


def corpus_path_default() -> str:
    return os.path.join(os.path.dirname(__file__), DEFAULT_CORPUS)


def load_corpus(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    formats._check_fields(doc, ("schema", "entries"), (), "corpus")
    if doc["schema"] != formats.SCHEMA_VERSION:
        raise InputError(f"unsupported corpus schema {doc['schema']!r}")
    return doc


def evaluate_entry(entry: dict):
    """Compute the actual values for one corpus entry; returns (pipelines,
    zeta, lct, poles, conj2 or None)."""
    b_roots = None
    if "b_roots" in entry:
        b_roots = [
            (formats.rational_from_json(r), int(m)) for r, m in entry["b_roots"]
        ]
    source = entry["input"]
    if "poly" in source:
        f = parse_poly(source["poly"])
        pipeline = "both" if is_nondegenerate_curve(f) else "blowup"
        results = analyze_germ(
            f,
            pipeline,
            allow_nonreduced=entry.get("allow_nonreduced", False),
            b_roots=b_roots,
        )
    else:
        rd, metadata = formats.resolution_from_json(source["resolution"])
        isolated = metadata.get("isolated", "unknown")
        results = {"file": analyze_rd(rd, isolated, b_roots=b_roots)}
    names = sorted(results)
    zetas = {name: results[name]["zeta"] for name in names}
    first = zetas[names[0]]
    if any(z != first for z in zetas.values()):
        raise TheoremViolation(
            f"pipelines disagree on {entry['name']}: "
            + ", ".join(f"{n}: {z}" for n, z in zetas.items())
        )
    res = results[names[0]]
    return names, res


def expected_to_json(names, res) -> dict:
    return {
        "pipelines": names,
        "zeta": formats.zeta_to_json(res["zeta"]),
        "lct": formats.rational_to_json(res["lct"]),
        "poles": formats.poles_to_json(res["poles"]),
    }


def check_entry(entry: dict):
    """Compare one corpus entry against its frozen expected values; returns a
    list of mismatch descriptions (empty = pass)."""
    mismatches = []
    names, res = evaluate_entry(entry)
    expected = entry.get("expected")
    if not expected:
        return ["entry has no frozen expected values (run corpus --bless)"]
    got = expected_to_json(names, res)
    for key in ("pipelines", "zeta", "lct", "poles"):
        if got[key] != expected.get(key):
            mismatches.append(
                f"{key}: expected {json.dumps(expected.get(key), sort_keys=True)}, "
                f"got {json.dumps(got[key], sort_keys=True)}"
            )
    if res["conjecture2"] is False:
        mismatches.append("conjecture 2 fails against the supplied b-function roots")
    return mismatches


def cmd_corpus(args) -> int:
    path = args.corpus or corpus_path_default()
    doc = load_corpus(path)
    entries = doc["entries"]
    if args.bless:
        for entry in entries:
            names, res = evaluate_entry(entry)
            entry["expected"] = expected_to_json(names, res)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(formats.dump_pretty(doc))
        print(f"blessed {len(entries)} entries into {path}")
        return 0

    results = []
    passed = 0
    for entry in entries:
        mismatches = check_entry(entry)
        status = "pass" if not mismatches else "fail"
        passed += status == "pass"
        results.append(
            {"name": entry["name"], "status": status, "mismatches": mismatches}
        )
    summary = {
        "schema": formats.SCHEMA_VERSION,
        "total": len(entries),
        "passed": passed,
        "results": results,
    }
    if args.format == "machine":
        sys.stdout.write(formats.dump_canonical(summary))
    else:
        for r in results:
            print(f"{r['status'].upper():4s} {r['name']}")
            for m in r["mismatches"]:
                print(f"     {m}")
        print(f"{passed}/{len(entries)} corpus entries pass")
    return 0 if passed == len(entries) else 1


# -- zeta and explain ------------------------------------------------------------


def _input_source(args):
    if bool(args.poly) == bool(args.file):
        raise InputError("exactly one of --poly or --file is required")
    return {"poly": args.poly} if args.poly else {"file": args.file}


def cmd_zeta(args) -> int:
    source = _input_source(args)
    if args.poly:
        if args.scope == "global":
            raise InputError(
                "global zeta functions need user-supplied resolution data "
                "(--file); polynomial pipelines are local"
            )
        if args.pipeline == "file":
            raise InputError("--pipeline file needs --file input")
        _, results = analyze_poly(
            args.poly, args.pipeline, allow_nonreduced=args.allow_nonreduced
        )
    else:
        if args.pipeline not in ("file", "both"):
            raise InputError("--file input implies --pipeline file")
        _, results = analyze_file(args.file, assert_isolated=args.assert_isolated)
        scope = results["file"]["rd"].scope
        if scope != args.scope:
            raise InputError(
                f"file has scope {scope!r} but --scope {args.scope} was requested"
            )
    if args.format == "machine":
        sys.stdout.write(formats.dump_canonical(report_to_json(source, results)))
    else:
        sys.stdout.write(render_human(source, results))
    return 0


def cmd_explain(args) -> int:
    f = parse_poly(args.poly)
    _, resolved = resolve_germ(f, args.pipeline, args.allow_nonreduced)
    lines = [f"input: {args.poly}"]
    if "blowup" in resolved:
        rd, state = resolved["blowup"]
        if not state.history:
            lines.append("blowup: germ is smooth, identity resolution, 0 steps")
        else:
            lines.append(f"blowup: {len(state.history)} steps")
            for step in state.history:
                through = (
                    " through " + " and ".join(step.parents) if step.parents else ""
                )
                lines.append(
                    f"  step {step.index}: center {step.center}{through}, "
                    f"strict multiplicity {step.multiplicity} "
                    f"-> {step.component_id} with (N, nu) = ({step.N}, {step.nu})"
                )
        lines.extend(_strata_lines(rd))
    if "toric" in resolved:
        rd, _ = resolved["toric"]
        fan = unimodular_subdivide(dual_fan(newton_polygon_local(f)))
        lines.append("toric: subdivided dual fan rays (vector, N, sigma)")
        for ray in fan.rays:
            tag = "original" if ray.original else "inserted"
            lines.append(
                f"  {ray.vector}: N = {ray.N}, sigma = {ray.sigma} [{tag}]"
            )
        lines.extend(_strata_lines(rd))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _strata_lines(rd):
    lines = ["  components (id, N, nu):"]
    for c in rd.components:
        lines.append(f"    {c.id}: ({c.N}, {c.nu})")
    lines.append("  strata (ids, chi_total, chi_origin):")
    for st in sorted(rd.strata, key=lambda st: (len(st.ids), sorted(st.ids))):
        lines.append(
            f"    {{{', '.join(sorted(st.ids))}}}: ({st.chi_total}, {st.chi_origin})"
        )
    return lines


# -- argument parsing ---------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 (invalid input), because 2 is
    reserved for theorem violations.  The token after ``--poly`` (or its
    abbreviation ``--po``, ``--pol``) is always its value, so a germ such as
    ``-x^2-y^3`` is not read as an option."""

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        i = 0
        while i < len(args) - 1:
            if args[i].startswith("--po") and "--poly".startswith(args[i]):
                args[i : i + 2] = [f"--poly={args[i + 1]}"]
            i += 1
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="topzeta",
        description=(
            "Exact local and global topological zeta functions of hypersurface "
            "singularities, with pole analysis and conjecture checkers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    zeta = sub.add_parser("zeta", help="compute Z, poles, lct and predictions")
    zeta.add_argument("--poly", help="two-variable germ in x, y, e.g. 'x^2 + y^3'")
    zeta.add_argument("--file", help="resolution-data JSON document")
    zeta.add_argument(
        "--pipeline", choices=["blowup", "toric", "both", "file"], default="both"
    )
    zeta.add_argument("--scope", choices=["local", "global"], default="local")
    zeta.add_argument("--format", choices=["human", "machine"], default="human")
    zeta.add_argument("--allow-nonreduced", action="store_true")
    zeta.add_argument(
        "--assert-isolated", action="store_true",
        help="assert the isolated-singularity hypothesis for file data",
    )
    zeta.set_defaults(func=cmd_zeta)

    corpus = sub.add_parser("corpus", help="run the frozen regression corpus")
    corpus.add_argument("--corpus", help="corpus JSON path (default: bundled)")
    corpus.add_argument("--format", choices=["human", "machine"], default="human")
    corpus.add_argument(
        "--bless", action="store_true",
        help="recompute and freeze the expected values",
    )
    corpus.set_defaults(func=cmd_corpus)

    explain = sub.add_parser(
        "explain", help="print the resolution witness behind the zeta value"
    )
    explain.add_argument("--poly", required=True)
    explain.add_argument(
        "--pipeline", choices=["blowup", "toric", "both"], default="both"
    )
    explain.add_argument("--allow-nonreduced", action="store_true")
    explain.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TheoremViolation as exc:
        print(f"THEOREM VIOLATION: {exc}", file=sys.stderr)
        return 2
    except (TopZetaError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
