"""Seeded inputs of the three workloads, with what the oracles expect of each.

A round is the fixed list of operations one workload repeats; the seed and
the round number pick the coefficients, the variable order and the order of
the list, never which operations it holds, so every round of every run does
the same kinds of work and fails the same operations.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import oracle

BUNDLED = "src/topzeta/data/resolutions"
BUNDLED_DOCS = (
    "cusp_global.json",
    "monomial_n3_N2.json",
    "monomial_n5_N6.json",
    "synthetic_order6.json",
)


def rng_for(seed, round_no, what):
    return random.Random(f"{what}:{seed}:{round_no}")


# -- plane-curve germs -------------------------------------------------------------


def _monomial(c, i, j):
    body = "*".join(
        f"{v}^{e}" if e > 1 else v for v, e in (("x", i), ("y", j)) if e
    )
    mag = abs(c)
    if not body:
        return str(mag)
    return body if mag == 1 else f"{mag}*{body}"


def _text(f):
    out = ""
    for (i, j), c in sorted(f.items(), key=lambda t: (-t[0][0] - t[0][1], t[0])):
        piece = _monomial(c, i, j)
        out += ("-" if c < 0 else "+") + piece if out else ("-" if c < 0 else "") + piece
    return out


class Germ:
    """A germ given as a product of factors, each {(i, j): coefficient}."""

    def __init__(self, family, factors, pipeline="both", nonreduced=False, fault=None):
        self.family = family
        self.factors = factors
        self.pipeline = pipeline        # "both" for non-degenerate germs, else "blowup"
        self.nonreduced = nonreduced
        self.fault = fault              # name of the known fault that makes it fail
        self.brieskorn = None           # (a, b) with gcd 1, for the closed form
        self.given_text = None          # the text as written, for fixed germs

    @property
    def terms(self):
        out = {(0, 0): 1}
        for f in self.factors:
            out = oracle.bivariate_mul(out, f)
        return out

    @property
    def text(self):
        if self.given_text:
            return self.given_text
        if len(self.factors) == 1:
            return _text(self.factors[0])
        return "*".join(f"({_text(f)})" if len(f) > 1 else _text(f) for f in self.factors)

    def swapped(self):
        g = Germ(
            self.family,
            [{(j, i): c for (i, j), c in f.items()} for f in self.factors],
            self.pipeline, self.nonreduced, self.fault,
        )
        g.brieskorn = self.brieskorn and self.brieskorn[::-1]
        g.given_text = self.given_text and self.given_text.translate(_SWAP)
        return g


_SWAP = str.maketrans("xy", "yx")


def binomial(c1, e1, c2, e2):
    return {e1: c1, e2: c2}


def brieskorn(a, b, c1=1, c2=1):
    g = Germ(f"brieskorn-{a}-{b}", [binomial(c1, (a, 0), c2, (0, b))])
    if gcd(a, b) == 1:
        g.brieskorn = (a, b)
    return g


COPRIME = ((2, 3), (3, 4), (2, 7), (3, 5), (5, 7), (7, 11), (11, 13), (13, 17),
           (19, 23), (31, 47), (61, 97))
NOT_COPRIME = ((4, 6), (6, 9), (8, 12), (12, 18), (16, 24), (20, 30), (40, 40))
TALL = (10, 25, 50, 100)
BRANCHES = (
    ((2, 3), (3, 2)),
    ((2, 5), (5, 2)),
    ((2, 3), (3, 5)),
    ((2, 3), (3, 5), (5, 7)),
    ((1, 2), (2, 5), (3, 7)),
    ((2, 3), (3, 5), (5, 7), (7, 11)),
)
ORDINARY = (2, 3, 5, 8, 12, 16)
DEGENERATE = (
    "(y^2-x^3)^2-4*x^5*y-x^7",
    "(y^2-x^3)^2+x^7",
    "(y^3-x^2)^2-x^3*y^4",
    "(y^2-x^3)*(y^2-x^3-x^4)",
    "(y^2-x^2)^2-x^5",
)
# a round makes three passes over the germs that pass, so that a latency
# percentile rests on several samples of the germs it falls among (one costly
# germ's time scatters by a fifth from sample to sample); a known fault runs
# once, since a repeat shows nothing new and a stopped operation costs the
# whole limit
PASSES = 3
# germs that fail by a known fault of the program, with the exception they
# fail with: an orbit of degree 2 needs a blowup, and two bivariate
# factorizations take far longer than one operation may
FAULTY = (
    ("(y^2-2*x^2)^2+x^5", "IrrationalCenter"),
    ("(x^2-y^3)*(x^3-y^5)*(x^5-y^7)*(x^7-y^11)*(x^11-y^13)*(x-y^17)", "OpTimeout"),
    ("x^200+y^200", "OpTimeout"),
)


def parse_germ(text):
    """Terms of a germ written with integers, x, y, +, -, *, ^ and parentheses."""
    return _Parse(text.replace(" ", "")).expr()


class _Parse:
    def __init__(self, s):
        self.s, self.i = s, 0

    def peek(self):
        return self.s[self.i] if self.i < len(self.s) else ""

    def number(self):
        j = self.i
        while self.peek().isdigit():
            self.i += 1
        return int(self.s[j:self.i])

    def expr(self):
        total, sign = {}, 1
        if self.peek() == "-":
            self.i, sign = self.i + 1, -1
        while True:
            for k, v in self.product().items():
                total[k] = total.get(k, 0) + sign * v
            if self.peek() not in "+-" or not self.peek():
                return {k: v for k, v in total.items() if v}
            sign = 1 if self.peek() == "+" else -1
            self.i += 1

    def product(self):
        out = self.power()
        while self.peek() == "*":
            self.i += 1
            out = oracle.bivariate_mul(out, self.power())
        return out

    def power(self):
        if self.peek() == "(":
            self.i += 1
            base = self.expr()
            self.i += 1  # ')'
        elif self.peek().isdigit():
            base = {(0, 0): self.number()}
        else:
            base = {(1, 0) if self.peek() == "x" else (0, 1): 1}
            self.i += 1
        exp = 1
        if self.peek() == "^":
            self.i += 1
            exp = self.number()
        out = {(0, 0): 1}
        for _ in range(exp):
            out = oracle.bivariate_mul(out, base)
        return out


def fixed(family, text, **kw):
    g = Germ(family, [parse_germ(text)], **kw)
    g.given_text = text
    return g


def germ_round(seed, round_no, quick=False):
    """The germ ladder: PASSES passes over the germs that pass, each with its
    own seeded choices, then each known fault once, in seeded order."""
    rng = rng_for(seed, round_no, "germ-ladder")
    germs = [g for _ in range(1 if quick else PASSES) for g in _germ_pass(rng)]
    for k, (text, fault) in enumerate(FAULTY):
        pipeline = "blowup" if fault == "IrrationalCenter" else "both"
        germs.append(fixed(f"faulty-{k + 1}", text, pipeline=pipeline, fault=fault))
    if quick:
        keep = {"brieskorn-2-3", "branches-2", "ordinary-3", "degenerate-1",
                "nonreduced-3", "faulty-1"}
        germs = [g for g in germs if g.family in keep]
    rng.shuffle(germs)
    return germs


def _germ_pass(rng):
    """One pass of the ladder.  The seed picks four small Brieskorn exponents,
    the signs of the coprime Brieskorn and tall germs, the lines of the
    smaller ordinary points and which cheap germs have x and y swapped.
    Germs whose cost depends on these choices (a sign or a swap can double
    the time of one bivariate factorization) are kept as written."""
    cheap, costly = [], []
    small = []
    while len(small) < 4:
        a = rng.randrange(2, 13)
        b = rng.randrange(a + 1, 17)
        if gcd(a, b) == 1 and (a, b) not in COPRIME and (a, b) not in small:
            small.append((a, b))
    for a, b in COPRIME + tuple(small):
        if a * b > 1000:
            costly.append(brieskorn(a, b))
        else:
            cheap.append(brieskorn(a, b, 1, rng.choice((1, -1))))
    for a, b in NOT_COPRIME:
        (costly if a * b > 400 else cheap).append(brieskorn(a, b))
    for a in TALL:
        g = brieskorn(a, 3, 1, 1 if a > 25 else rng.choice((1, -1)))
        g.family = f"tall-{a}"
        (costly if a > 25 else cheap).append(g)
    for pairs in BRANCHES:
        g = Germ(f"branches-{len(pairs)}", [binomial(1, (p, 0), -1, (0, q)) for p, q in pairs])
        (costly if len(pairs) > 3 else cheap).append(g)
    for m in ORDINARY:
        slopes = (rng.sample([c for c in range(-2 * m, 2 * m + 1) if c], m) if m < 10 else
                  [k * (-1) ** k for k in range(1, m + 1)])
        g = Germ(f"ordinary-{m}", [binomial(1, (0, 1), -c, (1, 0)) for c in slopes])
        (costly if m >= 10 else cheap).append(g)
    for k, text in enumerate(DEGENERATE):
        cheap.append(fixed(f"degenerate-{k + 1}", text, pipeline="blowup"))
    cheap += [
        fixed("nonreduced-1", "x^2*y", nonreduced=True),
        fixed("nonreduced-2", "x^3*y^2*(x^2-y^3)", nonreduced=True),
        fixed("nonreduced-3", "(x^2-y^3)^2*(x+y)", pipeline="blowup", nonreduced=True),
        fixed("nonreduced-4", "(y-x^2)^2*(y+x^2)", pipeline="blowup", nonreduced=True),
        fixed("nonreduced-5", "y^2*(y-x^3)", nonreduced=True),
    ]
    return [g.swapped() if rng.random() < 0.5 else g for g in cheap] + costly


def germ_expectation(g):
    """What the oracles say about a germ's report; None entries are unchecked."""
    f = g.terms
    nondegenerate = oracle.is_nondegenerate(f)
    if nondegenerate != (g.pipeline == "both"):
        raise AssertionError(f"{g.text}: pipeline choice disagrees with the Newton polygon")
    exp = {"dim": 2, "local": True, "unit_at_zero": True, "curve": True,
           "zeta": None, "lct": None, "mu": None}
    if nondegenerate:
        exp["zeta"] = oracle.denef_loeser_zeta(f)
        exp["lct"] = oracle.newton_lct(f)
        if oracle.is_convenient(f):
            exp["mu"] = oracle.kouchnirenko_mu(f)
    if g.brieskorn:
        a, b = g.brieskorn
        exp["closed_form"] = oracle.brieskorn_zeta(a, b)
        exp["closed_lct"] = oracle.brieskorn_lct(a, b)
    return exp


# -- resolution documents ---------------------------------------------------------

# factor germs of the product documents, all non-degenerate, so the oracle
# knows each factor's Z from its Newton polygon; the comment gives the
# order-2 pole the factor carries, if any
PRODUCT_FACTORS = {
    "node": ["x*y"],                                     # -1
    "twin": ["x-y^2", "x^2-y"],                          # -1
    "cross23": ["x^2-y^3", "x^3-y^2"],                   # -1/2
    "cross25": ["x^2-y^5", "x^5-y^2"],                   # -1/2
    "chain4": ["x^2-y^3", "x^3-y^5", "x^5-y^7", "x^7-y^11"],  # -1/10
    "cusp": ["x^2+y^3"],
    "b7-11": ["x^7+y^11"],
    "lines4": ["y-x", "y-2*x", "y-3*x", "y+x"],
    "square": ["x^2*y^2"],                               # -1/2, non-reduced
}
PRODUCTS = (
    ("cross23", "cross23"),
    ("cross23", "cross25"),
    ("cross25", "cross25"),
    ("b7-11", "cusp"),
    ("b7-11", "b7-11"),
    ("lines4", "b7-11"),
    ("chain4", "cusp"),
    ("chain4", "node"),
    ("node", "node", "twin"),
    ("square", "cross23", "cross25"),
    ("square", "square", "cross25"),
    ("cusp", "cusp", "cusp"),
    ("node", "cross23", "cross25"),
    ("cusp", "b7-11", "lines4"),
    ("cusp", "cross25", "lines4"),
    ("cross23", "cross23", "node"),
)
MONOMIAL_N = (2, 4, 6, 8, 10, 12)


def product_factors(resolve):
    """{name: (resolution document, Z from the Newton polygon, lct)} of the
    factor germs; ``resolve(germ)`` is the program's curve pipeline, run
    once per factor at set-up."""
    out = {}
    for name, texts in PRODUCT_FACTORS.items():
        g = Germ(name, [parse_germ(t) for t in texts], nonreduced=name == "square")
        f = g.terms
        out[name] = (resolve(g), oracle.denef_loeser_zeta(f), oracle.newton_lct(f))
    return out


def product_document(parts):
    """Resolution document of f_1(x_1) ... f_k(x_k) from curve resolutions of the
    factors: components side by side, strata the products of the factors'
    strata with Euler characteristics multiplied.  The strata are listed in
    sorted order, as ``formats.resolution_to_json`` writes them: the cost of
    today's zeta sum depends on their order by up to a factor of three."""
    components, strata = [], [((), 1, 1)]
    for k, (rd_doc, _) in enumerate(parts):
        tag = f"f{k + 1}."
        components += [dict(c, id=tag + c["id"]) for c in rd_doc["components"]]
        strata = [
            (ids + tuple(tag + i for i in st["ids"]),
             chi_t * st.get("chi_total", 0), chi_o * st.get("chi_origin", 0))
            for ids, chi_t, chi_o in strata
            for st in rd_doc["strata"]
        ]
    strata = sorted(
        ({"ids": sorted(ids), "chi_total": t, "chi_origin": o} for ids, t, o in strata if t or o),
        key=lambda st: st["ids"],
    )
    return {
        "schema": 1,
        "scope": "local",
        "ambient_dim": 2 * len(parts),
        "components": components,
        "strata": strata,
        "metadata": {"isolated": "no", "name": " x ".join(n for _, n in parts)},
    }


def monomial_document(n, N):
    ids = [f"A{i + 1}" for i in range(n)]
    return {
        "schema": 1,
        "scope": "local",
        "ambient_dim": n,
        "components": [{"id": i, "N": N, "nu": 1} for i in ids],
        "strata": [{"ids": ids, "chi_total": 1, "chi_origin": 1}],
        "branch_ids": ids,
        "metadata": {"isolated": "no", "name": f"monomial n={n} N={N}"},
    }


def doc_round(seed, round_no, factors, quick=False):
    """[(name, JSON text, expectation)] for one round of product-docs; the
    seed picks the monomial exponents and the order of the documents."""
    rng = rng_for(seed, round_no, "product-docs")
    out = []
    products = (PRODUCTS[0], PRODUCTS[8]) if quick else PRODUCTS
    for names in products:
        doc = product_document([(factors[n][0], n) for n in names])
        zeta = factors[names[0]][1]
        for n in names[1:]:
            zeta = zeta * factors[n][1]
        exp = {"dim": doc["ambient_dim"], "local": True, "unit_at_zero": True,
               "curve": False, "zeta": zeta, "mu": None,
               "lct": min(factors[n][2] for n in names)}
        out.append((doc["metadata"]["name"], json.dumps(doc), exp))
    for n in MONOMIAL_N[:2] if quick else MONOMIAL_N:
        N = rng.randrange(1, 9)
        exp = {"dim": n, "local": True, "unit_at_zero": True, "curve": False,
               "zeta": oracle.monomial_zeta(n, N), "lct": Fraction(1, N), "mu": None}
        out.append((f"monomial n={n} N={N}", json.dumps(monomial_document(n, N)), exp))
    for name, text in bundled_documents():
        out.append((name, text, bundled_expectation(name, json.loads(text))))
    rng.shuffle(out)
    return out


def bundled_documents():
    return [(name, (Path(BUNDLED) / name).read_text()) for name in BUNDLED_DOCS]


def bundled_expectation(name, doc):
    """cusp_global is the cusp read globally: the Brieskorn (2, 3) closed form;
    the monomial documents have their closed form; synthetic_order6 is not
    the resolution of a germ, so only the defining sum applies to it."""
    exp = {"dim": doc["ambient_dim"], "local": doc["scope"] == "local",
           "unit_at_zero": False, "curve": False, "mu": None}
    if name == "cusp_global.json":
        exp.update(zeta=oracle.brieskorn_zeta(2, 3), lct=oracle.brieskorn_lct(2, 3))
    elif name.startswith("monomial_"):
        n, N = (int(p[1:]) for p in name[:-5].split("_")[1:])
        exp.update(zeta=oracle.monomial_zeta(n, N), lct=Fraction(1, N), unit_at_zero=True)
    else:
        exp.update(zeta=oracle.document_zeta(doc, doc["scope"]), lct=None)
    return exp


# -- cli-cold ------------------------------------------------------------------------

CLI_GERMS = (
    ("x^2+{c}*y^3", "both"),
    ("x^7+{c}*y^11", "both"),
    ("(x^2-{c}*y^3)*(x^3-{c}*y^2)", "both"),
    ("(y-x)*(y-2*x)*(y+{c}*x)", "both"),
    ("x^4+{c}*y^6", "both"),
    ("x^10+{c}*y^3", "both"),
    ("x^3+{c}*y^5", "both"),
    ("(x^2-{c}*y^5)*(x^5-{c}*y^2)", "both"),
    ("(y^2-x^3)^2+x^7", "blowup"),
    ("(y^2-x^3)^2-4*x^5*y-x^7", "blowup"),
)
CLI_EXPLAIN = ("x^2+{c}*y^3", "(x^2-{c}*y^5)*(x^5-{c}*y^2)", "x^5+{c}*y^7",
               "(y-x)*(y-2*x)*(y-3*x)*(y+{c}*x)", "x^4+{c}*y^6")


def cli_round(seed, round_no, quick=False):
    """[(argv after 'python -m topzeta', kind, expectation)] for one round."""
    rng = rng_for(seed, round_no, "cli-cold")
    out = []
    germs = CLI_GERMS[:2] + CLI_GERMS[-1:] if quick else CLI_GERMS
    for template, pipeline in germs:
        g = fixed("cli", template.format(c=rng.choice((1, 2, 3, 5, 7))), pipeline=pipeline)
        argv = ["zeta", "--poly", g.text, "--pipeline", pipeline, "--format", "machine"]
        out.append((argv, "report", germ_expectation(g)))
    for name in BUNDLED_DOCS[:2] if quick else BUNDLED_DOCS:
        path = f"{BUNDLED}/{name}"
        doc = json.loads(Path(path).read_text())
        argv = ["zeta", "--file", path, "--pipeline", "file", "--format", "machine",
                "--scope", doc["scope"]]
        out.append((argv, "report", bundled_expectation(name, doc)))
    for template in CLI_EXPLAIN[:1] if quick else CLI_EXPLAIN:
        g = fixed("cli", template.format(c=rng.choice((1, 2, 3, 5, 7))))
        out.append((["explain", "--poly", g.text], "explain", germ_expectation(g)))
    out.append((["corpus", "--format", "machine"], "corpus", None))
    rng.shuffle(out)
    return out
