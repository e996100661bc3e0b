"""The benchmark's three workloads: inputs made from the seed, the call that
is timed for each item, and the check of each output against expectations
the package ships (never against values captured from a run).

An item is `Item(label, run, check)`: `run()` is the timed call and returns
the program's output; `check(output)` returns `(payload, problems)`, where
`payload` is the text the report digest covers and `problems` lists every
mismatch (empty when the output is correct).  Items come in chunks; chunk 0
is built during set-up and later chunks are built between items, outside
the timed calls.

All module functions are looked up at call time (`cli.scan_one`, not a
from-import) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable

from cremona_lab import cli, cremona, families, ideals
from cremona_lab.fields import GF, QQ
from cremona_lab.cremona import MapError
from cremona_lab.groebner import Budget
from cremona_lab.ideals import DegenerateInput, IdealHandle
from cremona_lab.poly import parse_poly, ring
from cremona_lab.rng import Rng, random_prime
from cremona_lab.acceptance import CONTROL_FIBER_DEGREES

FULL_REPORT_PRIME = 1000003

# Order of the strata in full_report.  A 30 s run completes the first
# thirteen (the sample prefix), which mix every bidegree, the ruled path,
# each Hudson point type (double point, binode, double contact point,
# contact point), a missing-row stratum (E3.5) and the multiplicity test that
# separates E13.  The trace corpus is all nineteen.
FULL_REPORT_ORDER = (
    "E7", "ruled_3_3", "E24", "E3.5", "E13", "E4", "E8", "E3", "E19",
    "ruled_3_2", "E9", "E23", "E12", "E2", "ruled_3_4", "E6", "E7.5", "E14",
    "ruled_3_5",
)

# criterion 9: the printed generators of J = I_C2 meet I_dpc for a2
A2_PRINTED_J = (
    "z0*z2^2 - z1*z2^2", "z0*z1*z2 - z1^2*z2", "z0^2*z2 - z1^2*z2",
    "2*z1^3 + z2^3 + z1^2*z3 - z0*z2*z3",
    "2*z0*z1^2 + z2^3 + z1^2*z3 - z0*z2*z3",
    "2*z0^2*z1 + z2^3 + z1^2*z3 - z0*z2*z3",
)

# what tests/test_cremona.py and tests/test_families.py assert for the two
# birational special examples
SPECIAL_BIRATIONAL = {
    "ruled-involution": {"bidegree": [3, 3], "ruled": True, "genus": 0,
                         "birational": "yes", "certificate": 1},
    "dJ-ruled": {"bidegree": [3, 3], "ruled": True, "genus": 0, "birational": "yes"},
}


@dataclass
class Item:
    label: str
    run: Callable
    check: Callable


def _text(obj) -> str:
    """The JSON text `cremona-lab` writes for a document."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _failing(label: str, exc: Exception) -> Item:
    """An item whose input could not be built: it fails when run."""
    def run():
        raise exc
    return Item(label, run, lambda out: ("", ["unreachable"]))


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}={got!r}, expected {want!r}")


def _liaison(problems: list, c1, c2) -> None:
    """deg C1 + deg C2 = 9 and deg C2 - deg C1 = p_a(C2) - p_a(C1)."""
    if c1[0] + c2[0] != 9:
        problems.append(f"liaison degree identity fails: C1={c1} C2={c2}")
    if c2[0] - c1[0] != c2[1] - c1[1]:
        problems.append(f"liaison genus identity fails: C1={c1} C2={c2}")


def _stratum_invariants(problems: list, label: str, rep: dict) -> None:
    """Bidegree, C2, genus and ruledness of a generic stratum member."""
    spec = families.EXPECTED[label]
    d = spec.bidegree[1]
    ruled = label.startswith("ruled_")
    _expect(problems, "bidegree", rep.get("bidegree"), list(spec.bidegree))
    _expect(problems, "ruled", rep.get("ruled"), ruled)
    # criterion 4: ruled maps have genus 0 and lose base degree, the others
    # have genus 1 and a base scheme of degree exactly 9 - d
    _expect(problems, "genus", rep.get("genus"), 0 if ruled else 1)
    deg1 = rep.get("deg1part")
    if ruled and not (isinstance(deg1, int) and deg1 < 9 - d):
        problems.append(f"deg1part={deg1!r}, expected < {9 - d}")
    if not ruled:
        _expect(problems, "deg1part", deg1, 9 - d)
        _expect(problems, "c2", rep.get("c2"), list(spec.c2))


class Workload:
    name = ""
    # Every untraced run completes at least this prefix of the item sequence;
    # the report digest is taken over it, so it covers the same items
    # whatever the run's item count.
    sample_items = 0
    trace_items = 0  # the fixed corpus of a traced run, at least sample_items

    def __init__(self, seed: int):
        self.seed = seed

    def chunk(self, c: int) -> list:
        raise NotImplementedError


class ScanInvariants(Workload):
    """`cremona-lab scan --level invariants`: round-robin over the strata
    with consecutive seeds and a fresh prime in (10^6, 2^31) per sample."""

    name = "scan_invariants"
    sample_items = 3 * len(families.FAMILY_LABELS)
    trace_items = sample_items

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rng = Rng(seed, "scan-primes")  # as cmd_scan draws its primes

    def chunk(self, c: int) -> list:
        labels = families.FAMILY_LABELS
        out = []
        for k in range(c * len(labels), (c + 1) * len(labels)):
            fam = labels[k % len(labels)]
            seed = self.seed + k
            prime = random_prime(self.rng.split(f"p{k}"))
            out.append(Item(f"{fam}/{seed}/{prime}",
                            lambda f=fam, s=seed, p=prime: cli.scan_one(f, s, p),
                            lambda rec, f=fam: self._check(f, rec)))
        return out

    @staticmethod
    def _check(label: str, rec: dict):
        problems = []
        if not rec.get("ok"):
            problems.append(f"scan error: {rec.get('error')}")
        else:
            _stratum_invariants(problems, label, rec)
        return json.dumps(rec, sort_keys=True), problems


class FullReport(Workload):
    """`cremona-lab analyze map.json --inverse` on map-v1 documents of every
    stratum, consecutive seeds, at the pinned prime."""

    name = "full_report"
    sample_items = 13
    trace_items = len(FULL_REPORT_ORDER)

    def chunk(self, c: int) -> list:
        n = len(FULL_REPORT_ORDER)
        field = GF(FULL_REPORT_PRIME)
        out = []
        for k in range(c * n, (c + 1) * n):
            label = FULL_REPORT_ORDER[k % n]
            seed = self.seed + k
            tag = f"{label}/{seed}"
            try:
                psi, spec = families.build(label, seed, field)
            except (DegenerateInput, MapError) as e:
                out.append(_failing(tag, e))
                continue
            doc = cli.map_to_document(psi, provenance={"family": label, "seed": seed,
                                                       "label": psi.label},
                                      expected=cli.spec_to_json(spec))
            out.append(Item(tag, lambda d=_text(doc), s=seed: self._analyze(d, s),
                            lambda got, lab=label: self._check(lab, got)))
        return out

    @staticmethod
    def _analyze(doc_text: str, seed: int):
        psi = cli.document_to_map(json.loads(doc_text))
        rep = cli.analysis_report(psi, seed, trials=5, with_certificate=True,
                                  with_hudson=True, budget=Budget(None, None),
                                  with_inverse=True)
        return rep, _text(rep)

    @staticmethod
    def _check(label: str, got):
        rep, text = got
        spec = families.EXPECTED[label]
        problems = []
        _stratum_invariants(problems, label, rep)
        _liaison(problems, rep["c1"], rep["c2"])
        _expect(problems, "birational", rep.get("birational"), "yes")
        _expect(problems, "certificate", rep.get("certificate"), 1)
        _expect(problems, "family", rep.get("family"), label)
        _expect(problems, "table_rows", rep.get("table_rows"),
                [] if spec.table_row is None else [spec.table_row])
        if spec.counts is not None:
            _expect(problems, "hudson_counts", rep.get("hudson_counts"), list(spec.counts))
        if not rep.get("inverse"):
            problems.append("inverse missing")
        return text, problems


class SpecialInputs(Workload):
    """The inputs that are not generic stratum members, one group per seed:
    the pinned Q examples (two-prime path), criterion 9 over Q, and the four
    degeneration paths at t = 0, 1 as `cremona-lab deform` runs them."""

    name = "special_inputs"
    sample_items = 45  # three seed groups
    trace_items = sample_items

    def chunk(self, c: int) -> list:
        g = self.seed + c
        over_q = []
        for name, psi in families.special_examples(QQ).items():
            over_q.append(Item(f"{name}/{g}", lambda m=psi: cli.analysis_report(m, g),
                               lambda rep, nm=name: self._check_special(nm, rep)))
        rng = Rng(g, "criterion-9")
        R = ring(QQ, 4)
        psi1, p1, _ = families.a1_example(QQ)
        over_q.append(Item(f"a1/{g}", lambda: self._a1(psi1, p1, R, rng),
                           lambda got: self._check_mult("a1", got, [6, 4])))
        psi2, p2, _, J2 = families.a2_example(QQ)
        over_q.append(Item(f"a2/{g}", lambda: self._a2(psi2, p2, J2, R, rng),
                           lambda got: self._check_mult("a2", got, [6, 3])))
        field = GF(random_prime(Rng(g, "field-pick")))  # deform's --field random
        paths = []
        for path in families.PATHS:
            try:
                pairs = families.deform(path, [0, 1], g, field)
            except (DegenerateInput, MapError) as e:
                paths.extend(_failing(f"{path}(t={t})/{g}", e) for t in (0, 1))
                continue
            for t, psi in pairs:
                paths.append(Item(f"{path}(t={t})/{g}",
                                  lambda m=psi: cremona.analyze_map(m, seed=g, trials=0,
                                                                    with_certificate=False),
                                  lambda an, pa=path, tt=t: self._check_path(pa, tt, an)))
        # the Q items alternate with the cheaper degeneration items, so that
        # a run that ends inside a group has timed the group's mix
        return [item for pair in zip_longest(over_q, paths) for item in pair if item is not None]

    @staticmethod
    def _a1(psi, p, R, rng):
        gamma, _, c2 = cremona.line_preimage_split(psi, rng.split("a1"))
        union = IdealHandle(list(gamma.gens), R, saturated=True)
        return {"example": "a1",
                "mult": [ideals.multiplicity_at(union, p, rng.split("a1u")),
                         ideals.multiplicity_at(c2.ideal, p, rng.split("a1c2"))]}

    @staticmethod
    def _a2(psi, p, J, R, rng):
        printed = IdealHandle([parse_poly(s, R) for s in A2_PRINTED_J], R)
        gamma, c1, _ = cremona.line_preimage_split(psi, rng.split("a2"))
        union = IdealHandle(list(gamma.gens), R, saturated=True)
        return {"example": "a2", "printed_J": J.equals(printed),
                "mult": [ideals.multiplicity_at(union, p, rng.split("a2u")),
                         ideals.multiplicity_at(c1.ideal, p, rng.split("a2c1"))]}

    @staticmethod
    def _check_mult(name: str, got: dict, want: list):
        problems = []
        _expect(problems, f"{name} multiplicities", got["mult"], want)
        if name == "a2" and not got["printed_J"]:
            problems.append("a2: J differs from the printed six cubics")
        return json.dumps(got, sort_keys=True), problems

    @staticmethod
    def _check_special(name: str, rep: dict):
        problems = []
        _expect(problems, "field", rep.get("field"), "q")
        _liaison(problems, rep["c1"], rep["c2"])
        for key, want in SPECIAL_BIRATIONAL.get(name, {}).items():
            _expect(problems, key, rep.get(key), want)
        if name in CONTROL_FIBER_DEGREES:
            _expect(problems, "birational", rep.get("birational"), "no")
            deg = CONTROL_FIBER_DEGREES[name]
            if deg is None:
                if rep.get("certificate") == 1:
                    problems.append("certificate 1 on a non-dominant control")
            else:
                _expect(problems, "fiber_degree", rep.get("fiber_degree"), deg)
                _expect(problems, "certificate", rep.get("certificate"), deg)
        if name == "cube":
            _expect(problems, "deg C1, deg C2", [rep["c1"][0], rep["c2"][0]], [9, 0])
        return _text(rep), problems

    @staticmethod
    def _check_path(path: str, t: int, an):
        want = cli.PATH_EXPECTATIONS[path]["zero" if t == 0 else "nonzero"]
        got = (an.bidegree, (an.c2.degree, an.c2.p_a), an.ruled)
        row = {"path": path, "parameter": t, "bidegree": list(an.bidegree),
               "c2": [an.c2.degree, an.c2.p_a], "ruled": an.ruled,
               "deg1part": an.deg1part}
        problems = [] if got == want else [f"{path}(t={t}): got {got}, expected {want}"]
        return json.dumps(row, sort_keys=True), problems


WORKLOADS = {w.name: w for w in (ScanInvariants, FullReport, SpecialInputs)}


class ItemStream:
    """The item sequence of one workload and seed; later chunks are built
    on demand, between timed items."""

    def __init__(self, workload: Workload, first_chunk: list):
        self.workload = workload
        self.items = list(first_chunk)
        self.chunks = 1
        self.pos = 0

    def next(self) -> Item:
        while self.pos >= len(self.items):
            self.items.extend(self.workload.chunk(self.chunks))
            self.chunks += 1
        item = self.items[self.pos]
        self.pos += 1
        return item
