"""cremona-lab: construct / analyze / deform / scan / verify / table.

Artifacts are JSON (one map or report) or JSONL (the scan atlas).  All
coefficients are carried as exact strings; re-running any command with the
same inputs, seed and prime reproduces the output byte for byte (timing is
never part of the payload).

Exit codes: 0 success (analyze: birational), 2 constructor failure or bad
arguments (argparse, e.g. a malformed --field, a non-prime --prime or a
non-integer --samples entry), 3 non-birational input, 4 budget exceeded,
5 unreadable or malformed map document, including a component that lists
one exponent vector twice (one line on stderr, never a traceback),
6 deformation endpoint mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .cremona import InverseUnavailable, MapError, RationalMap, analyze_map, inverse
from .fields import GF, QQ, FieldError, field_descriptor, field_from_descriptor
from .groebner import Budget, BudgetError, current_limits, limits
from .hudson import classify_component, hudson_vector, load_table, match_table
from .ideals import DegenerateInput
from .poly import print_poly, ring
from .rng import Rng, is_prime, random_prime
from . import families

SCHEMA_MAP = "cremona-lab/map-v1"
SCHEMA_REPORT = "cremona-lab/report-v1"
SCHEMA_ATLAS = "cremona-lab/atlas-v1"


# ------------------------------------------------------------- documents


def map_to_document(psi: RationalMap, provenance: dict | None = None,
                    expected=None) -> dict:
    R = psi.ring
    F = R.field
    comps = []
    for f in psi.components:
        comps.append([[F.to_str(c), list(R.unpack(m))] for m, c in f.terms])
    doc = {
        "schema": SCHEMA_MAP,
        "field": field_descriptor(F),
        "degree": psi.degree,
        "variables": list(R.names),
        "components": comps,
        "provenance": provenance or {},
    }
    if expected is not None:
        doc["expected"] = expected
    return doc


def document_to_map(doc: dict) -> RationalMap:
    """The map of a map-v1 document; MapError names what is malformed."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_MAP:
        schema = doc.get("schema") if isinstance(doc, dict) else type(doc).__name__
        raise MapError(f"unsupported document schema {schema!r}")
    try:
        F = field_from_descriptor(doc["field"])
        R = ring(F, 4, tuple(doc["variables"]))
        comps = []
        for terms in doc["components"]:
            d = {}
            for coeff, exps in terms:
                if len(exps) != R.nvars:
                    raise MapError(f"exponent vector {exps!r} needs {R.nvars} entries")
                m = R.pack(tuple(exps))
                if m in d:
                    raise MapError(f"exponent vector {exps!r} repeated in one component")
                d[m] = F.parse(coeff)
            comps.append(R.poly(d))
    except (TypeError, ValueError) as e:  # FieldError, PolyError, MapError are ValueErrors
        raise MapError(f"malformed document: {e}") from e
    prov = doc.get("provenance")
    label = prov.get("label") if isinstance(prov, dict) else None
    return RationalMap(comps, doc.get("degree", 3), label=label)


def spec_to_json(spec: families.FamilySpec) -> dict:
    return {
        "label": spec.label,
        "bidegree": list(spec.bidegree),
        "c2": list(spec.c2) if spec.c2 else None,
        "counts": list(spec.counts) if spec.counts else None,
        "table_row": spec.table_row,
        "notes": spec.notes,
    }


# ---------------------------------------------------------------- analyze


def analysis_report(psi: RationalMap, seed, trials: int = 5,
                    with_certificate: bool = True, with_hudson: bool = True,
                    budget: Budget | None = None, primes=None, with_inverse: bool = False) -> dict:
    """Full report over GF(p); Q maps are reduced modulo two independent
    primes that must agree on every invariant.  A pinned prime
    (`primes=[P, P]`, as `analyze --prime P` passes) is analysed once, so
    nothing is compared; a denominator collision with it falls back to two
    fresh primes.  Every Groebner computation of the analysis is held to
    `budget` (`groebner.limits`); None keeps the current limits."""
    with limits(budget or current_limits()):
        return _report(psi, seed, trials, with_certificate, with_hudson, primes, with_inverse)


def _report(psi: RationalMap, seed, trials, with_certificate, with_hudson, primes,
            with_inverse) -> dict:
    F = psi.ring.field
    if F == QQ:
        rng = Rng(seed, "qq-reduction")
        reps = None
        ps = []
        for round_ in range(3):
            if primes is not None and round_ == 0:
                ps = list(primes)
            else:
                ps = [random_prime(rng.split(f"p{round_}-{i}")) for i in (0, 1)]
            try:
                # a pinned prime comes twice; each distinct prime is analysed once
                by_prime = {p: analysis_report(psi.reduce_mod(p), seed, trials, with_certificate,
                                               with_hudson, with_inverse=with_inverse)
                            for p in dict.fromkeys(ps)}
                reps = [by_prime[p] for p in ps]
            except FieldError:
                reps = None  # bad prime (denominator); retry with fresh ones
                continue
            key = ("bidegree", "c1", "c2", "genus", "ruled", "birational",
                   "certificate", "hudson_counts", "deg1part", "theta_count")
            if all(reps[0].get(k) == reps[1].get(k) for k in key):
                rep = reps[0]
                rep["field"] = "q"
                rep["primes"] = ps
                return rep
        if reps is None:
            raise MapError("no usable reduction prime (denominators in the way)")
        rep = reps[0]
        rep["field"] = "q"
        rep["primes"] = ps
        rep["notes"] = rep.get("notes", []) + ["prime reductions disagree; verdict inconclusive"]
        rep["birational"] = "inconclusive"
        return rep

    an = analyze_map(psi, seed=seed, trials=trials, with_certificate=with_certificate)
    rep = {
        "schema": SCHEMA_REPORT,
        "field": field_descriptor(F),
        "primes": [F.p],
        "seed": seed,
        "label": psi.label,
        "bidegree": list(an.bidegree),
        "deg1part": an.deg1part,
        "theta_count": an.theta_count,
        "c1": [an.c1.degree, an.c1.p_a],
        "c2": [an.c2.degree, an.c2.p_a],
        "genus": an.genus,
        "ruled": an.ruled,
        "ruled_witness": [print_poly(f) for f in an.ruled_witness] if an.ruled_witness else None,
        "birational": an.birational,
        "fiber_degree": an.fiber_degree,
        "certificate": an.certificate,
        "notes": list(an.notes),
    }
    if with_hudson:
        hv = hudson_vector(an, Rng(seed, "hudson"))
        rep["hudson_counts"] = list(hv.count_tuple())
        rep["hudson_partial"] = hv.partial
        rep["quadric_rank"] = hv.quadric_rank
        rep["profiles"] = [[t, d1, d2, on2] for (_, t, d1, d2, on2) in hv.profiles]
        rep["fcurves"] = [[k, d, g] for (k, d, g) in hv.fcurves]
        rows = match_table(hv)
        rep["table_rows"] = [r.row for r in rows]
        if not rows and not hv.ruled:
            rep["missing_row_note"] = "no classical table row matches (documented gaps: E3.5, E7.5)"
        if an.birational == "yes":
            try:
                rep["family"] = classify_component(an, hv, Rng(seed, "component"))
            except Exception as e:  # classification keeps full evidence in the message
                rep["family"] = None
                rep["classification_error"] = str(e)
    if with_inverse and an.birational == "yes":
        try:
            g = inverse(psi, an.bidegree[1], Rng(seed, "inverse"))
            rep["inverse"] = [print_poly(f) for f in g.components]
        except InverseUnavailable as e:
            rep["inverse"] = None
            rep["notes"].append(f"inverse unavailable ({e})")
    return rep


# -------------------------------------------------------------- commands


def cmd_construct(args) -> int:
    field = _field_arg(args, Rng(args.seed, "field-pick"))
    label = _family_label(args)
    try:
        if label == "special":
            specials = families.special_examples(QQ)
            if args.name not in specials:
                print(f"unknown special example {args.name!r}; have {sorted(specials)}",
                      file=sys.stderr)
                return 2
            psi = specials[args.name]
            spec = None
        else:
            psi, spec = families.build(label, args.seed, field)
    except (DegenerateInput, MapError) as e:
        print(f"constructor failed: {e}", file=sys.stderr)
        return 2
    doc = map_to_document(psi, provenance={"family": label, "seed": args.seed,
                                           "label": psi.label},
                          expected=spec_to_json(spec) if spec else None)
    _emit(doc, args.out)
    return 0


def _family_label(args) -> str:
    fam = args.family
    if fam == "ruled":
        if args.d is None:
            raise SystemExit("--family ruled requires --d")
        return f"ruled_3_{args.d}"
    if fam == "determinantal":
        return "E2"
    if fam in ("E3_5", "E3.5"):
        return "E3.5"
    if fam in ("E7_5", "E7.5"):
        return "E7.5"
    return fam


def cmd_analyze(args) -> int:
    try:
        psi = document_to_map(_read_json(args.mapfile))
    except MapError as e:
        print(f"invalid map: {e}", file=sys.stderr)
        return 5
    except (OSError, ValueError, KeyError) as e:  # ValueError covers JSONDecodeError
        print(f"parse error: {e}", file=sys.stderr)
        return 5
    budget = Budget(args.max_pairs, args.max_degree)
    primes = [args.prime] * 2 if args.prime else None
    t0 = time.time()
    try:
        rep = analysis_report(psi, args.seed, trials=args.trials,
                              with_certificate=not args.no_certificate,
                              with_hudson=not args.no_hudson, budget=budget,
                              primes=primes, with_inverse=args.inverse)
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 4
    except (DegenerateInput, MapError) as e:
        print(f"analysis failed: {e}", file=sys.stderr)
        return 3
    if args.timing:
        rep["timing_ms"] = int((time.time() - t0) * 1000)
    print(f"analyzed in {time.time() - t0:.2f}s", file=sys.stderr)
    _emit(rep, args.out)
    if rep.get("birational") != "yes":
        return 3
    return 0


PATH_EXPECTATIONS = {
    # parameter bucket -> (bidegree, (deg C2, pa C2), ruled)
    "det_to_dJ": {"zero": ((3, 3), (6, 4), False), "nonzero": ((3, 3), (6, 3), False)},
    "E6_to_E7": {"zero": ((3, 4), (5, 2), False), "nonzero": ((3, 4), (5, 1), False)},
    "ruled_jump": {"zero": ((3, 3), (6, 3), True), "nonzero": ((3, 4), (5, 2), False)},
    "E24_to_E23": {"zero": ((3, 5), (4, 1), False), "nonzero": ((3, 5), (4, 0), False)},
}


def cmd_deform(args) -> int:
    field = _field_arg(args, Rng(args.seed, "field-pick"))
    try:
        pairs = families.deform(args.path, args.samples, args.seed, field)
    except (MapError, DegenerateInput) as e:
        print(f"deformation failed: {e}", file=sys.stderr)
        return 2
    rows = []
    ok = True
    for t, psi in pairs:
        an = analyze_map(psi, seed=args.seed, trials=0, with_certificate=False)
        expect = PATH_EXPECTATIONS[args.path]["zero" if t == 0 else "nonzero"]
        got = (an.bidegree, (an.c2.degree, an.c2.p_a), an.ruled)
        verdict = got == expect
        ok = ok and verdict
        rows.append({"parameter": t, "bidegree": list(an.bidegree),
                     "c2": [an.c2.degree, an.c2.p_a], "ruled": an.ruled,
                     "deg1part": an.deg1part,
                     "expected": [list(expect[0]), list(expect[1]), expect[2]],
                     "match": verdict})
    out = {"schema": "cremona-lab/deform-v1", "path": args.path,
           "field": field_descriptor(field), "seed": args.seed, "samples": rows,
           "endpoints_match": ok}
    _emit(out, args.out)
    return 0 if ok else 6


def _atlas_read(path) -> tuple:
    """Existing atlas records and keys; repairs a truncated final line."""
    import os

    records, keys = [], set()
    if not os.path.exists(path):
        return records, keys
    with open(path, "rb") as fh:
        data = fh.read()
    good = 0
    for line in data.splitlines(keepends=True):
        if not line.endswith(b"\n"):
            break
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            break
        records.append(rec)
        keys.add((rec.get("family"), rec.get("seed"), rec.get("prime")))
        good += len(line)
    if good < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(good)
        print(f"atlas: repaired truncated tail ({len(data) - good} bytes)", file=sys.stderr)
    return records, keys


def scan_one(family: str, seed: int, prime: int, level: str = "invariants") -> dict:
    """One atlas record (worker-side; must stay picklable/pure)."""
    rec = {"schema": SCHEMA_ATLAS, "family": family, "seed": seed, "prime": prime,
           "ok": False, "error": None}
    try:
        field = GF(prime)
        psi, _ = families.build(family, seed, field)
        full = level == "full"
        rep = analysis_report(psi, seed, trials=5 if full else 0,
                              with_certificate=full, with_hudson=full)
        rec.update({
            "ok": True,
            "bidegree": rep["bidegree"],
            "c2": rep["c2"],
            "deg1part": rep["deg1part"],
            "theta_count": rep["theta_count"],
            "genus": rep["genus"],
            "ruled": rep["ruled"],
        })
        if full:
            rec["birational"] = rep["birational"]
            rec["certificate"] = rep["certificate"]
            rec["counts"] = rep.get("hudson_counts")
            rec["rows"] = rep.get("table_rows")
            rec["label"] = rep.get("family")
    except Exception as e:
        rec["error"] = f"{type(e).__name__}: {e}"
    return rec


def _scan_job(job: tuple) -> dict:
    return scan_one(*job)


def _scan_records(jobs: list, n_jobs: int):
    """The records of `jobs` in order, each yielded as soon as it is done."""
    if n_jobs > 1 and len(jobs) > 1:
        import multiprocessing as mp

        with mp.Pool(n_jobs) as pool:
            yield from pool.imap(_scan_job, jobs)
    else:
        for job in jobs:
            yield scan_one(*job)


def cmd_scan(args) -> int:
    fams = args.families.split(",") if args.families != "all" else list(families.FAMILY_LABELS)
    for f in fams:
        if f not in families.FAMILY_LABELS:
            print(f"unknown family {f!r}", file=sys.stderr)
            return 2
    rng = Rng(args.seed, "scan-primes")
    jobs = []
    for k in range(args.count):
        fam = fams[k % len(fams)]
        seed = args.seed + k
        prime = args.prime or random_prime(rng.split(f"p{k}"))
        jobs.append((fam, seed, prime, args.level))
    _, have = _atlas_read(args.atlas)
    jobs = [j for j in jobs if (j[0], j[1], j[2]) not in have]
    print(f"scan: {len(jobs)} new samples -> {args.atlas}", file=sys.stderr)
    new = failures = 0
    with open(args.atlas, "a", encoding="utf-8") as fh:
        # each record reaches the atlas as it arrives, so a killed scan keeps
        # the finished ones and a rerun skips them
        for rec in _scan_records(jobs, args.jobs):
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
            fh.flush()
            new += 1
            failures += not rec["ok"]
    hist: dict = {}
    allrecs, _ = _atlas_read(args.atlas)
    for rec in allrecs:
        if rec.get("ok"):
            key = (tuple(rec["bidegree"]), rec["c2"][1] if rec.get("c2") else None,
                   "ruled" if rec.get("ruled") else "plain")
            hist[str(key)] = hist.get(str(key), 0) + 1
    print(json.dumps({"new": new, "failures": failures,
                      "histogram": dict(sorted(hist.items()))}, indent=2))
    if new and failures / new > 0.10:
        return 1
    return 0


def cmd_verify(args) -> int:
    from . import acceptance

    nums = [int(x) for x in args.criteria.split(",")] if args.criteria else None
    results = acceptance.run(criteria=nums, jobs=args.jobs, quick=args.quick)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        print(f"{status} criterion-{r.number}: {r.title} [{r.elapsed:.1f}s] {r.detail}")
    return 0 if all_ok else 1


def cmd_table(args) -> int:
    rows = load_table(verify=True)
    if args.row:
        rows = [r for r in rows if r.row == args.row]
    if args.json:
        print(json.dumps([{"row": r.row, "bidegree": list(r.bidegree),
                           "counts": list(r.counts), "fcurves": r.fcurves,
                           "remarks": r.remarks} for r in rows], indent=2))
    else:
        for r in rows:
            c = r.counts
            print(f"{r.row:3d}  {r.bidegree[0]}-{r.bidegree[1]}  dpc={c[0]} bin={c[1]} "
                  f"dp={c[2]} osc={c[3]} ct={c[4]} ord={c[5]}  {r.fcurves}"
                  + (f"  [{r.remarks}]" if r.remarks else ""))
    return 0


# ----------------------------------------------------------------- plumbing


def _field_arg(args, rng: Rng):
    if args.field == "random":
        return GF(random_prime(rng))
    return args.field


def _field_type(text: str):
    """argparse type of --field: "random" or the field of a descriptor."""
    if text == "random":
        return text
    try:
        return field_from_descriptor(text)
    except ValueError as e:  # FieldError, or a non-integer p
        raise argparse.ArgumentTypeError(f"bad field {text!r}: {e}") from None


def _prime_type(text: str) -> int:
    """argparse type of --prime: a prime integer."""
    try:
        p = int(text)
    except ValueError:
        p = 0
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"bad prime {text!r}: not a prime integer")
    return p


def _samples_type(text: str) -> list:
    """argparse type of --samples: comma-separated integers."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad samples {text!r}: expected comma-separated integers") from None


def _read_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj: dict, out: str | None):
    text = json.dumps(obj, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cremona-lab",
                                 description="exact-arithmetic lab for cubic birational maps of P^3")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a family member")
    c.add_argument("--family", required=True,
                   help="ruled | determinantal | E2..E24 | special")
    c.add_argument("--d", type=int, help="inverse degree for ruled (2..5)")
    c.add_argument("--name", help="name of a pinned special example")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--field", type=_field_type, default="random", help="q | gf:P | random")
    c.add_argument("--out")
    c.set_defaults(func=cmd_construct)

    a = sub.add_parser("analyze", help="full invariant report for a map document")
    a.add_argument("mapfile", help="JSON map document ('-' for stdin)")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--trials", type=int, default=5)
    a.add_argument("--prime", type=_prime_type,
                   help="pin the reduction prime (Q maps): the map is analysed once, at "
                        "that prime, with no two-prime agreement")
    a.add_argument("--no-certificate", action="store_true")
    a.add_argument("--no-hudson", action="store_true")
    a.add_argument("--inverse", action="store_true", help="attempt inverse extraction")
    a.add_argument("--max-pairs", type=int)
    a.add_argument("--max-degree", type=int)
    a.add_argument("--timing", action="store_true", help="include timing in the payload")
    a.add_argument("--out")
    a.set_defaults(func=cmd_analyze)

    d = sub.add_parser("deform", help="walk a degeneration path")
    d.add_argument("--path", required=True, choices=sorted(families.PATHS))
    d.add_argument("--samples", type=_samples_type, default="0,1,2")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--field", type=_field_type, default="random", help="q | gf:P | random")
    d.add_argument("--out")
    d.set_defaults(func=cmd_deform)

    s = sub.add_parser("scan", help="sample families into the atlas")
    s.add_argument("--families", default="all")
    s.add_argument("--count", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--prime", type=_prime_type, help="pin one prime for every sample")
    s.add_argument("--level", choices=("invariants", "full"), default="invariants")
    s.add_argument("--atlas", default="atlas.jsonl")
    s.add_argument("--jobs", type=int, default=1)
    s.set_defaults(func=cmd_scan)

    v = sub.add_parser("verify", help="run the acceptance suite")
    v.add_argument("--criteria", help="comma-separated criterion numbers")
    v.add_argument("--jobs", type=int, default=0, help="0 = auto")
    v.add_argument("--quick", action="store_true",
                   help="reduced sample counts (smoke test, not the contract)")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("table", help="dump the classical classification table")
    t.add_argument("--row", type=int)
    t.add_argument("--json", action="store_true")
    t.set_defaults(func=cmd_table)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
