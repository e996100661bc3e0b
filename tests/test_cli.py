"""CLI surface: documents, exit codes, atlas durability, reproducibility."""

import json
import os

import pytest

from cremona_lab import cli
from cremona_lab.cremona import MapError, RationalMap
from cremona_lab.families import special_examples
from cremona_lab.fields import QQ
from cremona_lab.groebner import current_limits


def run(args):
    return cli.main(args)


def test_construct_documents_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    base = ["construct", "--family", "ruled", "--d", "3", "--seed", "7",
            "--field", "gf:1000003"]
    assert run(base + ["--out", str(out1)]) == 0
    assert run(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["schema"] == cli.SCHEMA_MAP
    assert doc["field"] == "gf:1000003"
    psi = cli.document_to_map(doc)
    assert psi.degree == 3
    # document round trip is lossless
    doc2 = cli.map_to_document(psi, provenance=doc["provenance"],
                               expected=doc.get("expected"))
    assert doc2 == doc


def test_construct_unknown_family_exit_2(capsys):
    assert run(["construct", "--family", "E99", "--seed", "1"]) == 2


def test_analyze_report_and_exit_codes(tmp_path, capsys):
    mapfile = tmp_path / "m.json"
    assert run(["construct", "--family", "E23", "--seed", "1",
                "--field", "gf:1000003", "--out", str(mapfile)]) == 0
    rep1 = tmp_path / "r1.json"
    rep2 = tmp_path / "r2.json"
    assert run(["analyze", str(mapfile), "--seed", "2", "--out", str(rep1)]) == 0
    assert run(["analyze", str(mapfile), "--seed", "2", "--out", str(rep2)]) == 0
    assert rep1.read_bytes() == rep2.read_bytes()  # bit-for-bit reproducible
    rep = json.loads(rep1.read_text())
    assert rep["bidegree"] == [3, 5]
    assert rep["hudson_counts"] == [0, 0, 0, 0, 1, 0]
    assert rep["table_rows"] == [23]
    assert rep["family"] == "E23"
    capsys.readouterr()


def test_analyze_parse_error_exit_5(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run(["analyze", str(bad)]) == 5
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"schema": "nope"}))
    assert run(["analyze", str(bad2)]) == 5


# the classical involution as a map-v1 document, and malformed variants of it
GOOD_DOC = {"schema": cli.SCHEMA_MAP, "field": "gf:10007", "degree": 3,
            "variables": ["z0", "z1", "z2", "z3"], "provenance": {},
            "components": [[["1", [1, 2, 0, 0]]], [["1", [2, 1, 0, 0]]],
                           [["1", [2, 0, 1, 0]]], [["1", [0, 2, 0, 1]]]]}


def _with(**changes):
    doc = json.loads(json.dumps(GOOD_DOC))
    doc.update(changes)
    return doc


def _first_term(term):
    return _with(components=[[term]] + GOOD_DOC["components"][1:])


@pytest.mark.parametrize("doc", [
    pytest.param(_with(field="gf:12"), id="field-not-prime"),
    pytest.param(_with(field="zz"), id="field-unknown"),
    pytest.param(_with(field=5), id="field-not-a-string"),
    pytest.param(_first_term(["1", [-1, 2, 0, 0]]), id="negative-exponent"),
    pytest.param(_with(variables=["a", "b"]), id="two-variables"),
    pytest.param(_first_term(["abc", [1, 2, 0, 0]]), id="coefficient-not-a-number"),
    pytest.param(_first_term(["1/0", [1, 2, 0, 0]]), id="zero-denominator"),
    pytest.param(dict(_first_term(["1/0", [1, 2, 0, 0]]), field="q"), id="zero-denominator-q"),
    pytest.param(_with(components=[5] + GOOD_DOC["components"][1:]), id="component-is-int"),
    pytest.param([GOOD_DOC], id="top-level-array"),
    pytest.param(_first_term(["1", [1, 2, 0]]), id="exponent-vector-of-length-3"),
    pytest.param(_with(components=[[["1", [3, 0, 0, 0]], ["-1", [3, 0, 0, 0]]]]
                       + GOOD_DOC["components"][1:]), id="repeated-exponent"),
    pytest.param(None, id="missing-file"),
])
def test_analyze_malformed_document_exit_5(tmp_path, capsys, doc):
    f = tmp_path / "doc.json"
    if doc is not None:
        f.write_text(json.dumps(doc))
        with pytest.raises(MapError):
            cli.document_to_map(doc)
    assert run(["analyze", str(f), "--no-hudson", "--trials", "1"]) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_the_unmodified_document_parses():
    assert cli.document_to_map(GOOD_DOC).components[0].total_degree() == 3
    assert cli.document_to_map(_with(provenance=["not", "a", "dict"])).label is None


@pytest.mark.parametrize("command", [
    ["construct", "--family", "E2"],
    ["deform", "--path", "ruled_jump", "--samples", "0"],
], ids=["construct", "deform"])
@pytest.mark.parametrize("field", ["1000003", "gf:abc", "gf:12"])
def test_bad_field_argument_exit_2(capsys, command, field):
    with pytest.raises(SystemExit) as ei:
        run(command + ["--field", field])
    assert ei.value.code == 2
    assert "bad field" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["x,1", "0,", "0.5"])
def test_bad_samples_argument_exit_2(capsys, samples):
    with pytest.raises(SystemExit) as ei:
        run(["deform", "--path", "ruled_jump", "--field", "gf:1000003", "--samples", samples])
    assert ei.value.code == 2
    assert "bad samples" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["analyze", "map.json"],
    ["scan", "--count", "1"],
], ids=["analyze", "scan"])
@pytest.mark.parametrize("prime", ["12", "1", "abc"])
def test_bad_prime_argument_exit_2(tmp_path, monkeypatch, capsys, command, prime):
    monkeypatch.chdir(tmp_path)  # scan's default atlas.jsonl must not appear
    with pytest.raises(SystemExit) as ei:
        run(command + ["--prime", prime])
    assert ei.value.code == 2
    assert "bad prime" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_analyze_nonbirational_exit_3(tmp_path, capsys):
    doc = cli.map_to_document(special_examples(QQ)["cube"])
    f = tmp_path / "cube.json"
    f.write_text(json.dumps(doc))
    assert run(["analyze", str(f), "--seed", "1", "--prime", "1000003",
                "--no-hudson"]) == 3
    capsys.readouterr()


def test_analyze_qq_special_example(tmp_path, capsys):
    doc = cli.map_to_document(special_examples(QQ)["ruled-involution"])
    f = tmp_path / "inv.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "rep.json"
    assert run(["analyze", str(f), "--seed", "3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["field"] == "q" and len(rep["primes"]) == 2
    assert rep["bidegree"] == [3, 3] and rep["ruled"] and rep["genus"] == 0
    capsys.readouterr()


def test_pinned_prime_is_analysed_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = cli.analyze_map

    def counting(psi, *args, **kwargs):
        calls.append(psi.ring.field.p)
        return real(psi, *args, **kwargs)

    monkeypatch.setattr(cli, "analyze_map", counting)
    doc = cli.map_to_document(special_examples(QQ)["ruled-involution"])
    f = tmp_path / "inv.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "rep.json"
    assert run(["analyze", str(f), "--seed", "2", "--prime", "1000003", "--no-hudson",
                "--out", str(out)]) == 0
    assert calls == [1000003]
    rep = json.loads(out.read_text())
    assert rep["field"] == "q" and rep["primes"] == [1000003, 1000003]
    capsys.readouterr()


def test_deform_endpoints_exit_codes(tmp_path, capsys):
    out = tmp_path / "d.json"
    code = run(["deform", "--path", "ruled_jump", "--samples", "0,1",
                "--seed", "4", "--field", "gf:1000003", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["endpoints_match"]
    zero = [s for s in data["samples"] if s["parameter"] == 0][0]
    assert zero["ruled"] and zero["bidegree"] == [3, 3]
    capsys.readouterr()


def test_scan_idempotent_and_crash_repair(tmp_path, capsys):
    atlas = tmp_path / "atlas.jsonl"
    args = ["scan", "--families", "E2,E13", "--count", "4", "--seed", "100",
            "--prime", "1000003", "--atlas", str(atlas), "--jobs", "1"]
    assert run(args) == 0
    n1 = len(atlas.read_text().splitlines())
    assert n1 == 4
    # idempotent: same keys are skipped
    assert run(args) == 0
    assert len(atlas.read_text().splitlines()) == 4
    # simulate a crash mid-append: truncated last line is repaired
    with open(atlas, "ab") as fh:
        fh.write(b'{"schema": "cremona-lab/atlas-v1", "family": "E2", "truncated')
    assert run(args) == 0
    lines = atlas.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        json.loads(line)
    capsys.readouterr()


def test_killed_scan_keeps_finished_records(tmp_path, monkeypatch, capsys):
    atlas = tmp_path / "atlas.jsonl"
    real = cli.scan_one
    calls = []

    def scan_one(*job):
        calls.append(job)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(*job)

    monkeypatch.setattr(cli, "scan_one", scan_one)
    with pytest.raises(KeyboardInterrupt):
        run(["scan", "--families", "E2,E13", "--count", "3", "--seed", "100",
             "--prime", "1000003", "--atlas", str(atlas), "--jobs", "1"])
    lines = atlas.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert (rec["family"], rec["seed"], rec["ok"]) == ("E2", 100, True)
    capsys.readouterr()


def test_scan_records_carry_invariants(tmp_path, capsys):
    atlas = tmp_path / "a.jsonl"
    assert run(["scan", "--families", "E12", "--count", "1", "--seed", "55",
                "--prime", "1000003", "--atlas", str(atlas)]) == 0
    rec = json.loads(atlas.read_text().splitlines()[0])
    assert rec["ok"] and rec["bidegree"] == [3, 5] and rec["c2"] == [4, -1]
    capsys.readouterr()


def test_table_dump_and_integrity(capsys):
    assert run(["table", "--row", "27"]) == 0
    out = capsys.readouterr().out
    assert "l^2" in out and "27" in out
    assert run(["table", "--json", "--row", "8"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["counts"] == [0, 1, 0, 0, 0, 1]


def test_verify_quick_subset(capsys):
    assert run(["verify", "--criteria", "6,7", "--quick", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS criterion-6" in out and "PASS criterion-7" in out


def test_bad_prime_reduction_retries(tmp_path, capsys):
    # a Q map with a denominator divisible by the pinned prime: the first
    # reduction fails and the analyzer retries with fresh primes
    from cremona_lab.poly import parse_poly, ring

    R = ring(QQ, 4)
    f0 = parse_poly("1/1009", R).scale(1) * parse_poly("z0*z1^2", R)
    psi = cli.map_to_document(
        RationalMap([f0, parse_poly("z0^2*z1", R), parse_poly("z0^2*z2", R),
                     parse_poly("z1^2*z3", R)], 3))
    f = tmp_path / "m.json"
    f.write_text(json.dumps(psi))
    out = tmp_path / "r.json"
    assert run(["analyze", str(f), "--seed", "5", "--prime", "1009",
                "--no-hudson", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert 1009 not in rep["primes"]
    capsys.readouterr()


def test_deform_endpoint_mismatch_exit_6(tmp_path, monkeypatch, capsys):
    # force a wrong expectation to exercise the mismatch exit path
    wrong = {"ruled_jump": {"zero": ((3, 9), (0, 0), False),
                            "nonzero": ((3, 9), (0, 0), False)}}
    monkeypatch.setitem(cli.PATH_EXPECTATIONS, "ruled_jump", wrong["ruled_jump"])
    code = run(["deform", "--path", "ruled_jump", "--samples", "0",
                "--seed", "4", "--field", "gf:1000003"])
    assert code == 6
    capsys.readouterr()


def test_analyze_budget_exit_4(tmp_path, capsys):
    mapfile = tmp_path / "m.json"
    assert run(["construct", "--family", "E2", "--seed", "1",
                "--field", "gf:1000003", "--out", str(mapfile)]) == 0
    assert run(["analyze", str(mapfile), "--max-pairs", "1"]) == 4
    capsys.readouterr()
    # the budget held the analysis alone: the default limits are back
    b = current_limits()
    assert (b.max_pairs, b.max_degree) == (200_000, 30)
