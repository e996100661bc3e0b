"""Golden reports: the exact `cremona-lab analyze` JSON text for a small
pinned corpus, so that refactors of the pipeline must keep reports byte for
byte.  The corpus covers two ruled witnesses whose C2 is all lines, some
of them multiple (ruled_3_4 of degree 5 and ruled_3_2 of degree 7, each
line listed as often as its multiplicity), a line split off a twisted
cubic (E19), both branches of the quadric-rank test (E8 and E7.5), the
point of contact forced by a node of C2 that the Hudson vector leaves out
(E4) and the two-prime path over Q."""

import hashlib
import json

import pytest

from cremona_lab import cli, families
from cremona_lab.fields import GF, QQ

P = 1000003

GOLDEN_GF = {
    "ruled_3_4": "ffa75a14c9aee962c54f3686fe37bd3a72c2fb3007cac7d2788d39304fc6a16a",
    "ruled_3_2": "d57eb2a0d794c0dada490c3d05bcbda5846debb5afb47b2f620edbad812416eb",
    "E19": "2514fb99eea8a68e19a34010fea8aa2394516fd014cdcc8678458a9729df7aa8",
    "E8": "a04e18a689647d90fca0b16e36a6c25d14ff02efc1f5ce40631d26e7434abf33",
    "E7.5": "d7971e1bffb4e59555e6650a819c35f1864a7f194e9c70ff39929fb08e9b9790",
    "E4": "6514e570eaf604f52cac71f272bdf7daf396855db71e70c20400773a717cf833",
}
GOLDEN_RULED_INVOLUTION_SEED2 = "9fd7631950cc154b8b3426568cace49c07c0d78c22636091a896c22b412a5ea0"


def _digest(rep: dict) -> str:
    # the text cli._emit writes, without its trailing newline
    return hashlib.sha256(json.dumps(rep, sort_keys=True, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(GOLDEN_GF))
def test_stratum_report_is_byte_identical(label):
    psi, spec = families.build(label, 1, GF(P))
    doc = cli.map_to_document(psi, provenance={"family": label, "seed": 1, "label": psi.label},
                              expected=cli.spec_to_json(spec))
    rep = cli.analysis_report(cli.document_to_map(json.loads(json.dumps(doc))), 1,
                              with_inverse=True)
    assert _digest(rep) == GOLDEN_GF[label]


def test_qq_report_is_byte_identical():
    rep = cli.analysis_report(families.special_examples(QQ)["ruled-involution"], 2)
    assert _digest(rep) == GOLDEN_RULED_INVOLUTION_SEED2
