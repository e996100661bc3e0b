"""Golden reports: the exact `cremona-lab analyze` JSON text for a small
pinned corpus, so that refactors of the pipeline must keep reports byte for
byte.  The corpus covers the ruled witness with four line peels
(ruled_3_4), a line peel off a twisted cubic (E19), both branches of the
quadric-rank test (E8 and E7.5), the point of contact forced by a node of
C2 that the Hudson vector leaves out (E4) and the two-prime path over Q."""

import hashlib
import json

import pytest

from cremona_lab import cli, families
from cremona_lab.fields import GF, QQ

P = 1000003

GOLDEN_GF = {
    "ruled_3_4": "0292d33471fa78a069e388223564c86b1d5f404e225c66c924c98673862a61b8",
    "E19": "2514fb99eea8a68e19a34010fea8aa2394516fd014cdcc8678458a9729df7aa8",
    "E8": "a04e18a689647d90fca0b16e36a6c25d14ff02efc1f5ce40631d26e7434abf33",
    "E7.5": "d7971e1bffb4e59555e6650a819c35f1864a7f194e9c70ff39929fb08e9b9790",
    "E4": "6514e570eaf604f52cac71f272bdf7daf396855db71e70c20400773a717cf833",
}
GOLDEN_RULED_INVOLUTION_SEED2 = "393a452e45b8b45fa3a6d26b6f51d6a0bd015339348fb93cd1e0e8ba87a261b6"


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
