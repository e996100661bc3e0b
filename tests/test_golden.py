"""Golden reports: the exact `cremona-lab analyze` JSON text for a small
pinned corpus, so that refactors of the pipeline must keep reports byte for
byte.  The corpus covers the ruled witness with four line peels
(ruled_3_4), a line peel off a twisted cubic (E19), both branches of the
quadric-rank test (E8 and E7.5), the one stratum whose Hudson vector is
partial because a point of its special locus is counted but not extracted
(E4) and the two-prime path over Q."""

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
    "E7.5": "3592011c97176b5617c2b909f1c91317790a9ec9eee584df5394184d5312cf1a",
    "E4": "c7068a0c1aa906219d6f055debe95109fc1997b800ca1137520223d36e766057",
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
