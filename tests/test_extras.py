"""Cross-cutting examples: inverse degrees, F-curve splits, scan histograms."""

from cremona_lab.cremona import RationalMap, analyze_map, inverse
from cremona_lab.families import build, cuboquartic
from cremona_lab.fields import GF
from cremona_lab.hudson import hudson_vector
from cremona_lab.poly import ring
from cremona_lab.rng import Rng

SMALL_P = 524287  # < 2^20: dense linear algebra backend available


def test_identity_map_inverse_is_identity():
    R = ring(GF(SMALL_P), 4)
    psi = RationalMap(R.vars(), 1)
    g = inverse(psi, 1, Rng(1))
    assert [f.monic() for f in g.components] == R.vars()


def test_e6_inverse_has_degree_four():
    psi = cuboquartic("E6", 2, GF(SMALL_P))
    an = analyze_map(psi, seed=2, trials=2, with_certificate=False)
    assert an.bidegree == (3, 4)
    g = inverse(psi, 4, Rng(2))
    assert g.degree == 4
    # exact identity: x_i g_j(psi) - x_j g_i(psi) = 0 as polynomials of degree 13
    R = psi.ring
    powers = {}

    def power(i, e):  # psi_i^e
        if (i, e) not in powers:
            powers[i, e] = R.one if e == 0 else power(i, e - 1) * psi.components[i]
        return powers[i, e]

    gpsi = []
    for f in g.components:
        acc = R.zero
        for m, c in f.terms:
            t = R.one
            for i, e in enumerate(R.unpack(m)):
                t = t * power(i, e)
            acc = acc + t.scale(c)
        gpsi.append(acc)
    x = R.vars()
    assert all(gpsi)
    for i in range(4):
        for j in range(i + 1, 4):
            assert not x[i] * gpsi[j] - x[j] * gpsi[i]
    # the inverse has bidegree (4, 3): its generic-line preimage splits 16 = 3 + 13
    an2 = analyze_map(g, seed=2, trials=0, with_certificate=False)
    assert an2.bidegree == (4, 3)


def test_e12_fcurve_components():
    psi, _ = build("E12", 3, GF(10007))
    an = analyze_map(psi, seed=3, trials=0, with_certificate=False)
    hv = hudson_vector(an)
    kinds = sorted(hv.fcurves)
    assert ("l", 1, 0) in kinds
    assert ("w", 3, 0) in kinds  # twisted-cubic leftover


def test_e14_fcurve_components():
    psi, _ = build("E14", 3, GF(10007))
    an = analyze_map(psi, seed=3, trials=0, with_certificate=False)
    hv = hudson_vector(an)
    assert ("l", 1, 0) in hv.fcurves and ("w", 3, 0) in hv.fcurves


def test_e13_fcurve_irreducible_quartic():
    psi, _ = build("E13", 3, GF(10007))
    an = analyze_map(psi, seed=3, trials=0, with_certificate=False)
    hv = hudson_vector(an)
    assert hv.fcurves == [("w", 4, 1)]
