"""Digest guard on the zonotope's facets and volume at their guard edges.

Each entry pins the SHA-256 of the `repr` of one result: the sorted facet
list (normal, support) of x^2 - x - 1 at m = 60, the largest window the
facet guard allows for it, and of 2 - 3x + x^2 + 4x^3 at m = 22, and the
exact `volume_bound` of 3 - 2x - 9x^2 - 3x^3 + 9x^4 at m = 36, eps = 1/2,
the largest window the volume's guard allows for that quartic.  The digests
were recorded while both still took one Bareiss elimination per minor, so a
change to the Laplace minor table they now read that moves one facet,
support or bit of the volume fails here.
"""

import hashlib
from fractions import Fraction

from kronrec.density import _zonotope_facets, certify_non_density
from kronrec.poly_core import IntPolynomial


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_facet_digests_at_the_guard_edge():
    golden = sorted(_zonotope_facets(IntPolynomial((-1, -1, 1)), 60))
    assert len(golden) == 34220
    assert _digest(golden) == "66eb7f4d484cb2b4bc7d8708c98a4530ec4c5065bab2675ace3c094033a01bbb"
    cubic = sorted(_zonotope_facets(IntPolynomial((2, -3, 1, 4)), 22))
    assert len(cubic) == 7315
    assert _digest(cubic) == "d4cb4f043dd37847f9d139e823e6cab102856cf3b6c253cde4219dd80dadbb1c"


def test_volume_digest_at_the_guard_edge():
    cert = certify_non_density(IntPolynomial((3, -2, -9, -3, 9)), 36, Fraction(1, 2))
    digest = hashlib.sha256(str(cert.volume_bound).encode()).hexdigest()
    assert digest == "e78e68cbb5338fb7db8957f6341f07c48d5d994238f6339302aa6378e5b90470"
