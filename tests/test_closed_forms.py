"""Hopf-Galois structure counts that the literature gives in closed form,
pinned to their exact values.

- Kohl (1998): a cyclic extension of degree p^n (p odd) has exactly p^(n-1)
  Hopf-Galois structures, all of cyclic type.
- Byott (2004), degree pq with q | p - 1 (here 21 = 7 * 3 and 55 = 11 * 5,
  F the nonabelian group of order pq): C/C = 1, C/F = 2(q - 1), F/F =
  2 + 2p(q - 2), F/C = p.
- Byott (2004), degree 2p, the case q = 2 of the same forms (p = 3, F = S3):
  C6/C6 = 1, C6/S3 = 2, S3/C6 = 3 and S3/S3 = 2.

Each case is Gamma/G: structures of type G on a Gamma-extension.
"""

import pytest

from hgl.hgsenum import count_hgs

CLOSED_FORMS = [
    ("C49", "C49", 7),
    ("C81", "C81", 27),
    ("C21", "C21", 1),
    ("C21", "F21", 4),
    ("F21", "F21", 16),
    ("F21", "C21", 7),
    ("C55", "F55", 8),
    ("F55", "F55", 68),
    ("C6", "C6", 1),
    ("C6", "S3", 2),
    ("S3", "C6", 3),
    ("S3", "S3", 2),
]


@pytest.mark.parametrize("gamma,g,expected", CLOSED_FORMS,
                         ids=["%s/%s" % (gamma, g) for gamma, g, _ in CLOSED_FORMS])
def test_closed_form_count(gamma, g, expected):
    result = count_hgs(gamma, g)
    assert result.count == expected
    assert result.crosscheck == expected and not result.discrepancy
    assert len(result.witnesses) == expected
