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

- Guarnieri and Vendramin (2017): the skew braces of order n, counted as
  Aut(G)-orbits of regular subgroups of Hol(G) over the groups G of order n.
"""

import pytest

from hgl.catalog import build_group
from hgl.hgsenum import count_hgs, enumerate_regular_subgroups
from hgl.holomorph import hol_context
from hgl.isoaut import automorphism_group
from hgl.perm import conjugators, orbit_minima

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


# Skew braces (Guarnieri and Vendramin, 2017): the skew braces with additive
# group G, up to isomorphism, are the Aut(G)-conjugacy orbits of regular
# subgroups of Hol(G).  Each case is n, the total over the groups G of order
# n, and the orbits of each G.
SKEW_BRACES = [
    (4, 4, {"C4": 2, "E(2,2)": 2}),
    (6, 6, {"C6": 2, "S3": 4}),
    (9, 4, {"C9": 2, "E(3,2)": 2}),
    (10, 6, {"C10": 2, "D10": 4}),
    (14, 6, {"C14": 2, "D14": 4}),
    (15, 1, {"C15": 1}),
    (21, 8, {"C21": 2, "F21": 6}),
    (25, 4, {"C25": 2, "E(5,2)": 2}),
]


def _regular_subgroup_orbits(spec):
    ctx = hol_context(build_group(spec))
    aut = automorphism_group(ctx.group)
    subgroups = [record.elements for record in enumerate_regular_subgroups(ctx)]
    moves = [lambda elements, c=c: tuple(sorted(map(c, elements))) for c in conjugators(aut)]
    return len(orbit_minima(subgroups, moves))


@pytest.mark.parametrize("n,total,orbits", SKEW_BRACES, ids=["n=%d" % n for n, _, _ in SKEW_BRACES])
def test_skew_brace_count(n, total, orbits):
    assert {spec: _regular_subgroup_orbits(spec) for spec in orbits} == orbits
    assert sum(orbits.values()) == total
