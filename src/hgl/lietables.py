"""Exact-integer order and outer-automorphism data for the simple groups of
Lie type, with sweep verification of the inequality 3 d |Out|^3 < |G|.

Families carry the Dynkin-style tags: A_{n-1} (PSL_n), 2A_{n-1} (PSU_n),
C_n (PSp_2n), B_n (POmega_{2n+1}), D_n (POmega+_2n), 2D_n (POmega-_2n), and
the exceptional families.  |Out(T)| = d * epsilon * g, |T| = |G| / d.  Every
fractional-exponent inequality is compared after raising to the third power,
in exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd

from .numtheory import prime_power, prime_powers_up_to

CLASSICAL_FAMILIES = ("A", "2A", "C", "B", "D", "2D")
EXCEPTIONAL_FAMILIES = (
    "G2", "F4", "E6", "2E6", "3D4", "E7", "E8", "2B2", "2G2", "2F4", "2F4'",
)


class RestrictionViolation(ValueError):
    pass


@dataclass(frozen=True)
class LieDatum:
    family: str
    n: int | None
    p: int
    e: int
    q: int
    g_order: int  # |G|, the matrix group over the simple quotient
    d: int
    epsilon: int
    graph: int
    note: str = ""

    @property
    def out_order(self) -> int:
        return self.d * self.epsilon * self.graph

    @property
    def t_order(self) -> int:
        return self.g_order // self.d

    def ineq3(self):
        """(lhs, rhs) of 3 d |Out|^3 < |G|."""
        return 3 * self.d * self.out_order**3, self.g_order

    def as_dict(self):
        lhs, rhs = self.ineq3()
        return {
            "family": self.family,
            "n": self.n,
            "q": self.q,
            "order_g": str(self.g_order),
            "order_t": str(self.t_order),
            "d": self.d,
            "epsilon": self.epsilon,
            "graph": self.graph,
            "out": self.out_order,
            "lhs": str(lhs),
            "rhs": str(rhs),
            "pass": lhs < rhs,
            "note": self.note,
        }


def lie_datum(family: str, n: int | None, q: int) -> LieDatum:
    """Order and automorphism data for one family member.

    Classical families take the matrix-size parameter: A/2A use n with
    PSL_n/PSU_n; C/B/D/2D use the subscript n of C_n(q), B_n(q), D_n(q).
    POmega_5 inputs are canonicalised to PSp_4 (the generic isomorphism).
    """
    family = family.strip()
    if family in ("B",) and n == 2:
        # generic isomorphism POmega_5(q) = PSp_4(q): canonicalise
        return lie_datum("C", 2, q)
    p, e = prime_power(q)
    if family == "A":
        if n is None or n < 2:
            raise RestrictionViolation("PSL_n needs n >= 2")
        if (n, q) in ((2, 2), (2, 3)):
            raise RestrictionViolation("PSL_%d(%d) is excluded" % (n, q))
        order = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            order *= q**i - 1
        return LieDatum("A", n, p, e, q, order, gcd(n, q - 1), e, 1 if n == 2 else 2)
    if family == "2A":
        if n is None or n < 3:
            raise RestrictionViolation("PSU_n needs n >= 3")
        if (n, q) == (3, 2):
            raise RestrictionViolation("PSU_3(2) is excluded")
        order = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            order *= q**i - (-1) ** i
        return LieDatum("2A", n, p, e, q, order, gcd(n, q + 1), 2 * e, 1)
    if family == "C":
        if n is None or n < 2:
            raise RestrictionViolation("PSp_2n needs n >= 2")
        if (n, q) == (2, 2):
            raise RestrictionViolation("PSp_4(2) is excluded")
        note = ""
        if (n, q) == (4, 2):
            # the automorphism table also excludes (4,2); the order table does
            # not.  The sweep honors the union and logs the asymmetry.
            note = "excluded by the automorphism-table restriction (n,q) != (4,2)"
        order = q ** (n * n)
        for i in range(1, n + 1):
            order *= q ** (2 * i) - 1
        graph = 2 if (n == 2 and q % 2 == 0) else 1
        return LieDatum("C", n, p, e, q, order, gcd(2, q - 1), e, graph, note=note)
    if family == "B":
        if n is None or n < 3:
            raise RestrictionViolation("POmega_{2n+1} needs n >= 3")
        order = q ** (n * n)
        for i in range(1, n + 1):
            order *= q ** (2 * i) - 1
        return LieDatum("B", n, p, e, q, order, gcd(2, q - 1), e, 1)
    if family == "D":
        if n is None or n < 4:
            raise RestrictionViolation("POmega+_{2n} needs n >= 4")
        order = q ** (n * (n - 1)) * (q**n - 1)
        for i in range(1, n):
            order *= q ** (2 * i) - 1
        return LieDatum("D", n, p, e, q, order, gcd(4, q**n - 1), e, 6 if n == 4 else 2)
    if family == "2D":
        if n is None or n < 4:
            raise RestrictionViolation("POmega-_{2n} needs n >= 4")
        order = q ** (n * (n - 1)) * (q**n + 1)
        for i in range(1, n):
            order *= q ** (2 * i) - 1
        return LieDatum("2D", n, p, e, q, order, gcd(4, q**n + 1), 2 * e, 1)
    return _exceptional_datum(family, q, p, e)


def _exceptional_datum(family: str, q: int, p: int, e: int) -> LieDatum:
    if family == "G2":
        if q < 3:
            raise RestrictionViolation("G2 needs q >= 3")
        order = q**6 * (q**6 - 1) * (q**2 - 1)
        return LieDatum("G2", None, p, e, q, order, 1, e, 2 if p == 3 else 1)
    if family == "F4":
        order = q**24 * (q**12 - 1) * (q**8 - 1) * (q**6 - 1) * (q**2 - 1)
        return LieDatum("F4", None, p, e, q, order, 1, e, 2 if p == 2 else 1)
    if family == "E6":
        order = (
            q**36
            * (q**12 - 1) * (q**9 - 1) * (q**8 - 1)
            * (q**6 - 1) * (q**5 - 1) * (q**2 - 1)
        )
        return LieDatum("E6", None, p, e, q, order, gcd(3, q - 1), e, 2)
    if family == "2E6":
        order = (
            q**36
            * (q**12 - 1) * (q**9 + 1) * (q**8 - 1)
            * (q**6 - 1) * (q**5 + 1) * (q**2 - 1)
        )
        return LieDatum("2E6", None, p, e, q, order, gcd(3, q + 1), 2 * e, 1)
    if family == "3D4":
        order = q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1)
        return LieDatum("3D4", None, p, e, q, order, 1, 3 * e, 1)
    if family == "E7":
        order = q**63
        for k in (18, 14, 12, 10, 8, 6, 2):
            order *= q**k - 1
        return LieDatum("E7", None, p, e, q, order, gcd(2, q - 1), e, 1)
    if family == "E8":
        order = q**120
        for k in (30, 24, 20, 18, 14, 12, 8, 2):
            order *= q**k - 1
        return LieDatum("E8", None, p, e, q, order, 1, e, 1)
    if family == "2B2":
        if p != 2 or e % 2 == 0 or e < 3:
            raise RestrictionViolation("2B2 needs q = 2^(2n+1), n >= 1")
        order = q**2 * (q**2 + 1) * (q - 1)
        return LieDatum("2B2", None, p, e, q, order, 1, e, 1)
    if family == "2G2":
        if p != 3 or e % 2 == 0 or e < 3:
            raise RestrictionViolation("2G2 needs q = 3^(2n+1), n >= 1")
        order = q**3 * (q**3 + 1) * (q - 1)
        return LieDatum("2G2", None, p, e, q, order, 1, e, 1)
    if family == "2F4":
        if p != 2 or e % 2 == 0 or e < 3:
            raise RestrictionViolation("2F4 needs q = 2^(2n+1), n >= 1")
        order = q**12 * (q**6 + 1) * (q**4 - 1) * (q**3 + 1) * (q - 1)
        return LieDatum("2F4", None, p, e, q, order, 1, e, 1)
    if family == "2F4'":
        if q != 2:
            raise RestrictionViolation("the Tits group has q = 2")
        order = 2**12 * (2**6 + 1) * (2**4 - 1) * (2**3 + 1) * (2 - 1)
        return LieDatum("2F4'", None, 2, 1, 2, order, 2, 1, 1)
    raise ValueError("unknown family %r" % family)


def _family_parameter_range(family: str, n_max: int, q_max: int):
    qs = prime_powers_up_to(q_max)
    if family in ("A",):
        return [(n, q) for n in range(2, n_max + 1) for q in qs]
    if family == "2A":
        return [(n, q) for n in range(3, n_max + 1) for q in qs]
    if family == "C":
        return [(n, q) for n in range(2, n_max + 1) for q in qs]
    if family == "B":
        return [(n, q) for n in range(3, n_max + 1) for q in qs]
    if family in ("D", "2D"):
        return [(n, q) for n in range(4, n_max + 1) for q in qs]
    return [(None, q) for q in qs]


def sweep_ineq3(families, n_max: int = 8, q_max: int = 64):
    """Evaluate 3 d |Out|^3 < |G| over parameter windows.

    Returns a report dict with one entry per datum and the list of failures
    (expected empty).  Restriction-violating parameters are skipped; the
    PSp (4,2) table asymmetry is skipped-with-log.
    """
    rows = []
    failures = []
    skipped = []
    for family in families:
        for n, q in _family_parameter_range(family, n_max, q_max):
            try:
                datum = lie_datum(family, n, q)
            except RestrictionViolation as exc:
                skipped.append({"family": family, "n": n, "q": q, "reason": str(exc)})
                continue
            except ValueError:
                continue
            if datum.note:
                skipped.append({"family": family, "n": n, "q": q, "reason": datum.note})
                continue
            row = datum.as_dict()
            rows.append(row)
            if not row["pass"]:
                failures.append(row)
    return {"rows": rows, "failures": failures, "skipped": skipped, "pass": not failures}


def helper_bound_e_cubed(q_max: int = 1024):
    """e^3 <= q^2 / 2 for every prime power q = p^e, as 2 e^3 <= q^2."""
    failures = []
    for q in prime_powers_up_to(q_max):
        p, e = prime_power(q)
        if 2 * e**3 > q * q:
            failures.append(q)
    return {"q_max": q_max, "failures": failures, "pass": not failures}


def psl2_lemma_check(q: int):
    """The reduced PSL2 inequalities, cubed: even q: 3 e^3 < (q-2)^3;
    odd q: 3 (4e)^3 < (q-1)^3.  q in {4, 5, 9} redirect to the alternating
    case (PSL2(4) = PSL2(5) = A5, PSL2(9) = A6)."""
    if q < 4:
        raise ValueError("PSL2(q) is simple only for q >= 4")
    p, e = prime_power(q)
    if q in (4, 5, 9):
        return {"q": q, "redirect": "alternating", "pass": True}
    if q % 2 == 0:
        lhs, rhs = 3 * e**3, (q - 2) ** 3
    else:
        lhs, rhs = 3 * (4 * e) ** 3, (q - 1) ** 3
    return {"q": q, "redirect": None, "lhs": lhs, "rhs": rhs, "pass": lhs < rhs}


def alt_lemma_check(n: int) -> bool:
    """3^(2n+1) < (n!/2)^3 for n >= 5, in exact integers."""
    if n < 5:
        raise ValueError("alternating inequality needs n >= 5")
    return 3 ** (2 * n + 1) < (factorial(n) // 2) ** 3


def sporadic_check(out_order: int = 2):
    """3 |Out|^3 <= 24 < |T| given |Out| <= 2 and |T| >= 7920 (the smallest
    sporadic group).  |Out| > 2 is outside the premise and flagged."""
    if out_order > 2:
        return {"out": out_order, "pass": False, "flag": "outside the |Out| <= 2 premise"}
    lhs = 3 * out_order**3
    return {"out": out_order, "lhs": lhs, "pass": lhs <= 24 < 7920, "flag": None}
