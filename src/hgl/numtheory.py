"""Small exact number theory: primality, prime factors, prime powers and
primitive roots, by trial division (every argument here is desk scale)."""

from __future__ import annotations


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def prime_factors(n: int):
    """The distinct prime factors of n, ascending ([] for n < 2)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int):
    """(p, e) with q = p^e, or ValueError."""
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError("%d is not a prime power" % q)
    p = factors[0]
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return p, e


def prime_powers_up_to(q_max: int):
    return [q for q in range(2, q_max + 1) if len(prime_factors(q)) == 1]


def least_primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod a prime p."""
    if p == 2:
        return 1
    factors = prime_factors(p - 1)
    for r in range(2, p):
        if all(pow(r, (p - 1) // f, p) != 1 for f in factors):
            return r
    raise ValueError("no primitive root mod %d" % p)
