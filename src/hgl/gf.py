"""Small finite fields GF(p^e) and matrices over them.

Field elements are integers 0..p^e-1 encoding coefficient vectors base p
(value = sum c_i * p^i, representing sum c_i * x^i mod the modulus).  Each
field fixes its modulus as the lexicographically least primitive polynomial,
so the residue of x generates the multiplicative group and GF(4) gets
x^2 + x + 1 (w^2 = w + 1).  Multiplication runs on exp/log tables.
"""

from __future__ import annotations

from .numtheory import is_prime, least_primitive_root, prime_factors
from .perm import CapExceeded

FIELD_SIZE_CAP = 2**16


class GF:
    """GF(p^e) with elements encoded as integers 0..p^e-1."""

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        if e < 1:
            raise ValueError("exponent must be >= 1")
        q = p**e
        if q > FIELD_SIZE_CAP:
            raise CapExceeded("field size %d exceeds cap %d" % (q, FIELD_SIZE_CAP))
        self.p = p
        self.e = e
        self.q = q
        self.modulus = self._least_primitive_modulus()
        self._build_log_tables()

    # -- construction ----------------------------------------------------------

    def _poly_mul_mod(self, a, b, modulus_coeffs):
        """Multiply two encoded polynomials mod the modulus (degree e)."""
        p, e = self.p, self.e
        a_coeffs = self._digits(a)
        b_coeffs = self._digits(b)
        prod = [0] * (2 * e)
        for i, ai in enumerate(a_coeffs):
            if ai == 0:
                continue
            for j, bj in enumerate(b_coeffs):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        # reduce: x^e = -(modulus lower part)
        for k in range(2 * e - 1, e - 1, -1):
            coeff = prod[k]
            if coeff == 0:
                continue
            prod[k] = 0
            for j in range(e):
                prod[k - e + j] = (prod[k - e + j] - coeff * modulus_coeffs[j]) % p
        return self._encode(prod[:e])

    def _digits(self, value):
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(value % p)
            value //= p
        return out

    def _encode(self, coeffs):
        value = 0
        for c in reversed(coeffs):
            value = value * self.p + (c % self.p)
        return value

    def _least_primitive_modulus(self):
        """Lexicographically least monic primitive polynomial of degree e,
        scanning constant-first coefficient tuples in ascending integer order."""
        p, e, q = self.p, self.e, self.q
        if e == 1:
            r = least_primitive_root(p)
            return [(-r) % p]  # x - r
        group_order = q - 1
        factors = prime_factors(group_order)
        for low in range(p**e):
            coeffs = self._digits(low)
            if not self._x_has_full_order(coeffs, group_order, factors):
                continue
            return coeffs
        raise RuntimeError("no primitive polynomial found (impossible)")

    def _x_has_full_order(self, modulus_coeffs, group_order, factors):
        """Check that x mod (x^e + modulus tail) has multiplicative order q-1.
        Also weeds out reducible moduli: a zero divisor never reaches order."""
        x = self.p  # the polynomial "x"
        if self._poly_pow(x, group_order, modulus_coeffs) != 1:
            return False
        for f in factors:
            if self._poly_pow(x, group_order // f, modulus_coeffs) == 1:
                return False
        return True

    def _poly_pow(self, base, n, modulus_coeffs):
        result = 1
        while n:
            if n & 1:
                result = self._poly_mul_mod(result, base, modulus_coeffs)
            base = self._poly_mul_mod(base, base, modulus_coeffs)
            n >>= 1
        return result

    def _build_log_tables(self):
        q = self.q
        self.exp = [1] * (q - 1)
        self.log = [0] * q
        value = 1
        generator = self.x()
        for k in range(q - 1):
            self.exp[k] = value
            self.log[value] = k
            value = self._poly_mul_mod(value, generator, self.modulus) if self.e > 1 else (
                value * generator % self.p
            )
        if value != 1:
            raise RuntimeError("generator has wrong order (impossible)")

    # -- arithmetic -------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._encode([x + y for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self._encode([-x for x in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of 0")
            return 0 if n else 1
        return self.exp[(self.log[a] * n) % (self.q - 1)]

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def conj(self, a: int) -> int:
        """The involution a -> a^(p^(e/2)) for quadratic extensions (a^2 on
        GF(4)); identity on prime fields."""
        if self.e % 2 == 0:
            return self.pow(a, self.p ** (self.e // 2))
        return a

    # -- helpers ------------------------------------------------------------------

    def elements(self):
        return range(self.q)

    def nonzero(self):
        return range(1, self.q)

    def x(self) -> int:
        """The residue of x (a multiplicative generator for e > 1)."""
        return self.p if self.e > 1 else least_primitive_root(self.p)

    def element_str(self, a: int) -> str:
        """Short string form: "0","1","w","w2",... ("w" is the residue of x)."""
        if self.e == 1:
            return str(a)
        if a == 0:
            return "0"
        k = self.log[a]
        if k == 0:
            return "1"
        if k == 1:
            return "w"
        return "w%d" % k

    def parse_element(self, text: str) -> int:
        text = text.strip()
        if self.e == 1:
            return int(text) % self.p
        if text == "0":
            return 0
        if text == "1":
            return 1
        if text == "w":
            return self.exp[1]
        if text.startswith("w"):
            return self.exp[int(text[1:]) % (self.q - 1)]
        return int(text)

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.e) if self.e > 1 else "GF(%d)" % self.p


_FIELD_CACHE: dict = {}


def make_field(p: int, e: int) -> GF:
    key = (p, e)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = GF(p, e)
    return _FIELD_CACHE[key]


class MatrixGF:
    """An immutable matrix over a GF field, stored as a tuple of row tuples."""

    __slots__ = ("field", "rows")

    def __init__(self, field: GF, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("ragged rows")

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    @classmethod
    def identity(cls, field: GF, n: int) -> "MatrixGF":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_strings(cls, field: GF, rows) -> "MatrixGF":
        return cls(field, [[field.parse_element(x) for x in row] for row in rows])

    def __mul__(self, other: "MatrixGF") -> "MatrixGF":
        if self.field != other.field or self.ncols != other.nrows:
            raise ValueError("incompatible matrices")
        f = self.field
        out = []
        for row in self.rows:
            new_row = []
            for j in range(other.ncols):
                acc = 0
                for k, a in enumerate(row):
                    if a:
                        acc = f.add(acc, f.mul(a, other.rows[k][j]))
                new_row.append(acc)
            out.append(new_row)
        return MatrixGF(f, out)

    def __pow__(self, n: int) -> "MatrixGF":
        if n < 0:
            return self.inverse() ** (-n)
        result = MatrixGF.identity(self.field, self.nrows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj_transpose(self) -> "MatrixGF":
        """Transpose with the field involution applied entrywise."""
        f = self.field
        return MatrixGF(f, [[f.conj(x) for x in row] for row in zip(*self.rows)])

    def det(self) -> int:
        f = self.field
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of non-square matrix")
        rows = [list(r) for r in self.rows]
        det = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
            if pivot is None:
                return 0
            if pivot != col:
                rows[col], rows[pivot] = rows[pivot], rows[col]
                det = f.mul(det, f.neg(1))
            det = f.mul(det, rows[col][col])
            inv_p = f.inv(rows[col][col])
            for r in range(col + 1, n):
                factor = f.mul(rows[r][col], inv_p)
                if factor:
                    for c in range(col, n):
                        rows[r][c] = f.sub(rows[r][c], f.mul(factor, rows[col][c]))
        return det

    def inverse(self) -> "MatrixGF":
        f = self.field
        n = self.nrows
        aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot is None:
                raise ZeroDivisionError("singular matrix")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv_p = f.inv(aug[col][col])
            aug[col] = [f.mul(inv_p, x) for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    factor = aug[r][col]
                    aug[r] = [f.sub(x, f.mul(factor, y)) for x, y in zip(aug[r], aug[col])]
        return MatrixGF(f, [row[n:] for row in aug])

    def rref(self) -> "MatrixGF":
        """Reduced row echelon form (canonical for row spans)."""
        f = self.field
        rows = [list(r) for r in self.rows]
        lead = 0
        for col in range(self.ncols):
            pivot = next((r for r in range(lead, len(rows)) if rows[r][col] != 0), None)
            if pivot is None:
                continue
            rows[lead], rows[pivot] = rows[pivot], rows[lead]
            inv_p = f.inv(rows[lead][col])
            rows[lead] = [f.mul(inv_p, x) for x in rows[lead]]
            for r in range(len(rows)):
                if r != lead and rows[r][col]:
                    factor = rows[r][col]
                    rows[r] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[r], rows[lead])]
            lead += 1
            if lead == len(rows):
                break
        return MatrixGF(f, rows)

    def to_strings(self):
        return [[self.field.element_str(x) for x in row] for row in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, MatrixGF)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.rows))

    def __repr__(self):
        return "MatrixGF(%r, %s)" % (self.field, self.to_strings())
