"""Finite fields F_p and F_q = F_p[u]/(pi).

Elements are coordinate vectors over F_p relative to a user-supplied monic
irreducible polynomial ``pi``.  There is no internal table of moduli: callers
name the field they want.  Irreducibility is certified by Rabin's test
(Rabin, "Probabilistic algorithms in finite fields", SIAM J. Comput. 9,
1980), primality of p by trial division.

All values are immutable; arithmetic returns fresh elements.
"""

from .errors import ComputationError


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a, modulus, p):
    """Remainder of a by a monic modulus, coefficients mod p."""
    a = [x % p for x in a]
    d = len(modulus) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            for j in range(d + 1):
                a[i - d + j] = (a[i - d + j] - c * modulus[j]) % p
    return _poly_trim(a[:d])


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_minus_x(h, p):
    h = h + [0] * (2 - len(h))
    h[1] = (h[1] - 1) % p
    return _poly_trim(h)


def _poly_gcd(a, b, p):
    """A gcd of a and b over F_p (not normalised)."""
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [x * inv % p for x in b]
        a, b = b, _poly_mod(a, b, p)
    return a


class FiniteField:
    """The field F_q with q = p**r, presented as F_p[u]/(pi).

    ``modulus`` is the coefficient list of pi, ascending, monic, degree r.
    Omit it (or pass ``None``) for the prime field F_p.
    """

    def __init__(self, p, modulus=None):
        if not is_prime(p):
            raise ComputationError("characteristic %r is not prime" % (p,))
        self.p = p
        if modulus is None:
            modulus = [0, 1]  # u, so F_p[u]/(u) = F_p
        modulus = [x % p for x in modulus]
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ComputationError("modulus must be monic of degree >= 1")
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        self.order = p ** self.degree
        if self.degree > 1:
            self._check_irreducible()
        self._zero = FiniteFieldElement(self, (0,) * self.degree)
        self._one = FiniteFieldElement(self, (1,) + (0,) * (self.degree - 1))

    def _check_irreducible(self):
        """Rabin's test: pi of degree r is irreducible over F_p iff
        x^(p^r) = x mod pi and gcd(x^(p^(r/l)) - x, pi) = 1 for every
        prime l dividing r.
        """
        p, r = self.p, self.degree
        pi = list(self.modulus)
        frob = [[0, 1]]  # frob[k] = x^(p^k) mod pi
        for _ in range(r):
            base, e, acc = frob[-1], p, [1]
            while e:
                if e & 1:
                    acc = _poly_mod(_poly_mul(acc, base, p), pi, p)
                base = _poly_mod(_poly_mul(base, base, p), pi, p)
                e >>= 1
            frob.append(acc)
        if frob[r] != [0, 1] or any(
            len(_poly_gcd(pi, _poly_minus_x(frob[r // ell], p), p)) > 1
            for ell in range(2, r + 1)
            if r % ell == 0 and is_prime(ell)
        ):
            raise ComputationError("modulus %s is reducible over F_%d" % (pi, p))

    # -- constructors ------------------------------------------------------

    def element(self, value):
        """Coerce an int, coordinate list, or element of this field."""
        if isinstance(value, FiniteFieldElement):
            if value.field != self:
                raise ComputationError("element of a different field")
            return value
        if isinstance(value, int):
            coords = [value % self.p] + [0] * (self.degree - 1)
            return FiniteFieldElement(self, tuple(coords))
        coords = [int(v) % self.p for v in value]
        if len(coords) > self.degree:
            coords = _poly_mod(coords, list(self.modulus), self.p)
        coords += [0] * (self.degree - len(coords))
        return FiniteFieldElement(self, tuple(coords))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def generator(self):
        """The class of u (for r > 1), else 1."""
        if self.degree == 1:
            return self._one
        return self.element([0, 1])

    def elements(self):
        """Iterate over all q elements (small fields only)."""
        p, r = self.p, self.degree
        for code in range(self.order):
            coords = []
            x = code
            for _ in range(r):
                coords.append(x % p)
                x //= p
            yield FiniteFieldElement(self, tuple(coords))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        if self.degree == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.degree)


class FiniteFieldElement:
    """An element of a ``FiniteField`` as a coordinate tuple over F_p."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (
            isinstance(other, FiniteFieldElement)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field.p, self.field.modulus, self.coords))

    def _coerce(self, other):
        if isinstance(other, int):
            return self.field.element(other)
        if not isinstance(other, FiniteFieldElement) or other.field != self.field:
            raise ComputationError("field mismatch in arithmetic")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        p = self.field.p
        return FiniteFieldElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coords, other.coords)),
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FiniteFieldElement(self.field, tuple((-a) % p for a in self.coords))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        f = self.field
        prod = _poly_mul(list(self.coords), list(other.coords), f.p)
        prod = _poly_mod(prod, list(f.modulus), f.p)
        prod += [0] * (f.degree - len(prod))
        return FiniteFieldElement(f, tuple(prod))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in %r" % (self.field,))
        return self ** (self.field.order - 2)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def frobenius_inverse(self):
        """The unique y with y**p = x (Frobenius is bijective on F_q)."""
        return self ** (self.field.p ** (self.field.degree - 1))

    def __repr__(self):
        f = self.field
        if f.degree == 1:
            return str(self.coords[0])
        terms = []
        for i in range(f.degree - 1, -1, -1):
            c = self.coords[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("u" if c == 1 else "%d*u" % c)
            else:
                terms.append("u^%d" % i if c == 1 else "%d*u^%d" % (c, i))
        return "+".join(terms) if terms else "0"
