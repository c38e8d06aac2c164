"""Finite fields F_p and F_q = F_p[u]/(pi), with elements held as int codes.

An element c_0 + c_1 u + ... + c_(r-1) u^(r-1) of F_q, q = p**r, is held
as the single int ``code = sum c_i p**i``; over F_p the code is the residue
itself.  ``pi`` is a user-supplied monic irreducible polynomial: there is no
internal table of moduli, callers name the field they want.  Irreducibility
is certified by Rabin's test (Rabin, "Probabilistic algorithms in finite
fields", SIAM J. Comput. 9, 1980), primality of p by trial division.

Fields are interned: ``FiniteField(p, modulus)`` returns one shared
instance per (p, modulus reduced mod p), so field equality is identity and
Rabin's test runs once per field.  A field enters the cache only after it
validated, so a bad modulus is refused on every call.

Each field carries its code arithmetic (``code_add``, ``code_neg``,
``code_mul``, ``code_inv``, ``code_pow``), chosen once per field:

* F_p -- int operations mod p;
* r > 1, q <= 2**16 -- log/antilog tables on the first primitive code,
  additions by XOR (p = 2) or Zech logarithms (odd p);
* larger q -- schoolbook products of the base-p digit vectors mod pi.

``FiniteFieldElement`` wraps one code for the element-level API; the series
kernel works on codes directly.  All values are immutable.
"""

from .errors import ComputationError

#: largest order whose field gets log/antilog tables
_TABLE_LIMIT = 1 << 16


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


def _prime_factors(n):
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


# -- code arithmetic, one family per kind of field ---------------------------


def _prime_ops(p):
    def add(a, b):
        return (a + b) % p

    def neg(a):
        return -a % p

    def mul(a, b):
        return a * b % p

    def inv(a):
        return pow(a, p - 2, p)

    def power(a, k):
        return pow(a, k, p)

    return add, neg, mul, inv, power


def _digits(code, p, r):
    """The r base-p digits of a code, lowest first: its coordinates."""
    out = []
    for _ in range(r):
        code, c = divmod(code, p)
        out.append(c)
    return out


def _undigits(digits, p):
    code = 0
    for c in reversed(digits):
        code = code * p + c
    return code


def _poly_ops(p, r, modulus):
    """Code arithmetic through the digit vectors, for fields too large for
    tables; also the bootstrap that builds the tables."""
    mod = list(modulus)

    def add(a, b):
        pairs = zip(_digits(a, p, r), _digits(b, p, r))
        return _undigits([(x + y) % p for x, y in pairs], p)

    def neg(a):
        return _undigits([-c % p for c in _digits(a, p, r)], p)

    def mul(a, b):
        prod = _poly_mul(_digits(a, p, r), _digits(b, p, r), p)
        return _undigits(_poly_mod(prod, mod, p), p)

    def power(a, k):
        result = 1
        while k:
            if k & 1:
                result = mul(result, a)
            a = mul(a, a)
            k >>= 1
        return result

    def inv(a):
        return power(a, p ** r - 2)

    return add, neg, mul, inv, power


def _table_ops(p, r, modulus):
    """Code arithmetic through log/antilog tables on the first primitive
    code, with Zech logarithms for odd-p addition."""
    q = p ** r
    qm1 = q - 1
    slow_pow = _poly_ops(p, r, modulus)[4]
    factors = _prime_factors(qm1)
    g = next(
        c for c in range(2, q) if all(slow_pow(c, qm1 // ell) != 1 for ell in factors)
    )
    exp = [0] * (2 * qm1)  # doubled, so a sum of two logs needs no reduction
    log = [0] * q
    mod, g_digits, x_digits = list(modulus), _poly_trim(_digits(g, p, r)), [1]
    for k in range(qm1):
        x = _undigits(x_digits, p)
        exp[k] = exp[k + qm1] = x
        log[x] = k
        x_digits = _poly_mod(_poly_mul(g_digits, x_digits, p), mod, p)

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    def inv(a):
        return exp[qm1 - log[a]]

    def power(a, k):
        if not a:
            return 0 if k else 1
        return exp[log[a] * k % qm1]

    if p == 2:
        # addition is XOR of the digit bits; negation is the identity
        return int.__xor__, int.__pos__, mul, inv, power

    # zech[d] = log(1 + g^d), or -1 where 1 + g^d = 0; adding 1 to a code
    # bumps its constant digit
    zech = []
    for d in range(qm1):
        y = exp[d]
        y = y + 1 if y % p != p - 1 else y - (p - 1)
        zech.append(log[y] if y else -1)
    half = qm1 // 2  # g^half = -1

    def add(a, b):
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        # a + b = a (1 + g^(log b - log a)); a negative index wraps mod q - 1
        z = zech[log[b] - la]
        return exp[la + z] if z >= 0 else 0

    def neg(a):
        return exp[log[a] + half] if a else 0

    return add, neg, mul, inv, power


_FIELDS = {}


class FiniteField:
    """The field F_q with q = p**r, presented as F_p[u]/(pi).

    ``modulus`` is the coefficient list of pi, ascending, monic, degree r.
    Omit it (or pass ``None``) for the prime field F_p.  Equal arguments
    give the same instance.
    """

    def __new__(cls, p, modulus=None):
        if isinstance(p, int) and p > 1:
            key = (p, (0, 1) if modulus is None else tuple(x % p for x in modulus))
            field = _FIELDS.get(key)
            if field is not None:
                return field
        field = object.__new__(cls)
        field._setup(p, modulus)
        return _FIELDS.setdefault((field.p, field.modulus), field)

    def _setup(self, p, modulus):
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
        if self.degree == 1:
            ops = _prime_ops(p)
        else:
            self._check_irreducible()
            make = _table_ops if self.order <= _TABLE_LIMIT else _poly_ops
            ops = make(p, self.degree, self.modulus)
        self.code_add, self.code_neg, self.code_mul, self.code_inv, self.code_pow = ops
        self._zero = FiniteFieldElement(self, 0)
        self._one = FiniteFieldElement(self, 1)

    def __reduce__(self):
        return FiniteField, (self.p, list(self.modulus))

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
            if value.field is not self:
                raise ComputationError("element of a different field")
            return value
        if isinstance(value, int):
            return FiniteFieldElement(self, value % self.p)
        p = self.p
        coords = [int(v) % p for v in value]
        if len(coords) > self.degree:
            coords = _poly_mod(coords, list(self.modulus), p)
        return FiniteFieldElement(self, _undigits(coords, p))

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def generator(self):
        """The class of u (for r > 1), else 1."""
        if self.degree == 1:
            return self._one
        return FiniteFieldElement(self, self.p)

    def elements(self):
        """Iterate over all q elements, in code order (small fields only)."""
        for code in range(self.order):
            yield FiniteFieldElement(self, code)

    def digits(self, code):
        """The base-p digits of a code: its coordinates over F_p."""
        return tuple(_digits(code, self.p, self.degree))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        if self.degree == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.degree)


class FiniteFieldElement:
    """An element of a ``FiniteField``, held as its int code."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    @property
    def coords(self):
        """The coordinate tuple over F_p (the base-p digits of the code)."""
        return self.field.digits(self.code)

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (
            isinstance(other, FiniteFieldElement)
            and self.field is other.field
            and self.code == other.code
        )

    def __hash__(self):
        f = self.field
        return hash((f.p, f.modulus, self.coords))

    def _coerce(self, other):
        """The code of ``other``, an int or an element of this field."""
        if isinstance(other, int):
            return other % self.field.p
        if not isinstance(other, FiniteFieldElement) or other.field is not self.field:
            raise ComputationError("field mismatch in arithmetic")
        return other.code

    def __add__(self, other):
        f = self.field
        return FiniteFieldElement(f, f.code_add(self.code, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return FiniteFieldElement(f, f.code_neg(self.code))

    def __sub__(self, other):
        f = self.field
        return FiniteFieldElement(
            f, f.code_add(self.code, f.code_neg(self._coerce(other)))
        )

    def __rsub__(self, other):
        f = self.field
        return FiniteFieldElement(
            f, f.code_add(self._coerce(other), f.code_neg(self.code))
        )

    def __mul__(self, other):
        f = self.field
        return FiniteFieldElement(f, f.code_mul(self.code, self._coerce(other)))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        f = self.field
        return FiniteFieldElement(f, f.code_pow(self.code, k))

    def inverse(self):
        f = self.field
        if not self.code:
            raise ZeroDivisionError("inverse of zero in %r" % (f,))
        return FiniteFieldElement(f, f.code_inv(self.code))

    def __truediv__(self, other):
        return self * FiniteFieldElement(self.field, self._coerce(other)).inverse()

    def frobenius_inverse(self):
        """The unique y with y**p = x (Frobenius is bijective on F_q)."""
        return self ** (self.field.p ** (self.field.degree - 1))

    def __repr__(self):
        f = self.field
        if f.degree == 1:
            return str(self.code)
        coords = self.coords
        terms = []
        for i in range(f.degree - 1, -1, -1):
            c = coords[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("u" if c == 1 else "%d*u" % c)
            else:
                terms.append("u^%d" % i if c == 1 else "%d*u^%d" % (c, i))
        return "+".join(terms) if terms else "0"
