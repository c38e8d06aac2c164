"""Truncated Puiseux series over a finite field.

A ``PuiseuxSeries`` holds finitely many exact coefficients of
``sum c_e * t**(e/N)`` together with a truncation order ``T``: coefficients
at exponents ``>= T`` are unknown, everything below ``T`` is exact.
``T = None`` means the stored terms are the whole series.

``coeffs`` maps the integer e to the int code of c_e in its field (see
``fields``); only nonzero codes at exponents below ``T`` are stored.
``coefficient``, ``terms`` and ``__repr__`` wrap codes into
``FiniteFieldElement`` values; arithmetic never does.  Over F_p a product
accumulates plain int products per output exponent and reduces mod p once.

The arithmetic runs on a public kernel over bare exponent -> code maps:
``code_sum``, ``code_product`` (both cut below an exponent bound) and
``dense_unit_inverse``.  Other modules use it directly when their data is
not a series in t, e.g. the x-slices of a Weierstrass preparation.

Validation happens at the boundary: ``__init__`` coerces and checks every
coefficient, while arithmetic results, whose codes are valid by
construction, are built through ``_from_valid``, which only canonicalises
the ramification index.

Two zero-like states are kept apart:

* exact zero -- no terms, ``T = None``; only literal constructors make it;
* zero at precision ``T`` -- no known term below ``T``, which certifies
  nothing except ``valuation >= T``.

Every operation computes the strongest truncation it can guarantee, so a
downstream Newton polygon can never silently depend on unknown coefficients.
Ramification indices are per-value; mixed-``N`` arithmetic rescales to the
lcm, and results are canonicalised to the smallest ``N`` that carries their
exponents.

Values are immutable and safe to share between threads.
"""

import math
from fractions import Fraction

from .errors import ComputationError, PrecisionError
from .fields import FiniteFieldElement

INFINITY = math.inf

#: default truncation used when an exact argument forces an infinite result
#: (e.g. inverting 1+t); overridable per call.
DEFAULT_TRUNCATION = Fraction(64)


def _min_trunc(a, b):
    """None-aware min of truncation orders (None means unbounded)."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _cut(trunc, n):
    """The least integer exponent on the 1/n grid at or above ``trunc``."""
    return None if trunc is None else math.ceil(trunc * n)


def dense_unit_inverse(field, a, m):
    """The first m coefficients of 1/a for a dense list of codes with a[0] != 0.

    Solves b_k = -a_0^{-1} * sum_{j >= 1} a_j * b_{k-j}, visiting only the
    nonzero a_j; over F_p each sum is reduced mod p once.
    """
    if not m:
        return []
    inv0 = field.code_inv(a[0])
    support = [(j, c) for j, c in enumerate(a) if j and c]
    b = [inv0]
    if field.degree == 1:
        p = field.p
        neg_inv0 = p - inv0
        for k in range(1, m):
            acc = 0
            for j, c in support:
                if j > k:
                    break
                acc += c * b[k - j]
            b.append(neg_inv0 * acc % p)
        return b
    add, mul = field.code_add, field.code_mul
    neg_inv0 = field.code_neg(inv0)
    for k in range(1, m):
        acc = 0
        for j, c in support:
            if j > k:
                break
            if b[k - j]:
                acc = add(acc, mul(c, b[k - j]))
        b.append(mul(neg_inv0, acc))
    return b


def code_sum(field, maps, cut=None):
    """The map of nonzero codes of the sum of exponent -> code maps on one
    grid, at exponents below ``cut`` (None: no bound)."""
    maps = iter(maps)
    out = dict(next(maps, {}))
    add = field.code_add
    for b in maps:
        for e, c in b.items():
            s = out.get(e)
            out[e] = c if s is None else add(s, c)
    return {e: c for e, c in out.items() if c and (cut is None or e < cut)}


#: a second operand of ``code_product`` with more terms than this is sorted
#: when the cut binds; a shorter one costs more to sort than to scan
_SORT_ABOVE = 16


def code_product(field, a, b, cut):
    """The map of nonzero codes of a * b at exponents below ``cut`` (None:
    no bound), for two exponent -> code maps on one grid.

    A long ``b`` under a binding cut is walked in exponent order, so each
    term of ``a`` stops at the first term of ``b`` past its room below
    ``cut``.
    """
    if cut is None:
        cut = max(a) + max(b) + 1
    ordered = bool(a) and len(b) > _SORT_ABOVE and max(a) + max(b) >= cut
    b = sorted(b.items()) if ordered else b.items()
    if field.degree == 1:
        p = field.p
        acc = {}
        get = acc.get
        for e1, c1 in a.items():
            room = cut - e1
            for e2, c2 in b:
                if e2 < room:
                    e = e1 + e2
                    acc[e] = get(e, 0) + c1 * c2
                elif ordered:
                    break
        out = {}
        for e, c in acc.items():
            c %= p
            if c:
                out[e] = c
        return out
    mul, add = field.code_mul, field.code_add
    out = {}
    get = out.get
    for e1, c1 in a.items():
        room = cut - e1
        for e2, c2 in b:
            if e2 < room:
                e = e1 + e2
                s = get(e)
                out[e] = mul(c1, c2) if s is None else add(s, mul(c1, c2))
            elif ordered:
                break
    return {e: c for e, c in out.items() if c}


class PuiseuxSeries:
    """A truncated series in t**(1/N) with exact finite-field coefficients."""

    __slots__ = ("field", "n_ram", "coeffs", "trunc")

    def __init__(self, field, coeffs, n_ram=1, trunc=None):
        """Validated constructor; ``coeffs`` maps integer e to the
        coefficient of t**(e/n_ram): an element of ``field``, an int or a
        coordinate list.  Prefer the classmethod constructors.
        """
        if n_ram < 1:
            raise ComputationError("ramification index must be >= 1")
        if trunc is not None:
            trunc = Fraction(trunc)
        clean = {}
        for e, c in coeffs.items():
            if not isinstance(c, FiniteFieldElement):
                c = field.element(c)
            elif c.field is not field:
                raise ComputationError("coefficient from a different field")
            if not c:
                continue
            if trunc is not None and Fraction(e, n_ram) >= trunc:
                continue
            clean[int(e)] = c.code
        self._set(field, clean, n_ram, trunc)

    def _set(self, field, coeffs, n_ram, trunc):
        # canonicalise the ramification index
        if not coeffs:
            n_ram = 1
        elif n_ram > 1:
            g = math.gcd(n_ram, *coeffs)
            if g > 1:
                coeffs = {e // g: c for e, c in coeffs.items()}
                n_ram //= g
        self.field = field
        self.n_ram = n_ram
        self.coeffs = coeffs
        self.trunc = trunc

    @classmethod
    def _from_valid(cls, field, coeffs, n_ram, trunc):
        """A series from trusted parts: nonzero codes of ``field`` at
        exponents below ``trunc``, a Fraction or None.  Skips ``__init__``'s
        coercion and checks; only the ramification index is canonicalised."""
        self = object.__new__(cls)
        self._set(field, coeffs, n_ram, trunc)
        return self

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, field):
        """The exact zero series."""
        return cls._from_valid(field, {}, 1, None)

    @classmethod
    def zero_at_precision(cls, field, trunc):
        """No known term below ``trunc``; not the exact zero."""
        return cls._from_valid(field, {}, 1, Fraction(trunc))

    @classmethod
    def constant(cls, field, c):
        code = field.element(c).code
        return cls._from_valid(field, {0: code} if code else {}, 1, None)

    @classmethod
    def one(cls, field):
        return cls.constant(field, 1)

    @classmethod
    def t_power(cls, field, exponent, coeff=1):
        """The exact monomial coeff * t**exponent."""
        exponent = Fraction(exponent)
        code = field.element(coeff).code
        return cls._from_valid(
            field,
            {exponent.numerator: code} if code else {},
            exponent.denominator,
            None,
        )

    @classmethod
    def from_terms(cls, field, terms, trunc=None):
        """Build from a map exponent -> coefficient with Fraction exponents."""
        n = 1
        items = []
        for e, c in terms.items():
            e = Fraction(e)
            n = n * e.denominator // math.gcd(n, e.denominator)
            items.append((e, c))
        coeffs = {}
        for e, c in items:
            key = e.numerator * (n // e.denominator)
            if key in coeffs:
                raise ComputationError("duplicate exponent %s" % e)
            coeffs[key] = c
        return cls(field, coeffs, n, trunc)

    # -- predicates ------------------------------------------------------

    @property
    def is_exact(self):
        return self.trunc is None

    @property
    def is_exact_zero(self):
        return not self.coeffs and self.trunc is None

    @property
    def is_zero_at_precision(self):
        return not self.coeffs and self.trunc is not None

    @property
    def known_nonzero(self):
        return bool(self.coeffs)

    # -- inspection --------------------------------------------------------

    def valuation(self):
        """Exact valuation as a Fraction; INFINITY for the exact zero.

        Raises ``PrecisionError`` for a series that is zero at precision T:
        only "valuation >= T" is certified, never a number.
        """
        if self.coeffs:
            return Fraction(min(self.coeffs), self.n_ram)
        if self.trunc is None:
            return INFINITY
        raise PrecisionError(
            "valuation unknown: zero at precision %s" % self.trunc,
            needed=self.trunc,
        )

    def valuation_lower_bound(self):
        """Best certified lower bound for the valuation; never raises."""
        if self.coeffs:
            return Fraction(min(self.coeffs), self.n_ram)
        if self.trunc is None:
            return INFINITY
        return self.trunc

    def code_at(self, exponent):
        """The code of the coefficient of t**exponent (0 if absent below T)."""
        exponent = Fraction(exponent)
        if self.trunc is not None and exponent >= self.trunc:
            raise PrecisionError(
                "coefficient at %s not known (truncation %s)"
                % (exponent, self.trunc)
            )
        q, r = divmod(exponent.numerator * self.n_ram, exponent.denominator)
        return 0 if r else self.coeffs.get(q, 0)

    def coefficient(self, exponent):
        """The exact coefficient of t**exponent (zero if absent below T)."""
        return FiniteFieldElement(self.field, self.code_at(exponent))

    def terms(self):
        """Sorted list of (exponent, coefficient) pairs."""
        field, n = self.field, self.n_ram
        return [
            (Fraction(e, n), FiniteFieldElement(field, c))
            for e, c in sorted(self.coeffs.items())
        ]

    def truncate(self, trunc):
        """Forget everything at exponents >= trunc."""
        trunc = _min_trunc(self.trunc, trunc)
        if trunc is None:
            return self
        trunc = Fraction(trunc)
        cut = _cut(trunc, self.n_ram)
        return PuiseuxSeries._from_valid(
            self.field,
            {e: c for e, c in self.coeffs.items() if e < cut},
            self.n_ram,
            trunc,
        )

    # -- arithmetic ---------------------------------------------------------

    def _check_field(self, other):
        if self.field is not other.field:
            raise ComputationError("characteristic/field mismatch")

    def _on_grid(self, n):
        scale = n // self.n_ram
        if scale == 1:
            return self.coeffs
        return {e * scale: c for e, c in self.coeffs.items()}

    def _common_grid(self, other):
        """(n, own codes, other's codes) on the lcm of the two grids."""
        n, m = self.n_ram, other.n_ram
        if n == m:
            return n, self.coeffs, other.coeffs
        n = n * m // math.gcd(n, m)
        return n, self._on_grid(n), other._on_grid(n)

    def __add__(self, other):
        field = self.field
        if isinstance(other, (int, FiniteFieldElement)):
            other = PuiseuxSeries.constant(field, other)
        self._check_field(other)
        n, a, b = self._common_grid(other)
        trunc = _min_trunc(self.trunc, other.trunc)
        out = code_sum(field, (a, b), _cut(trunc, n))
        return PuiseuxSeries._from_valid(field, out, n, trunc)

    __radd__ = __add__

    def __neg__(self):
        field = self.field
        neg = field.code_neg
        coeffs = {e: neg(c) for e, c in self.coeffs.items()}
        return PuiseuxSeries._from_valid(field, coeffs, self.n_ram, self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, FiniteFieldElement)):
            other = PuiseuxSeries.constant(self.field, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """Multiply by a scalar from the coefficient field."""
        field = self.field
        c = field.element(c).code
        if not c:
            # scalar zero keeps no information loss: exact zero
            return PuiseuxSeries.zero(field)
        mul = field.code_mul
        coeffs = {e: mul(c, v) for e, v in self.coeffs.items()}
        return PuiseuxSeries._from_valid(field, coeffs, self.n_ram, self.trunc)

    def shift(self, exponent):
        """The exact product with t**exponent: codes move on the grid and the
        truncation moves with them."""
        exponent = Fraction(exponent)
        n = self.n_ram * exponent.denominator // math.gcd(self.n_ram, exponent.denominator)
        step = exponent.numerator * (n // exponent.denominator)
        coeffs = {e + step: c for e, c in self._on_grid(n).items()}
        trunc = None if self.trunc is None else self.trunc + exponent
        return PuiseuxSeries._from_valid(self.field, coeffs, n, trunc)

    def __mul__(self, other):
        if isinstance(other, (int, FiniteFieldElement)):
            return self.scale(other)
        self._check_field(other)
        field = self.field
        ta, tb = self.trunc, other.trunc
        if (ta is None and not self.coeffs) or (tb is None and not other.coeffs):
            return PuiseuxSeries.zero(field)
        # product truncation: min(v(a)+T_b, v(b)+T_a), with the valuation
        # lower bound standing in for v on zero-at-precision factors
        if ta is None and tb is None:
            trunc = None
        elif ta is None:
            trunc = self.valuation_lower_bound() + tb
        elif tb is None:
            trunc = other.valuation_lower_bound() + ta
        else:
            trunc = min(
                self.valuation_lower_bound() + tb, other.valuation_lower_bound() + ta
            )
        if not self.coeffs or not other.coeffs:
            return PuiseuxSeries._from_valid(field, {}, 1, trunc)
        n, a, b = self._common_grid(other)
        out = code_product(field, a, b, _cut(trunc, n))
        return PuiseuxSeries._from_valid(field, out, n, trunc)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.invert() ** (-k)
        result = PuiseuxSeries.one(self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def invert(self, precision=None):
        """The multiplicative inverse, exact below the guaranteed truncation.

        For a truncated input the result is certified below ``T - 2*v``.
        An exact monomial inverts exactly; any other exact input produces an
        infinite series, truncated at ``precision`` (default
        ``DEFAULT_TRUNCATION``).
        """
        if self.is_exact_zero:
            raise ZeroDivisionError("inverse of the exact zero series")
        if self.is_zero_at_precision:
            raise PrecisionError(
                "cannot invert: zero at precision %s" % self.trunc
            )
        field = self.field
        n = self.n_ram
        low = min(self.coeffs)
        v = Fraction(low, n)
        if len(self.coeffs) == 1 and self.trunc is None:
            return PuiseuxSeries._from_valid(
                field, {-low: field.code_inv(self.coeffs[low])}, n, None
            )
        if self.trunc is not None:
            result_trunc = self.trunc - 2 * v
            if precision is not None:
                result_trunc = min(result_trunc, Fraction(precision))
        else:
            result_trunc = Fraction(
                precision if precision is not None else DEFAULT_TRUNCATION
            )
        # divide out t^v and invert the unit below bound = result_trunc + v
        m = max(0, math.ceil((result_trunc + v) * n))
        dense = [0] * m
        for e, c in self.coeffs.items():
            if e - low < m:
                dense[e - low] = c
        out = {}
        for e, c in enumerate(dense_unit_inverse(field, dense, m)):
            if c:
                out[e - low] = c
        return PuiseuxSeries._from_valid(field, out, n, result_trunc)

    def __truediv__(self, other):
        if isinstance(other, (int, FiniteFieldElement)):
            return self.scale(self.field.element(other).inverse())
        return self * other.invert()

    def pth_root(self):
        """The unique p-th root in characteristic p.

        Coefficients pass through the inverse of Frobenius; exponents divide
        by p, raising the ramification index when they must.
        """
        field = self.field
        p = field.p
        power, k = field.code_pow, p ** (field.degree - 1)
        if all(e % p == 0 for e in self.coeffs):
            coeffs = {e // p: power(c, k) for e, c in self.coeffs.items()}
            n = self.n_ram
        else:
            coeffs = {e: power(c, k) for e, c in self.coeffs.items()}
            n = self.n_ram * p
        trunc = None if self.trunc is None else self.trunc / p
        return PuiseuxSeries._from_valid(field, coeffs, n, trunc)

    def frobenius_power(self, k=1):
        """The p**k-th power, via c -> c**(p**k) and exponent scaling."""
        field = self.field
        q = field.p ** k
        power = field.code_pow
        coeffs = {e * q: power(c, q) for e, c in self.coeffs.items()}
        trunc = None if self.trunc is None else self.trunc * q
        return PuiseuxSeries._from_valid(field, coeffs, self.n_ram, trunc)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (
            self.field is other.field
            and self.n_ram == other.n_ram
            and self.coeffs == other.coeffs
            and self.trunc == other.trunc
        )

    __hash__ = None

    def agrees_with(self, other, below=None):
        """Equality of all coefficients below the common truncation."""
        self._check_field(other)
        bound = _min_trunc(self.trunc, other.trunc)
        bound = _min_trunc(bound, None if below is None else Fraction(below))
        n, a, b = self._common_grid(other)
        if bound is None:
            return a == b
        cut = _cut(bound, n)
        for e in set(a) | set(b):
            if e >= cut:
                continue
            if a.get(e, 0) != b.get(e, 0):
                return False
        return True

    def __repr__(self):
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(repr(c))
                continue
            t = "t" if e == 1 else "t^(%s)" % e if e.denominator > 1 else "t^%s" % e
            cs = repr(c)
            parts.append(t if cs == "1" else "%s*%s" % (cs if "+" not in cs else "(%s)" % cs, t))
        body = " + ".join(parts) if parts else "0"
        if self.trunc is not None:
            body += " + O(t^(%s))" % self.trunc
        return body
