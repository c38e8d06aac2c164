"""Truncated Puiseux series over a finite field.

A ``PuiseuxSeries`` holds finitely many exact coefficients of
``sum c_e * t**(e/N)`` together with a truncation order ``T``: coefficients
at exponents ``>= T`` are unknown, everything below ``T`` is exact.
``T = None`` means the stored terms are the whole series.

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


def dense_unit_inverse(a, m):
    """The first m coefficients of 1/a for a dense F_q list with a[0] != 0.

    Solves b_k = -a_0^{-1} * sum_{j >= 1} a_j * b_{k-j}, visiting only the
    nonzero a_j.
    """
    if not m:
        return []
    inv0 = a[0].inverse()
    neg_inv0 = -inv0
    support = [(j, c) for j, c in enumerate(a) if j and c]
    zero = inv0.field.zero()
    b = [inv0]
    for k in range(1, m):
        acc = None
        for j, c in support:
            if j > k:
                break
            if b[k - j]:
                term = c * b[k - j]
                acc = term if acc is None else acc + term
        b.append(zero if acc is None else neg_inv0 * acc)
    return b


class PuiseuxSeries:
    """A truncated series in t**(1/N) with exact finite-field coefficients."""

    __slots__ = ("field", "n_ram", "coeffs", "trunc")

    def __init__(self, field, coeffs, n_ram=1, trunc=None):
        """Low-level constructor; ``coeffs`` maps integer e to the
        coefficient of t**(e/n_ram).  Prefer the classmethod constructors.
        """
        if n_ram < 1:
            raise ComputationError("ramification index must be >= 1")
        if trunc is not None:
            trunc = Fraction(trunc)
        clean = {}
        for e, c in coeffs.items():
            if not isinstance(c, FiniteFieldElement):
                c = field.element(c)
            elif c.field != field:
                raise ComputationError("coefficient from a different field")
            if not c:
                continue
            if trunc is not None and Fraction(e, n_ram) >= trunc:
                continue
            clean[int(e)] = c
        # canonicalise the ramification index
        g = n_ram
        for e in clean:
            g = math.gcd(g, e)
            if g == 1:
                break
        if g > 1:
            clean = {e // g: c for e, c in clean.items()}
            n_ram //= g
        if not clean:
            n_ram = 1
        self.field = field
        self.n_ram = n_ram
        self.coeffs = clean
        self.trunc = trunc

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, field):
        """The exact zero series."""
        return cls(field, {}, 1, None)

    @classmethod
    def zero_at_precision(cls, field, trunc):
        """No known term below ``trunc``; not the exact zero."""
        return cls(field, {}, 1, trunc)

    @classmethod
    def constant(cls, field, c):
        return cls(field, {0: field.element(c)}, 1, None)

    @classmethod
    def one(cls, field):
        return cls.constant(field, 1)

    @classmethod
    def t_power(cls, field, exponent, coeff=1):
        """The exact monomial coeff * t**exponent."""
        exponent = Fraction(exponent)
        return cls(
            field,
            {exponent.numerator: field.element(coeff)},
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

    def coefficient(self, exponent):
        """The exact coefficient of t**exponent (zero if absent below T)."""
        exponent = Fraction(exponent)
        if self.trunc is not None and exponent >= self.trunc:
            raise PrecisionError(
                "coefficient at %s not known (truncation %s)"
                % (exponent, self.trunc)
            )
        q, r = divmod(exponent.numerator * self.n_ram, exponent.denominator)
        if r:
            return self.field.zero()
        return self.coeffs.get(q, self.field.zero())

    def terms(self):
        """Sorted list of (exponent, coefficient) pairs."""
        return [
            (Fraction(e, self.n_ram), c) for e, c in sorted(self.coeffs.items())
        ]

    def truncate(self, trunc):
        """Forget everything at exponents >= trunc."""
        return PuiseuxSeries(
            self.field, self.coeffs, self.n_ram, _min_trunc(self.trunc, trunc)
        )

    # -- arithmetic ---------------------------------------------------------

    def _check_field(self, other):
        if self.field != other.field:
            raise ComputationError("characteristic/field mismatch")

    def _on_grid(self, n):
        scale = n // self.n_ram
        if scale == 1:
            return self.coeffs
        return {e * scale: c for e, c in self.coeffs.items()}

    def __add__(self, other):
        if isinstance(other, (int, FiniteFieldElement)):
            other = PuiseuxSeries.constant(self.field, self.field.element(other))
        self._check_field(other)
        n = self.n_ram * other.n_ram // math.gcd(self.n_ram, other.n_ram)
        a = self._on_grid(n)
        b = other._on_grid(n)
        out = dict(a)
        for e, c in b.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return PuiseuxSeries(self.field, out, n, _min_trunc(self.trunc, other.trunc))

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries(
            self.field, {e: -c for e, c in self.coeffs.items()}, self.n_ram, self.trunc
        )

    def __sub__(self, other):
        if isinstance(other, (int, FiniteFieldElement)):
            other = PuiseuxSeries.constant(self.field, self.field.element(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """Multiply by a scalar from the coefficient field."""
        c = self.field.element(c)
        if not c:
            # scalar zero keeps no information loss: exact zero
            return PuiseuxSeries.zero(self.field)
        return PuiseuxSeries(
            self.field, {e: c * v for e, v in self.coeffs.items()}, self.n_ram, self.trunc
        )

    def __mul__(self, other):
        if isinstance(other, (int, FiniteFieldElement)):
            return self.scale(other)
        self._check_field(other)
        if self.is_exact_zero or other.is_exact_zero:
            return PuiseuxSeries.zero(self.field)
        # product truncation: min(v(a)+T_b, v(b)+T_a), with the valuation
        # lower bound standing in for v on zero-at-precision factors
        va = self.valuation_lower_bound()
        vb = other.valuation_lower_bound()
        if self.trunc is None and other.trunc is None:
            trunc = None
        else:
            trunc = INFINITY
            if other.trunc is not None:
                trunc = min(trunc, va + other.trunc)
            if self.trunc is not None:
                trunc = min(trunc, vb + self.trunc)
            trunc = Fraction(trunc)
        if not self.coeffs or not other.coeffs:
            return PuiseuxSeries(self.field, {}, 1, trunc)
        n = self.n_ram * other.n_ram // math.gcd(self.n_ram, other.n_ram)
        a = self._on_grid(n)
        b = other._on_grid(n)
        bound = None if trunc is None else trunc * n
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                if bound is not None and e >= bound:
                    continue
                s = out.get(e)
                prod = c1 * c2
                out[e] = prod if s is None else s + prod
        return PuiseuxSeries(self.field, out, n, trunc)

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
        v = self.valuation()
        lead = self.coeffs[min(self.coeffs)]
        if len(self.coeffs) == 1 and self.trunc is None:
            return PuiseuxSeries.t_power(self.field, -v, lead.inverse())
        if self.trunc is not None:
            result_trunc = self.trunc - 2 * v
            if precision is not None:
                result_trunc = min(result_trunc, Fraction(precision))
        else:
            result_trunc = Fraction(
                precision if precision is not None else DEFAULT_TRUNCATION
            )
        # divide out t^v and invert the unit below bound = result_trunc + v
        n = self.n_ram
        v_scaled = v.numerator * (n // v.denominator)
        m = max(0, math.ceil((result_trunc + v) * n))
        dense = [self.field.zero()] * m
        for e, c in self.coeffs.items():
            if e - v_scaled < m:
                dense[e - v_scaled] = c
        out = {}
        for e, c in enumerate(dense_unit_inverse(dense, m)):
            if c:
                out[e - v_scaled] = c
        return PuiseuxSeries(self.field, out, n, result_trunc)

    def __truediv__(self, other):
        if isinstance(other, (int, FiniteFieldElement)):
            return self.scale(self.field.element(other).inverse())
        return self * other.invert()

    def pth_root(self):
        """The unique p-th root in characteristic p.

        Coefficients pass through the inverse of Frobenius; exponents divide
        by p, raising the ramification index when they must.
        """
        p = self.field.p
        if all(e % p == 0 for e in self.coeffs):
            coeffs = {e // p: c.frobenius_inverse() for e, c in self.coeffs.items()}
            n = self.n_ram
        else:
            coeffs = {e: c.frobenius_inverse() for e, c in self.coeffs.items()}
            n = self.n_ram * p
        trunc = None if self.trunc is None else self.trunc / p
        return PuiseuxSeries(self.field, coeffs, n, trunc)

    def frobenius_power(self, k=1):
        """The p**k-th power, via c -> c**(p**k) and exponent scaling."""
        q = self.field.p ** k
        coeffs = {e * q: c ** q for e, c in self.coeffs.items()}
        trunc = None if self.trunc is None else self.trunc * q
        return PuiseuxSeries(self.field, coeffs, self.n_ram, trunc)

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (
            self.field == other.field
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
        n = self.n_ram * other.n_ram // math.gcd(self.n_ram, other.n_ram)
        a = self._on_grid(n)
        b = other._on_grid(n)
        if bound is None:
            return a == b
        cut = bound * n
        for e in set(a) | set(b):
            if e >= cut:
                continue
            if a.get(e, self.field.zero()) != b.get(e, self.field.zero()):
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
