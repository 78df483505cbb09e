"""Exact arithmetic in the field F = Q(sqrt3)(i).

Every number that appears in this package -- structure constants, bilinear
form entries, Killing traces, root eigenvalues -- lives in F.  A Scalar
stores four integer numerators over one positive denominator,
(a, b, c, d, n), and represents

    (a + b*sqrt(3) + (c + d*sqrt(3)) * i) / n

in lowest terms: gcd(a, b, c, d, n) = 1, so every element has exactly one
such form and zero is (0, 0, 0, 0, 1).  All arithmetic runs on Python ints;
the components are read back as Fractions through the properties a, b, c
and d.

The cube root of unity omega = -1/2 + (sqrt3/2) i is a unit of F, which is
what makes the Okubo product expressible here.  Signs of real elements are
decided exactly (no floating point anywhere).

`add_scaled` is the multiply-accumulate step acc[q] += x * v[q] of every
sparse sum in the package (linear combinations, eliminations, matrix
products, brackets).  It reads the integer fields directly, so each entry
forms the product's numerators, adds them over the common denominator and
normalises once, where `acc[q] + x * v[q]` builds two Scalars and
normalises twice; entries that cancel are deleted, never stored as zeros.
`dot` sums the products of a list of pairs into one Scalar, normalising
once.  `sort_key` orders a list of scalars as `key()` does, on their
integer parts over one denominator, with no Fraction.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, List, Sequence, Tuple

Rat = Fraction

_HASH_P = sys.hash_info.modulus

_new = object.__new__


def _make(a: int, b: int, c: int, d: int, n: int) -> "Scalar":
    """The Scalar (a + b r3 + (c + d r3) i)/n for ints with n > 0."""
    if n != 1:
        g = gcd(a, b, c, d, n)
        if g != 1:
            a //= g
            b //= g
            c //= g
            d //= g
            n //= g
    x = _new(Scalar)
    x._a = a
    x._b = b
    x._c = c
    x._d = d
    x._n = n
    return x


def _rat_hash(a: int, inv: int) -> int:
    """An int that hashes like Fraction(a, n), for inv = n^-1 mod _HASH_P.

    Python hashes a rational a/n as |a| * n^-1 mod P with the sign of a
    (and -1 read as -2, which hash() of the int returned here does too);
    as P is prime, this holds for a/n in lowest terms or not, as long as P
    does not divide n."""
    return a * inv % _HASH_P if a >= 0 else -(-a * inv % _HASH_P)


class Scalar:
    """An element a + b*r3 + (c + d*r3)*i of Q(sqrt3, i), exact.

    Scalar(a, b, c, d) takes ints, Fractions or anything Fraction()
    accepts (such as "2/3"); a, b, c and d read back as Fractions.
    """

    __slots__ = ("_a", "_b", "_c", "_d", "_n")

    def __init__(self, a=0, b=0, c=0, d=0):
        parts = [x if type(x) is Fraction else Fraction(x) for x in (a, b, c, d)]
        n = lcm(*(x.denominator for x in parts))
        # each part is in lowest terms, so over their lcm the gcd is 1
        self._a, self._b, self._c, self._d = (
            x.numerator * (n // x.denominator) for x in parts
        )
        self._n = n

    # -- construction helpers -------------------------------------------

    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, str):
            return parse_scalar(x)
        return Scalar(x)

    # -- components ------------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._n)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._n)

    @property
    def c(self) -> Fraction:
        return Fraction(self._c, self._n)

    @property
    def d(self) -> Fraction:
        return Fraction(self._d, self._n)

    @staticmethod
    def from_ints(a: int, b: int, c: int, d: int, n: int) -> "Scalar":
        """The Scalar (a + b r3 + (c + d r3) i)/n for ints with n > 0, in
        lowest terms: the inverse of `as_ints`."""
        return _make(a, b, c, d, n)

    def as_ints(self) -> tuple[int, int, int, int, int]:
        """(a, b, c, d, n): the value is (a + b r3 + (c + d r3) i)/n, in
        lowest terms with n > 0."""
        return (self._a, self._b, self._c, self._d, self._n)

    # -- predicates ------------------------------------------------------

    def __bool__(self) -> bool:
        return (self._a or self._b or self._c or self._d) != 0

    def is_real(self) -> bool:
        return not (self._c or self._d)

    def is_rational(self) -> bool:
        return not (self._b or self._c or self._d)

    # -- ring operations -------------------------------------------------

    def __add__(self, o: "Scalar") -> "Scalar":
        n1, n2 = self._n, o._n
        if n1 == n2:
            return _make(self._a + o._a, self._b + o._b, self._c + o._c,
                         self._d + o._d, n1)
        return _make(
            self._a * n2 + o._a * n1,
            self._b * n2 + o._b * n1,
            self._c * n2 + o._c * n1,
            self._d * n2 + o._d * n1,
            n1 * n2,
        )

    def __sub__(self, o: "Scalar") -> "Scalar":
        n1, n2 = self._n, o._n
        if n1 == n2:
            return _make(self._a - o._a, self._b - o._b, self._c - o._c,
                         self._d - o._d, n1)
        return _make(
            self._a * n2 - o._a * n1,
            self._b * n2 - o._b * n1,
            self._c * n2 - o._c * n1,
            self._d * n2 - o._d * n1,
            n1 * n2,
        )

    def __neg__(self) -> "Scalar":
        return _make(-self._a, -self._b, -self._c, -self._d, self._n)

    def __mul__(self, o: "Scalar") -> "Scalar":
        a1, b1, c1, d1, n1 = self._a, self._b, self._c, self._d, self._n
        a2, b2, c2, d2, n2 = o._a, o._b, o._c, o._d, o._n
        # fast path: right factor rational (very common: scaling)
        if not (b2 or c2 or d2):
            if not a2:
                return _ZERO
            return _make(a1 * a2, b1 * a2, c1 * a2, d1 * a2, n1 * n2)
        if not (b1 or c1 or d1):
            if not a1:
                return _ZERO
            return _make(a1 * a2, a1 * b2, a1 * c2, a1 * d2, n1 * n2)
        return _make(
            a1 * a2 + 3 * b1 * b2 - c1 * c2 - 3 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + 3 * b1 * d2 + c1 * a2 + 3 * d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
            n1 * n2,
        )

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("inverse of 0 in Q(sqrt3, i)")
        a, b, c, d, n = self._a, self._b, self._c, self._d, self._n
        # |z|^2 = x^2 + y^2 with x = a+b r3, y = c+d r3: a real element e + f r3
        e = a * a + 3 * b * b + c * c + 3 * d * d
        f = 2 * (a * b + c * d)
        # 1/(e + f r3) = (e - f r3)/g, and g = (e + f r3)(e - f r3) > 0 since
        # both factors are sums of two real squares, not both zero
        g = e * e - 3 * f * f
        # n * conj(z) * (e - f r3) / g
        return _make(
            n * (a * e - 3 * b * f),
            n * (b * e - a * f),
            -n * (c * e - 3 * d * f),
            -n * (d * e - c * f),
            g,
        )

    def __truediv__(self, o: "Scalar") -> "Scalar":
        if not (o._b or o._c or o._d):  # rational divisor p/q
            p, q = o._a, o._n
            if not p:
                raise ZeroDivisionError("division by 0")
            if p < 0:
                p, q = -p, -q
            return _make(self._a * q, self._b * q, self._c * q, self._d * q,
                         self._n * p)
        return self * o.inverse()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "Scalar":
        """Complex conjugation (the involution fixing Q(sqrt3))."""
        return _make(self._a, self._b, -self._c, -self._d, self._n)

    # -- order structure on the real subfield ----------------------------

    def sign(self) -> int:
        """Exact sign of a real element; raises on non-real input."""
        if self._c or self._d:
            raise ValueError("sign() of a non-real scalar")
        # n > 0, so the sign is that of the numerator a + b r3
        a, b = self._a, self._b
        if not b:
            return (a > 0) - (a < 0)
        if not a:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        s = a * a - 3 * b * b  # sign of (a + b r3)(a - b r3)
        if s == 0:
            raise ArithmeticError("sqrt3 is irrational; a^2 = 3 b^2 forces 0")
        # here a and b have opposite signs, so sign(a - b r3) = sign(a)
        return (1 if s > 0 else -1) * (1 if a > 0 else -1)

    # -- parts -----------------------------------------------------------

    def real(self) -> "Scalar":
        return _make(self._a, self._b, 0, 0, self._n)

    def imag(self) -> "Scalar":
        """The real element c + d*r3 (coefficient of i)."""
        return _make(self._c, self._d, 0, 0, self._n)

    # -- hashing / comparison / display ----------------------------------

    def __eq__(self, o) -> bool:
        if not isinstance(o, Scalar):
            return NotImplemented
        return (
            self._a == o._a
            and self._b == o._b
            and self._c == o._c
            and self._d == o._d
            and self._n == o._n
        )

    def __hash__(self):
        # the hash of the Fraction components; an int hashes like the
        # Fraction of the same value, so n == 1 needs no Fractions
        n = self._n
        if n == 1:
            return hash((self._a, self._b, self._c, self._d))
        if n % _HASH_P == 0:
            return hash((self.a, self.b, self.c, self.d))
        inv = pow(n, -1, _HASH_P)
        return hash((_rat_hash(self._a, inv), _rat_hash(self._b, inv),
                     _rat_hash(self._c, inv), _rat_hash(self._d, inv)))

    def key(self):
        """Deterministic sort key (component order; not a field order)."""
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"Scalar({self.to_str()!r})"

    def __str__(self) -> str:
        return self.to_str()

    def to_str(self) -> str:
        """Render as 'a + b*r3 + (c + d*r3)*i' with zero terms omitted."""
        parts = []
        if self._a:
            parts.append(str(self.a))
        if self._b:
            parts.append(f"{self.b}*r3")
        if self._c and self._d:
            inner = f"{self.c} + {self.d}*r3".replace("+ -", "- ")
            parts.append(f"({inner})*i")
        elif self._c:
            parts.append(f"{self.c}*i")
        elif self._d:
            parts.append(f"{self.d}*r3*i")
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")


class _Parser:
    """Recursive-descent parser for the scalar text form.

    Accepts any +,-,* combination of rational literals, 'r3', 'i' and
    parenthesized subexpressions, which covers the canonical rendering.
    """

    def __init__(self, text: str):
        self.toks = self._lex(text)
        self.pos = 0

    @staticmethod
    def _lex(text: str):
        toks = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*()":
                toks.append(ch)
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and (text[j].isdigit() or text[j] == "/"):
                    j += 1
                toks.append(text[i:j])
                i = j
                continue
            if text.startswith("r3", i):
                toks.append("r3")
                i += 2
                continue
            if ch == "i":
                toks.append("i")
                i += 1
                continue
            raise ValueError(f"bad character {ch!r} in scalar literal")
        return toks

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> Scalar:
        val = self.expr()
        if self.peek() is not None:
            raise ValueError("trailing tokens in scalar literal")
        return val

    def expr(self) -> Scalar:
        neg = False
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                neg = not neg
        val = self.term()
        if neg:
            val = -val
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self) -> Scalar:
        val = self.factor()
        while self.peek() == "*":
            self.next()
            val = val * self.factor()
        return val

    def factor(self) -> Scalar:
        tok = self.peek()
        if tok == "(":
            self.next()
            val = self.expr()
            if self.next() != ")":
                raise ValueError("unbalanced parenthesis in scalar literal")
            return val
        if tok == "-":
            self.next()
            return -self.factor()
        if tok == "r3":
            self.next()
            return SQRT3
        if tok == "i":
            self.next()
            return IUNIT
        if tok is None:
            raise ValueError("unexpected end of scalar literal")
        self.next()
        return Scalar(Rat(tok))


def parse_scalar(text: str) -> Scalar:
    return _Parser(text).parse()


def sc(x) -> Scalar:
    """Coerce an int, Fraction, string or Scalar into a Scalar."""
    return Scalar.of(x)


ZERO = Scalar(0)
ONE = Scalar(1)
TWO = Scalar(2)
HALF = Scalar(Rat(1, 2))
SQRT3 = Scalar(0, 1)
IUNIT = Scalar(0, 0, 1)
OMEGA = Scalar(Rat(-1, 2), 0, 0, Rat(1, 2))  # primitive cube root of unity

_ZERO = ZERO
_ONE = ONE


def sort_key(values: Iterable[Scalar]) -> Callable[[Scalar], Tuple[int, int, int, int]]:
    """A sort key that orders the given values as `Scalar.key` does, with
    no Fraction: the integer parts of D x, for D the lcm of the values'
    denominators.  Multiplying by D > 0 keeps the order of each of the
    four components, so the lexicographic order is the same.  The key is
    meant for the given values only: D need not clear other denominators."""
    den = lcm(*(x._n for x in values))

    def key(x: Scalar) -> Tuple[int, int, int, int]:
        f = den // x._n
        return (x._a * f, x._b * f, x._c * f, x._d * f)

    return key


def add_product_ints(acc: List[int], x: List[int], w: List[int], coef: int) -> None:
    """acc += coef * x * w on integer parts [a, b, c, d], read as
    a + b sqrt3 + (c + d sqrt3) i: the multiply-accumulate of a sum kept
    on Python ints over a cleared denominator, which `Scalar.from_ints`
    normalises once at the end.  `Scalar.__mul__` and `add_scaled` write
    the same product inline, as it runs once per entry of their loops."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = w
    if coef != 1:
        a1, b1, c1, d1 = coef * a1, coef * b1, coef * c1, coef * d1
    if b1 or c1 or d1 or b2 or c2 or d2:
        acc[0] += a1 * a2 + 3 * b1 * b2 - c1 * c2 - 3 * d1 * d2
        acc[1] += a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
        acc[2] += a1 * c2 + 3 * b1 * d2 + c1 * a2 + 3 * d1 * b2
        acc[3] += a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
    else:
        acc[0] += a1 * a2


def dot(pairs: Sequence[Tuple[Scalar, Scalar]]) -> Scalar:
    """The sum of x * y over the (x, y) pairs, normalised once: the
    integer parts of each product are added with `add_product_ints` over
    the lcm of the denominators so far, where `sum` of the products would
    normalise twice per pair."""
    if len(pairs) < 2:
        return pairs[0][0] * pairs[0][1] if pairs else _ZERO
    acc = [0, 0, 0, 0]
    den = 1
    for x, y in pairs:
        m = x._n * y._n
        if den % m:
            k = m // gcd(den, m)
            acc = [t * k for t in acc]
            den *= k
        add_product_ints(acc, [x._a, x._b, x._c, x._d], [y._a, y._b, y._c, y._d], den // m)
    return _make(acc[0], acc[1], acc[2], acc[3], den)


def add_scaled(acc: dict, x: Scalar, v: dict) -> None:
    """acc[q] += x * v[q] for every q in v, in place, and acc[q] is deleted
    where the sum vanishes, so no zero is stored.

    This is the multiply-accumulate step of every sparse sum in the
    package.  Each entry forms the integer numerators of x * v[q] (with
    the rational-factor fast paths of `Scalar.__mul__`), adds them to
    acc[q] over the common denominator and normalises once; the result
    equals acc.get(q, ZERO) + x * v[q], since a Scalar has one normal form.
    """
    a1, b1, c1, d1, n1 = x._a, x._b, x._c, x._d, x._n
    x_rational = not (b1 or c1 or d1)
    if x_rational and not a1:
        return
    b3, d3 = 3 * b1, 3 * d1
    get = acc.get
    for q, y in v.items():
        a2, b2, c2, d2 = y._a, y._b, y._c, y._d
        if x_rational:
            a, b, c, d = a1 * a2, a1 * b2, a1 * c2, a1 * d2
        elif not (b2 or c2 or d2):
            a, b, c, d = a1 * a2, b1 * a2, c1 * a2, d1 * a2
        else:
            a = a1 * a2 + b3 * b2 - c1 * c2 - d3 * d2
            b = a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
            c = a1 * c2 + b3 * d2 + c1 * a2 + d3 * b2
            d = a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
        m = n1 * y._n
        s = get(q)
        if s is None:
            if a or b or c or d:
                acc[q] = _make(a, b, c, d, m)
            continue
        n = s._n
        if n == m:
            a += s._a
            b += s._b
            c += s._c
            d += s._d
        else:
            a = s._a * m + a * n
            b = s._b * m + b * n
            c = s._c * m + c * n
            d = s._d * m + d * n
            m *= n
        if a or b or c or d:
            acc[q] = _make(a, b, c, d, m)
        else:
            del acc[q]
