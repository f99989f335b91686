"""Arithmetic in small finite fields GF(p^k).

Field elements are plain integers in ``[0, q)`` with ``q = p**k``.  For
``k == 1`` an encoding is the residue mod p.  For ``k > 1`` the base-p
digits of the encoding, least significant first, are the coefficients of
a polynomial over GF(p); multiplication reduces modulo a fixed monic
irreducible polynomial of degree k.  The modulus is always the canonical
one (smallest encoding), so element encodings are identical across runs.

Arithmetic is table-driven.  For each (p, k) one :class:`Arithmetic` is
built on first use and shared by every equal ``Field``: the powers of a
fixed generator g (exp) and their discrete logarithms (log), so that a
product of nonzero elements is ``exp[log a + log b]`` and an inverse is
``exp[q - 1 - log a]``.  Prime fields add and multiply with ``% p``,
characteristic 2 adds with XOR, and odd extension fields add through a
Zech-log table (``1 + g^d = g^zech[d]``).  Every table holds O(q)
entries, so fields up to ``MAX_ORDER`` fit.

The public ``Field`` methods check their operands and raise on bad ones.
``Field.unchecked`` carries add, neg, mul, inv and pow without checks,
plus the row operations of Gaussian elimination; it is for code that
works on elements already validated at the boundary.
"""

from __future__ import annotations

import functools
import operator

# Desk-scale combinatorics only; anything larger is a caller mistake.
MAX_ORDER = 1 << 16
# Largest degree k of any admissible GF(p^k): 2^k <= MAX_ORDER.
MAX_DEGREE = MAX_ORDER.bit_length() - 1


def exceeds_max_order(q: int, d: int) -> bool:
    """q^d > MAX_ORDER for a field order q >= 2: the bound on any walk over
    the q^d vectors of F_q^d.  d > MAX_DEGREE already implies it, so a huge
    d is refused without forming the power."""
    return d > MAX_DEGREE or q ** d > MAX_ORDER


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending."""
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


# ---------------------------------------------------------------------------
# Polynomials over GF(p): coefficient lists, least significant first.

def _digits(e: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(e % p)
        e //= p
    return out


def _undigits(coeffs, p: int) -> int:
    e = 0
    for c in reversed(coeffs):
        e = e * p + c
    return e


def _poly_mul(p: int, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(p: int, a, mod):
    """Remainder of a modulo a monic polynomial mod (degree >= 1)."""
    a = list(a)
    d = len(mod) - 1
    while len(a) > d:
        c = a[-1]
        if c:
            off = len(a) - 1 - d
            for j in range(d + 1):
                a[off + j] = (a[off + j] - c * mod[j]) % p
        a.pop()
    while len(a) < d:
        a.append(0)
    return a


def _is_irreducible(p: int, poly) -> bool:
    """Trial division of a monic polynomial by every smaller monic divisor.

    A monic polynomial of degree k >= 2 is reducible iff it has a monic
    factor of degree between 1 and k // 2, so this test is complete.
    """
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for enc in range(p ** d):
            divisor = _digits(enc, p, d) + [1]
            if not any(_poly_rem(p, poly, divisor)):
                return False
    return True


@functools.cache
def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Canonical degree-k modulus: the monic irreducible with smallest encoding."""
    for enc in range(p ** k):
        poly = _digits(enc, p, k) + [1]
        if _is_irreducible(p, poly):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # cannot happen


# ---------------------------------------------------------------------------
# Tables.

def _poly_field_mul(p: int, k: int, modulus, a: int, b: int) -> int:
    """a * b in GF(p^k) by the polynomial definition, without tables."""
    if k == 1:
        return a * b % p
    prod = _poly_mul(p, _digits(a, p, k), _digits(b, p, k))
    return _undigits(_poly_rem(p, prod, modulus), p)


def _powers(p: int, k: int, modulus, g: int) -> list[int]:
    """g^0, g^1, ..., g^(q-2): the exp table.

    For k > 1, multiplying by g is GF(p)-linear in the digits, so g * a is
    g * (low digits of a) plus g * (high digits of a), digit-wise.  Both
    halves are looked up in tables of p^(k//2) and p^(k - k//2) products,
    built by the polynomial definition; in characteristic 2 the digit-wise
    sum is XOR.
    """
    q = p ** k
    out = [1] * (q - 1)
    if k == 1:
        for i in range(1, q - 1):
            out[i] = out[i - 1] * g % p
        return out
    split = p ** (k // 2)
    low = [_poly_field_mul(p, k, modulus, g, a) for a in range(split)]
    high = [_poly_field_mul(p, k, modulus, g, a * split) for a in range(q // split)]
    e = 1
    if p == 2:
        shift = k // 2
        for i in range(1, q - 1):
            e = out[i] = low[e & split - 1] ^ high[e >> shift]
        return out
    low = [_digits(x, p, k) for x in low]
    high = [_digits(x, p, k) for x in high]
    for i in range(1, q - 1):
        lo, hi = low[e % split], high[e // split]
        e = out[i] = _undigits([(u + v) % p for u, v in zip(lo, hi)], p)
    return out


def _generator(p: int, k: int, modulus) -> int:
    """Smallest encoding of multiplicative order q - 1: g generates iff
    g^((q-1)/r) != 1 for every prime r dividing q - 1."""
    q = p ** k
    exponents = [(q - 1) // r for r in prime_factors(q - 1)]

    def power(g: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = _poly_field_mul(p, k, modulus, result, g)
            g = _poly_field_mul(p, k, modulus, g, g)
            e >>= 1
        return result

    return next(g for g in range(1, q) if all(power(g, e) != 1 for e in exponents))


class Arithmetic:
    """Unchecked operations on the encodings of one GF(p^k).

    Operands must be valid encodings (and nonzero for inv); nothing is
    checked.  scale(c, row) and sub_scaled(x, c, y) are the row operations
    of Gaussian elimination: c*y and the fused update x - c*y, as lists.
    Multiplication goes through the exp/log tables of the generator;
    subclasses supply add and neg.
    """

    def __init__(self, p: int, k: int, modulus):
        q = p ** k
        self.p, self.q, self.order = p, q, q - 1
        exp = _powers(p, k, modulus, _generator(p, k, modulus))
        log = [0] * q
        for i, e in enumerate(exp):
            log[e] = i
        self.exp = exp + exp  # exp[log a + log b] needs no reduction
        self.log = log

    def mul(self, a: int, b: int) -> int:
        if a and b:
            return self.exp[self.log[a] + self.log[b]]
        return 0

    def inv(self, a: int) -> int:
        return self.exp[self.order - self.log[a]]

    def pow(self, a: int, e: int) -> int:
        if not a:
            return 0 if e else 1
        return self.exp[self.log[a] * e % self.order]

    def scale(self, c: int, row) -> list[int]:
        if not c:
            return [0] * len(row)
        exp, log = self.exp, self.log
        lc = log[c]
        return [exp[lc + log[y]] if y else 0 for y in row]


class _PrimeArithmetic(Arithmetic):
    """GF(p): residues mod p; the tables serve inv and pow only."""

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def scale(self, c: int, row) -> list[int]:
        p = self.p
        return [c * y % p for y in row]

    def sub_scaled(self, x, c: int, y) -> list[int]:
        p = self.p
        return [(a - c * b) % p for a, b in zip(x, y)]


class _BinaryArithmetic(Arithmetic):
    """GF(2^k), k > 1: addition is XOR and every element is its own negative."""

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def neg(self, a: int) -> int:
        return a

    def sub_scaled(self, x, c: int, y) -> list[int]:
        if not c:
            return list(x)
        exp, log = self.exp, self.log
        lc = log[c]
        return [a ^ exp[lc + log[b]] if b else a for a, b in zip(x, y)]


class _ZechArithmetic(Arithmetic):
    """GF(p^k), p odd, k > 1: addition through Zech logarithms.

    zech[d] = log(1 + g^d), or -1 where 1 + g^d = 0, i.e. d = (q-1)/2, the
    log of -1.  Then g^a + g^b = g^(a + zech[b - a]).
    """

    def __init__(self, p: int, k: int, modulus):
        super().__init__(p, k, modulus)
        exp, log = self.exp, self.log
        self.half = self.order // 2
        zech = []
        for d in range(self.order):
            e = exp[d]
            one_more = e - e % p + (e + 1) % p  # adds 1 to the constant digit
            zech.append(log[one_more] if one_more else -1)
        self.zech = zech

    def _add_logs(self, la: int, lb: int) -> int:
        z = self.zech[(lb - la) % self.order]
        return self.exp[la + z] if z >= 0 else 0

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        return self._add_logs(self.log[a], self.log[b])

    def neg(self, a: int) -> int:
        return self.exp[self.log[a] + self.half] if a else 0

    def sub_scaled(self, x, c: int, y) -> list[int]:
        if not c:
            return list(x)
        exp, log, add_logs = self.exp, self.log, self._add_logs
        neg_lc = (log[c] + self.half) % self.order  # log(-c)
        out = []
        for a, b in zip(x, y):
            if not b:
                out.append(a)
            elif not a:
                out.append(exp[neg_lc + log[b]])
            else:
                out.append(add_logs(log[a], neg_lc + log[b]))
        return out


@functools.cache
def arithmetic(p: int, k: int) -> Arithmetic:
    """The shared tables of GF(p^k); p and k must already be validated."""
    if k == 1:
        return _PrimeArithmetic(p, 1, ())
    cls = _BinaryArithmetic if p == 2 else _ZechArithmetic
    return cls(p, k, smallest_irreducible(p, k))


# ---------------------------------------------------------------------------

class _Value:
    """Base of the immutable value classes: ``@dataclass(frozen=True)``
    semantics without importing ``dataclasses`` or compiling code per class.
    A subclass's own annotations, in order, are its fields; class attributes
    of their names are defaults.  Equality (same class only), hash and repr
    read the fields alone, not attributes kept beside them.  The fields are
    read from the class ``__dict__``, where a module with ``from __future__
    import annotations`` keeps them on every Python version; a subclass must
    live in such a module."""

    def __init_subclass__(cls):
        own = cls.__dict__
        names = cls._fields = cls.__match_args__ = tuple(own.get("__annotations__", ()))
        if not names:
            raise TypeError(f"{cls.__qualname__} has no annotated fields in its __dict__; "
                            "is its module missing 'from __future__ import annotations'?")
        required = max((i + 1 for i, name in enumerate(names) if name not in own), default=0)
        cls._defaults = tuple(own[name] for name in names[required:])
        get = operator.attrgetter(*names)
        cls._values = staticmethod(get if len(names) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        set_field = object.__setattr__  # self.__dict__ would give each instance a dict
        for name, value in zip(fields, args):
            set_field(self, name, value)
        self.__post_init__()

    def _bind(self, args, kwargs) -> tuple:
        """Field values of a call with keywords or trailing defaults, or TypeError."""
        fields, defaults = self._fields, self._defaults
        missing = len(fields) - len(args)
        if not kwargs and 0 < missing <= len(defaults):
            return args + defaults[len(defaults) - missing:]
        values = dict(zip(fields[len(fields) - len(defaults):], defaults))
        values.update(zip(fields, args), **kwargs)
        if (missing < 0 or values.keys() != set(fields)
                or not kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {fields}, got "
                            f"{len(args)} positional arguments and keywords {list(kwargs)}")
        return tuple(values[name] for name in fields)

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Field(_Value):
    """GF(p^k) acting on integer-encoded elements.

    ``modulus`` holds the k+1 ascending coefficients of the canonical
    irreducible modulus; by convention it is empty for prime fields.
    Instances are immutable and all operations are pure.  ``unchecked``
    is the shared :class:`Arithmetic` of (p, k); it is not part of the
    value, so equal fields compare and hash equal.
    """

    p: int
    k: int = 1
    modulus: tuple[int, ...] = ()

    def __post_init__(self):
        # Bound p and k first: the primality test and p ** k cost time
        # that grows with them.
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.p > MAX_ORDER or self.k > MAX_DEGREE:
            raise ValueError(f"field order {self.p}^{self.k} exceeds {MAX_ORDER}")
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.p ** self.k > MAX_ORDER:
            raise ValueError(f"field order {self.p}^{self.k} exceeds {MAX_ORDER}")
        mod = tuple(self.modulus)
        if self.k == 1:
            if mod:
                raise ValueError("prime fields carry no modulus")
        else:
            canonical = smallest_irreducible(self.p, self.k)
            if mod == ():
                mod = canonical
            elif mod != canonical:
                raise ValueError(
                    f"modulus {mod} is not the canonical irreducible {canonical}")
        object.__setattr__(self, "modulus", mod)
        object.__setattr__(self, "unchecked", arithmetic(self.p, self.k))

    @property
    def q(self) -> int:
        return self.unchecked.q

    def elements(self) -> range:
        return range(self.q)

    def check(self, a: int) -> int:
        # bool is a subclass of int, but True and False are not encodings.
        if type(a) is not int or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element encoding of GF({self.q})")
        return a

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        return self.unchecked.add(a, b)

    def sub(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        return self.unchecked.add(a, self.unchecked.neg(b))

    def neg(self, a: int) -> int:
        self.check(a)
        return self.unchecked.neg(a)

    def mul(self, a: int, b: int) -> int:
        self.check(a), self.check(b)
        return self.unchecked.mul(a, b)

    def inv(self, a: int) -> int:
        self.check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.unchecked.inv(a)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        self.check(a)
        return self.unchecked.pow(a, e)


def make_field(p: int, k: int = 1) -> Field:
    """GF(p^k) with the deterministic canonical modulus."""
    return Field(p, k)
