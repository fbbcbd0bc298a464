"""Weight-truncated multivariate polynomials over exact rationals.

Variables carry a grading tag and an integer weight; a polynomial carries
one cutoff per grading and drops any monomial exceeding a cutoff, eagerly,
in every operation.  The ring is exact and never touches floating point.

A `Poly` stores integer numerators over one common denominator
(`nums: dict[int, int]`, `den: int`), kept canonical: `den > 0`, no
factor common to `den` and every numerator, and `den == 1` for zero, so
equal polynomials have equal storage and `==` and `hash` compare it
directly.  Every operation works on the integers and divides out one gcd
at the end; no per-term `Fraction` is formed.  A `Poly` is not changed
after it is built.

Each monomial is one int, a packed exponent vector laid out by its
`VariableTable` in 16-bit fields: from the top, the total weight, the
weight in each grading (in the table's grading order), then the exponent
of each variable (variable 0 most significant).  The top bit of every
field is a guard; a field holds at most `FIELD_MAX` = 2^15 - 1.  The
variable's unit key holds exponent 1 and its weight in its grading's field
and the total, so a product of monomials is the sum of their keys, a
derivative subtracts a unit and a time shift adds multiples of units,
the weights following along.  Stored keys keep every guard clear, so the
sum of two keys cannot carry between fields, and a result key with a
guard set is a field overflow: it raises `ValueError` instead of spilling
into the next field.  Cutoffs above `FIELD_MAX` raise as well, and so does
a negative exponent.  Truncation reads the weight fields alone: adding
FIELD_MAX - cutoff to each bounded grading's field sets a guard exactly
where a weight exceeds its cutoff (`VariableTable._bounds`, memoized per
distinct cutoffs).  Tuple keys, sorted
((variable index, exponent), ...), appear only at the boundary: the
constructor, `terms`, `coefficient`, `sorted_terms`, JSON, `evaluate`,
`embed` and `VariableTable.weight_of`.  Other modules build packed keys
with `VariableTable.encode` and polynomials from them with
`Poly.from_numerators` (or `Poly.from_numerator_rows`, many at once).

The report order (`_sorted_nums`, used by `to_json` and `report_rows`)
is by total weight, then by the weights per grading, then by tuple key.
It is the int order of (key & HIGH) | ((key + C) & LOW), where HIGH keeps
the weight fields, LOW the value bits of the exponent fields and C holds
2^15 - 1 in every exponent field: an absent variable then sorts after
any present power, as a shorter tuple does.  Only a table with a weight-0
variable can tie two weights on keys where one tuple extends the other,
so such a table sorts by decoded tuples instead.  `report_rows`, the
terms' text in the CLI's reports, reads each term's exponents off its
packed key a chunk of adjacent fields at a time, with no decoding.

The standard setup has time variables t_1..t_D of weight k in one grading
(only K = D of them are materialized at cutoff D, since t_k with k > D
cannot enter a weight-<=D monomial), optional second-family times, and
unit-weight formal parameters (inverse spectral points, couplings) that may
share a grading with the times so that "total weight" bounds shift degree
and time weight together.

Products are graded: each operand's terms are bucketed by their weight
fields in the bounded gradings, and only bucket pairs whose weights sum
within the cutoffs are multiplied.  Weights add under multiplication, so
every monomial formed survives the truncation and none is formed only to
be dropped.  A polynomial caches its buckets on first use, so an operand
that enters many products is bucketed once.  A polynomial's terms always
lie within its own cutoffs, so a sum re-truncates only when a cutoff
tightens.

Loops that sum many polynomials add in place into one private dict over a
running denominator (`_Sum`), rescaled to the lcm only when an addend's
denominator does not divide it; a Schur expansion sums on one.  A sum of
weighted products (a double Schur sum, the Leibniz terms of a Hirota
bilinear) forms no product polynomial: `sum_of_products` multiplies every
pair's numerators into one dict over one common denominator, fixed before
the first addend.  The Leibniz terms of a Hirota bilinear share the
partial derivatives of each factor, memoized by multi-index (`_Partials`),
and time shifts expand each power of a shifted time by integer binomials
instead of multiplying `Poly` powers.  The whole family h_0(+-d~), ...,
h_top(+-d~) acts on a polynomial in one sweep over its keys
(`TimeFamily.miwa_parts`): h_j(+-d~) p is the coefficient of w^j in
p(s +- [w]), read off the binomial expansion of each monomial, with no
derivative formed.  A Hirota bilinear residual compared only through some
weight (`hirota_bilinear`'s `within`) truncates each partial to that
weight before it multiplies.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce, wraps
from inspect import signature
from itertools import compress, product, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import comb, gcd, lcm, perm, prod
from operator import and_, mul, or_, rshift
from struct import Struct

Scalar = Fraction | int

MonomialKey = tuple[tuple[int, int], ...]  # sorted ((var_index, exponent), ...)

FIELD_BITS = 16
FIELD_MAX = (1 << FIELD_BITS - 1) - 1  # the largest exponent or weight a field holds
_FIELD = (1 << FIELD_BITS) - 1
_CHUNK = 8  # the most exponent fields the report writer reads as one


def _overflow() -> ValueError:
    return ValueError(f"a monomial exponent or weight exceeds {FIELD_MAX}")


@dataclass(frozen=True)
class Variable:
    name: str
    grading: str
    weight: int

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError(f"variable {self.name} has negative weight")


class VariableTable:
    """Ordered, name-unique list of graded variables, and the packed layout
    of a monomial key over them (see the module docstring)."""

    def __init__(self, variables: Iterable[Variable]):
        self.variables = tuple(variables)
        self.index = {v.name: i for i, v in enumerate(self.variables)}
        if len(self.index) != len(self.variables):
            raise ValueError("duplicate variable names")
        for v in self.variables:
            if v.weight > FIELD_MAX:
                raise ValueError(f"variable {v.name} has weight above {FIELD_MAX}")
        self.gradings = tuple(sorted({v.grading for v in self.variables}))
        n, width = len(self.variables), len(self.gradings)
        # the exponent field of each variable, then each grading's weight field
        self.shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        base = FIELD_BITS * n
        self.grading_shifts = {
            g: base + FIELD_BITS * (width - 1 - j) for j, g in enumerate(self.gradings)
        }
        total = base + FIELD_BITS * width
        self.units = tuple(
            (1 << s) + (v.weight << self.grading_shifts[v.grading]) + (v.weight << total)
            for s, v in zip(self.shifts, self.variables)
        )
        # the most a unit adds to any one field
        self._spans = tuple(max(v.weight, 1) for v in self.variables)
        self.guards = sum(1 << FIELD_BITS * j + FIELD_BITS - 1 for j in range(n + width + 1))
        self._low = sum(FIELD_MAX << s for s in self.shifts)
        self._high = -1 << base
        self._weightless = any(v.weight == 0 for v in self.variables)
        self._bounds_memo: dict[tuple, tuple[dict[str, int | None], int, int]] = {}
        # every field of a key at once, most significant first
        self._fields = Struct(f">{n + width + 1}H").unpack
        self._bytes = 2 * (n + width + 1)
        # the variables in name order, cut into chunks of at most _CHUNK
        # variables adjacent in the key, so that each chunk's exponents are
        # one bit range: (shift of its last field, mask, its indices)
        runs: list[list[int]] = []
        for i in sorted(range(n), key=lambda i: self.variables[i].name):
            if runs and runs[-1][-1] == i - 1 and len(runs[-1]) < _CHUNK:
                runs[-1].append(i)
            else:
                runs.append([i])
        self._name_chunks = tuple(
            (self.shifts[run[-1]], (1 << FIELD_BITS * len(run)) - 1, tuple(run)) for run in runs
        )
        # equality and hash by plain tuples: tables are compared and hashed
        # at every memo lookup and every binary operation
        self._key = tuple((v.name, v.grading, v.weight) for v in self.variables)
        self._hash = hash(self._key)

    def var(self, name: str) -> Variable:
        return self.variables[self.index[name]]

    def weight_of(self, key: MonomialKey, grading: str) -> int:
        w = 0
        for idx, e in key:
            v = self.variables[idx]
            if v.grading == grading:
                w += v.weight * e
        return w

    def _bounds(self, cutoffs: Mapping[str, int | None]) -> tuple[dict[str, int | None], int, int]:
        """(the cutoffs over every grading, mask, add), memoized per distinct
        cutoffs: a key lies within them exactly when ((key & mask) + add) &
        guards is 0.  `mask` keeps the weight fields of the bounded gradings
        and `add` holds FIELD_MAX - cutoff in each, so a weight above its
        cutoff reaches the guard; a negative cutoff on a grading the table
        lacks admits nothing, as on one it has.  The completed dict is
        shared by every polynomial built on it and never changed."""
        memo_key = tuple(cutoffs.items())
        got = self._bounds_memo.get(memo_key)
        if got is None:
            cut = dict(_checked(cutoffs))
            for g in self.gradings:
                cut.setdefault(g, None)
            mask = add = 0
            for g, c in cut.items():
                if c is None:
                    continue
                if g in self.grading_shifts:
                    mask |= FIELD_MAX << self.grading_shifts[g]
                    add += FIELD_MAX - max(c, -1) << self.grading_shifts[g]
                elif c < 0:
                    add |= self.guards & -self.guards  # the lowest guard, in a field mask skips
            got = self._bounds_memo[memo_key] = (cut, mask, add)
        return got

    def encode(self, pairs: Iterable[tuple[int, int]]) -> int:
        """The packed key of the monomial prod x_i^e over (i, e) pairs;
        a zero exponent adds nothing.  Raises ValueError on a negative
        exponent or on a field overflow."""
        out = 0
        for i, e in pairs:
            if e < 0:
                raise ValueError(f"negative exponent {e} of {self.variables[i].name}")
            if e * self._spans[i] > FIELD_MAX:
                raise _overflow()
            out += e * self.units[i]
            if out & self.guards:
                raise _overflow()
        return out

    def decode(self, key: int) -> MonomialKey:
        """The sorted ((variable index, exponent), ...) tuple of a key."""
        exps = self._fields(key.to_bytes(self._bytes, "big"))[len(self.gradings) + 1 :]
        return tuple(compress(enumerate(exps), exps))

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, VariableTable) and self._key == other._key)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"VariableTable({[v.name for v in self.variables]})"


def time_variables(grading: str, count: int, prefix: str = "t") -> list[Variable]:
    """t_1..t_count with weight k, all in one grading."""
    return [Variable(f"{prefix}{k}", grading, k) for k in range(1, count + 1)]


class _TermView(Mapping):
    """Read-only `Fraction` view of a polynomial's terms on tuple keys,
    formed on access: each key is decoded and each value built when it is
    read, and nothing is cached."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "Poly"):
        self._poly = poly

    def __getitem__(self, key: MonomialKey) -> Fraction:
        p = self._poly
        last = -1
        for i, e in key:  # only a sorted tuple of positive exponents is a key
            if not (last < i < len(p.table.variables) and 0 < e <= FIELD_MAX):
                raise KeyError(key)
            last = i
        try:
            return Fraction(p.nums[p.table.encode(key)], p.den)
        except ValueError:
            raise KeyError(key) from None

    def __iter__(self):
        return map(self._poly.table.decode, self._poly.nums)

    def __len__(self) -> int:
        return len(self._poly.nums)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class Poly:
    """Sparse truncated polynomial attached to a table and per-grading cutoffs.

    The value is sum(nums[key] * monomial(key)) / den over packed keys,
    kept canonical: `den` is positive, shares no factor with every
    numerator at once, and is 1 for the zero polynomial.  Numerators are
    never zero.  A `Poly` is never changed after it is built.
    """

    __slots__ = ("table", "cutoffs", "nums", "den", "_buckets")

    def __init__(
        self,
        table: VariableTable,
        cutoffs: Mapping[str, int | None],
        terms: Mapping[MonomialKey, Scalar] | None = None,
    ):
        """Build from rational coefficients on tuple keys.  Zero exponents
        are dropped, repeated monomials summed and monomials beyond a cutoff
        dropped; a negative exponent raises ValueError."""
        cut, mask, add = table._bounds(cutoffs)
        guards = table.guards
        acc: dict[int, Fraction] = {}
        for key, c in (terms or {}).items():
            k = table.encode(key)
            c = Fraction(c)
            if not c or ((k & mask) + add) & guards:
                continue
            acc[k] = acc[k] + c if k in acc else c
        den = lcm(*(c.denominator for c in acc.values()))
        nums = {k: c.numerator * (den // c.denominator) for k, c in acc.items() if c}
        self._set(table, cut, nums, den)

    def _set(self, table, cutoffs, nums, den) -> None:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
        self.table = table
        self.cutoffs = cutoffs
        self.nums = nums
        self.den = den
        self._buckets = None

    @staticmethod
    def _reduced(
        table: VariableTable,
        cutoffs: dict[str, int | None],
        nums: dict[int, int],
        den: int,
    ) -> "Poly":
        """The polynomial nums / den from nonzero numerators on keys within
        `cutoffs` (a dict over every grading, shared, never changed), with
        the common factor of `den` and the numerators divided out."""
        p = Poly.__new__(Poly)
        p._set(table, cutoffs, nums, den)
        return p

    @staticmethod
    def from_numerators(
        table: VariableTable,
        cutoffs: Mapping[str, int | None],
        nums: Mapping[int, int],
        den: int,
    ) -> "Poly":
        """The polynomial nums / den over keys from `VariableTable.encode`;
        zero numerators and keys beyond a cutoff are dropped."""
        cut, mask, add = table._bounds(cutoffs)
        guards = table.guards
        kept = {k: n for k, n in nums.items() if n and not ((k & mask) + add) & guards}
        return Poly._reduced(table, cut, kept, den)

    @staticmethod
    def from_numerator_rows(
        table: VariableTable,
        cutoffs: Mapping[str, int | None],
        rows: Iterable[Mapping[int, int]],
        den: int,
    ) -> list["Poly"]:
        """`from_numerators(table, cutoffs, nums, den)` for each `nums` of
        `rows`, with the cutoffs' bounds looked up once."""
        cut, mask, add = table._bounds(cutoffs)
        guards = table.guards
        out = []
        for nums in rows:
            kept = {k: n for k, n in nums.items() if n and not ((k & mask) + add) & guards}
            out.append(Poly._reduced(table, cut, kept, den))
        return out

    # -- basics ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[MonomialKey, Fraction]:
        return _TermView(self)

    @staticmethod
    def zero(table: VariableTable, cutoffs: Mapping[str, int | None]) -> "Poly":
        return Poly._reduced(table, table._bounds(cutoffs)[0], {}, 1)

    @staticmethod
    def constant(
        table: VariableTable, cutoffs: Mapping[str, int | None], c: Scalar
    ) -> "Poly":
        c = Fraction(c)
        if not (c and all(cut is None or cut >= 0 for cut in cutoffs.values())):
            return Poly.zero(table, cutoffs)
        return Poly._reduced(table, table._bounds(cutoffs)[0], {0: c.numerator}, c.denominator)

    @staticmethod
    def variable(
        table: VariableTable, cutoffs: Mapping[str, int | None], name: str
    ) -> "Poly":
        return Poly.from_numerators(table, cutoffs, {table.units[table.index[name]]: 1}, 1)

    def one_like(self) -> "Poly":
        return Poly.constant(self.table, self.cutoffs, 1)

    def zero_like(self) -> "Poly":
        return Poly._reduced(self.table, self.cutoffs, {}, 1)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get(0, 0), self.den)

    def coefficient(self, exponents: Mapping[str, int]) -> Fraction:
        key = self.table.encode((self.table.index[n], e) for n, e in exponents.items())
        return Fraction(self.nums.get(key, 0), self.den)

    def weight(self, key: MonomialKey, grading: str) -> int:
        return self.table.weight_of(key, grading)

    def max_weight(self, grading: str) -> int:
        s = self.table.grading_shifts.get(grading)
        if s is None:
            return 0
        return max((k >> s & _FIELD for k in self.nums), default=0)

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.table != self.table:
                raise ValueError("polynomials live on different variable tables")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.table, self.cutoffs, other)
        return None

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = _Sum(self)
        acc.add(o)
        return acc.poly()

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._reduced(
            self.table, self.cutoffs, {k: -n for k, n in self.nums.items()}, self.den
        )

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def _buckets_by(self, mask: int) -> list:
        """The terms as [(key & mask, [(key, numerator), ...])], cached for
        the last `mask` asked for."""
        got = self._buckets
        if got is None or got[0] != mask:
            out: dict[int, list] = {}
            for key, n in self.nums.items():
                out.setdefault(key & mask, []).append((key, n))
            got = self._buckets = (mask, list(out.items()))
        return got[1]

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.zero_like()
            num, den = other.numerator, other.denominator
            if num == den == 1:
                return self
            nums = {k: n * num for k, n in self.nums.items()}
            return Poly._reduced(self.table, self.cutoffs, nums, self.den * den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        table = self.table
        cut, mask, add = table._bounds(_merge_cutoffs(table, self.cutoffs, o.cutoffs))
        acc: dict[int, int] = {}
        _product_into(acc, self, o, 1, mask, add, table.guards)
        return Poly._reduced(table, cut, _checked_sum(table, acc), self.den * o.den)

    __rmul__ = __mul__

    def __rtruediv__(self, other) -> "Poly":
        """A rational divided by a series; raises ZeroDivisionError when the
        constant term vanishes."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.series_inverse() * other

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power; use series_inverse")
        out = self.one_like()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.table, self.cutoffs, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.den == other.den and self.nums == other.nums and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.table, self.den, tuple(sorted(self.nums.items()))))

    # -- calculus ---------------------------------------------------------

    def _var_index(self, name: str) -> int:
        if name not in self.table.index:
            raise KeyError(f"unknown variable {name}")
        return self.table.index[name]

    def derivative(self, name: str, order: int = 1) -> "Poly":
        idx = self._var_index(name)
        if order < 0:
            raise ValueError(f"negative derivative order {order} in {name}")
        return self._derive(idx, order) if order else self

    def _derive(self, idx: int, order: int) -> "Poly":
        """d^order/dx^order for the variable at table index `idx`, in one
        pass: distinct monomials stay distinct, each key loses `order`
        units of the variable, and each numerator is multiplied once by
        the falling factorial e (e-1) ... (e-order+1)."""
        s = self.table.shifts[idx]
        step = order * self.table.units[idx]
        nums: dict[int, int] = {}
        for key, n in self.nums.items():
            e = key >> s & _FIELD
            if e >= order:
                nums[key - step] = n * perm(e, order)
        return Poly._reduced(self.table, self.cutoffs, nums, self.den)

    def substitute(self, mapping: Mapping[str, "Poly | Scalar"]) -> "Poly":
        """Simultaneous substitution; result re-truncated eagerly."""
        replace: dict[int, Poly] = {}
        for name, val in mapping.items():
            idx = self.table.index[name]
            if isinstance(val, Poly):
                if val.table != self.table:
                    raise ValueError("substitute values must share the table")
                replace[idx] = val
            else:
                replace[idx] = Poly.constant(self.table, self.cutoffs, val)
        out = self.zero_like()
        power_cache: dict[tuple[int, int], Poly] = {}
        for key, c in self.terms.items():
            term = Poly.constant(self.table, self.cutoffs, c)
            for i, e in key:
                if i in replace:
                    pk = power_cache.get((i, e))
                    if pk is None:
                        pk = replace[i] ** e
                        power_cache[(i, e)] = pk
                    term = term * pk
                else:
                    term = term * Poly(
                        self.table, self.cutoffs, {((i, e),): Fraction(1)}
                    )
            out = out + term
        return out

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        out = Fraction(0)
        for key, n in self.nums.items():
            val = Fraction(n)
            for i, e in self.table.decode(key):
                name = self.table.variables[i].name
                if name not in assignment:
                    raise KeyError(f"no value for variable {name}")
                val *= Fraction(assignment[name]) ** e
            out += val
        return out / self.den

    def embed(self, table: VariableTable, cutoffs: Mapping[str, int | None]) -> "Poly":
        """Transport into a larger table, matching variables by name; the
        weights must agree or truncation semantics would silently change."""
        remap = {}
        for i, v in enumerate(self.table.variables):
            if v.name not in table.index:
                raise KeyError(f"target table lacks variable {v.name}")
            if table.var(v.name).weight != v.weight:
                raise ValueError(f"variable {v.name} changes weight under embedding")
            remap[i] = table.index[v.name]
        nums = {
            table.encode((remap[i], e) for i, e in self.table.decode(key)): n
            for key, n in self.nums.items()
        }
        return Poly.from_numerators(table, cutoffs, nums, self.den)

    def truncate(self, cutoffs: Mapping[str, int | None]) -> "Poly":
        merged = dict(self.cutoffs)
        for g, c in _checked(cutoffs).items():
            old = merged.get(g)
            merged[g] = c if old is None else (old if c is None else min(old, c))
        cut, mask, add = self.table._bounds(merged)
        guards = self.table.guards
        nums = {k: n for k, n in self.nums.items() if not ((k & mask) + add) & guards}
        return Poly._reduced(self.table, cut, nums, self.den)

    # -- series helpers ----------------------------------------------------

    def _check_locally_nilpotent(self):
        shifts = self.table.grading_shifts
        bounded = sum(
            _FIELD << shifts[g] for g, cut in self.cutoffs.items() if cut is not None and g in shifts
        )
        if not all(k & bounded for k in self.nums):
            raise ValueError(
                "series argument must vanish at weight zero in a bounded grading"
            )

    def series_exp(self) -> "Poly":
        self._check_locally_nilpotent()
        out = _Sum(self.one_like())
        term = self.one_like()
        k = 1
        while True:
            term = term * self * Fraction(1, k)
            if term.is_zero:
                return out.poly()
            out.add(term)
            k += 1

    def series_log1p(self) -> "Poly":
        """log(1 + self); argument must be truncation-nilpotent."""
        self._check_locally_nilpotent()
        out = _Sum(self.zero_like())
        power = self.one_like()
        k = 1
        while True:
            power = power * self
            if power.is_zero:
                return out.poly()
            out.add(power, Fraction((-1) ** (k + 1), k))
            k += 1

    def series_inverse(self) -> "Poly":
        c = self.constant_term()
        if c == 0:
            raise ZeroDivisionError("series has no constant term")
        u = self * Fraction(1, c) - 1
        u._check_locally_nilpotent()
        out = _Sum(self.one_like())
        power = self.one_like()
        sign = -1
        while True:
            power = power * u
            if power.is_zero:
                return out.poly() * Fraction(1, c)
            out.add(power, sign)
            sign = -sign

    # -- serialization ------------------------------------------------------

    def _sorted_nums(self) -> list[tuple[int, int]]:
        """The (key, numerator) pairs in report order: by total weight, then
        by the weights per grading in the table's grading order, then by
        tuple key.  `to_json` and the CLI's report writer both list terms
        in this order."""
        table = self.table
        if table._weightless:
            base, decode = FIELD_BITS * len(table.variables), table.decode
            return sorted(self.nums.items(), key=lambda item: (item[0] >> base, decode(item[0])))
        high, low = table._high, table._low
        return sorted(self.nums.items(), key=lambda item: item[0] & high | (item[0] + low) & low)

    def report_rows(self, row: str) -> list[str]:
        """The text of each entry of `to_json()["terms"]`, in report order,
        as `json.dumps(..., indent=2, sort_keys=True)` writes an entry that
        starts on the line `row` (a newline and that line's indentation).

        A term's "exp" text is read off its packed key, one chunk of
        `VariableTable._name_chunks` at a time: the chunk's bits
        (key >> shift) & mask index a dict that builds the chunk's text on
        first sight, and the chunks' texts, in name order, make the term's.
        The text before "exp" is built once per distinct gcd of numerator
        and denominator.  Both dicts live for this call, so no text
        outlives the report it was written for."""
        field = row + "  "
        deeper = field + "  "
        close = field + "}"
        den = self.den
        names = self.table.variables
        heads = _Texts(lambda g: f'{{{field}"den": "{den // g}",{field}"exp": ')
        items = self._sorted_nums()
        keys = [key for key, _ in items]
        columns = []
        for shift, mask, run in self.table._name_chunks:
            labels = tuple(
                (f",{deeper}{_quote(names[i].name)}: ", FIELD_BITS * (run[-1] - i)) for i in run
            )
            texts = _Texts(
                lambda bits, labels=labels: "".join(
                    f"{label}{e}" for label, s in labels if (e := bits >> s & FIELD_MAX)
                )
            )
            bits = map(and_, map(rshift, keys, repeat(shift)), repeat(mask))
            columns.append(map(texts.__getitem__, bits))
        # each term's exponents as one ",<indent>name: e" piece per variable
        bodies = map("".join, zip(*columns)) if columns else repeat("")
        rows = []
        for body, (_, n) in zip(bodies, items):
            g = gcd(n, den)
            exp = f"{{{body[1:]}{close}" if body else "{}"
            rows.append(f'{heads[g]}{exp},{field}"num": "{n // g}"{row}}}')
        return rows

    def sorted_terms(self) -> list[tuple[MonomialKey, Fraction]]:
        decode = self.table.decode
        return [(decode(key), Fraction(n, self.den)) for key, n in self._sorted_nums()]

    def to_json(self) -> dict:
        names = [v.name for v in self.table.variables]
        decode, den = self.table.decode, self.den
        terms = []
        for key, n in self._sorted_nums():
            g = gcd(n, den)
            terms.append(
                {
                    "exp": {names[i]: e for i, e in decode(key)},
                    "num": str(n // g),
                    "den": str(den // g),
                }
            )
        return {**self._json_head(), "terms": terms}

    def _json_head(self) -> dict:
        """The "vars" and "cutoff" entries of `to_json`."""
        return {
            "vars": [
                {"name": v.name, "grading": v.grading, "weight": v.weight}
                for v in self.table.variables
            ],
            "cutoff": {g: c for g, c in self.cutoffs.items() if c is not None},
        }

    @staticmethod
    def from_json(data: dict) -> "Poly":
        table = VariableTable(
            Variable(v["name"], v["grading"], v["weight"]) for v in data["vars"]
        )
        cutoffs = {g: int(c) for g, c in data.get("cutoff", {}).items()}
        terms = {}
        for t in data["terms"]:
            key = tuple(
                sorted((table.index[n], int(e)) for n, e in t["exp"].items())
            )
            terms[key] = Fraction(int(t["num"]), int(t["den"]))
        return Poly(table, cutoffs, terms)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        bits = []
        for key, c in self.sorted_terms()[:8]:
            mono = "*".join(
                f"{self.table.variables[i].name}^{e}" if e > 1 else self.table.variables[i].name
                for i, e in key
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        more = "" if len(self.nums) <= 8 else f" ... ({len(self.nums)} terms)"
        return "Poly(" + " + ".join(bits) + more + ")"


class _Texts(dict):
    """A dict that builds a missing entry's text with `make` and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[int], str]):
        self.make = make

    def __missing__(self, key: int) -> str:
        text = self[key] = self.make(key)
        return text


def _checked(cutoffs: Mapping[str, int | None]) -> Mapping[str, int | None]:
    """`cutoffs`, once every bound is known to fit a weight field."""
    for g, c in cutoffs.items():
        if c is not None and c > FIELD_MAX:
            raise ValueError(f"cutoff {c} on grading {g} exceeds {FIELD_MAX}")
    return cutoffs


def _merge_cutoffs(
    table: VariableTable, *cutoffs: Mapping[str, int | None]
) -> dict[str, int | None]:
    """The tightest bound per grading; None where no side bounds it."""
    out = {}
    for g in table.gradings:
        bounds = [c for cut in cutoffs if (c := cut.get(g)) is not None]
        out[g] = min(bounds) if bounds else None
    return out


def _product_into(
    acc: dict[int, int], a: Poly, b: Poly, scale: int, mask: int, add: int, guards: int
) -> None:
    """Add scale * (a's numerators times b's) into `acc`, bucket pair by
    bucket pair: only the weight buckets whose sums lie within the bounds
    (`mask`, `add` from `VariableTable._bounds`) are multiplied.  A square
    (`a is b`) goes to `_square_into`."""
    if a is b:
        _square_into(acc, a, scale, mask, add, guards)
        return
    get = acc.get
    right = b._buckets_by(mask)
    for w1, left in a._buckets_by(mask):
        # each bounded field of room holds FIELD_MAX - (cut - w1): a right
        # bucket fits where adding its weights sets no guard
        room = w1 + add
        if room & guards:
            continue
        fit = [t for w2, ts in right if not (room + w2) & guards for t in ts]
        if not fit:
            continue
        for k1, c1 in left:
            c1 *= scale
            for k2, c2 in fit:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2


def _square_into(
    acc: dict[int, int], a: Poly, scale: int, mask: int, add: int, guards: int
) -> None:
    """`_product_into` of a with itself, each unordered pair of terms
    formed once: a bucket meets itself and the buckets of larger weight key
    only, a term itself and the terms after it in its bucket, and every
    pair of two distinct terms is added twice."""
    get = acc.get
    buckets = a._buckets_by(mask)
    for w1, left in buckets:
        room = w1 + add
        if room & guards:
            continue
        later = [t for w2, ts in buckets if w2 > w1 and not (room + w2) & guards for t in ts]
        own = not (room + w1) & guards
        for i, (k1, c1) in enumerate(left):
            c1 *= scale
            twice = 2 * c1
            if own:
                k = k1 + k1
                acc[k] = get(k, 0) + c1 * left[i][1]
                for k2, c2 in left[i + 1 :]:
                    k = k1 + k2
                    acc[k] = get(k, 0) + twice * c2
            for k2, c2 in later:
                k = k1 + k2
                acc[k] = get(k, 0) + twice * c2


def _checked_sum(table: VariableTable, acc: dict[int, int]) -> dict[int, int]:
    """The nonzero numerators of `acc`; a key with a guard set is a field
    overflow and raises."""
    if reduce(or_, acc, 0) & table.guards:
        raise _overflow()
    return {k: n for k, n in acc.items() if n}


def sum_of_products(start: Poly, terms: Iterable[tuple[Poly, Poly, Scalar]]) -> Poly:
    """start + sum of w * a * b over the (a, b, w) of `terms`, w rational:
    the polynomial that `_Sum(start)` adding each `a * b * w` gives, with
    the same cutoffs (the merge of every operand's) and the same
    ValueError on a second table, but with no polynomial formed per term.
    Each coefficient goes over one common denominator D, the lcm of start's
    and every w.den * a.den * b.den = d, fixed before the first addend, and
    each product's numerators are multiplied into one dict scaled by
    w.num * D / d, bucket pairs beyond the cutoffs skipped as in
    `Poly.__mul__`.  Every term is read, a zero-weight one included, before
    any product is formed."""
    table = start.table
    bounds = {id(start.cutoffs): start.cutoffs}
    factors = []
    for a, b, w in terms:
        for p in (a, b):
            if p.table is not table and p.table != table:
                raise ValueError("polynomials live on different variable tables")
            bounds.setdefault(id(p.cutoffs), p.cutoffs)
        if w and a.nums and b.nums:
            factors.append((a, b, w.numerator, w.denominator * a.den * b.den))
    cut, mask, add = table._bounds(_merge_cutoffs(table, *bounds.values()))
    guards = table.guards
    den = lcm(start.den, *(d for *_, d in factors))
    scale = den // start.den
    acc = {k: n * scale for k, n in start.nums.items() if not ((k & mask) + add) & guards}
    for a, b, num, d in factors:
        _product_into(acc, a, b, num * (den // d), mask, add, guards)
    return Poly._reduced(table, cut, _checked_sum(table, acc), den)


class _Sum:
    """A running sum of polynomials, added in place.

    The numerators live in a dict of the sum's own over one running
    denominator, copied from the start value and held by no caller;
    `poly()` hands that dict to the result, after which the sum is not used
    again.  An addend whose denominator does not divide the running one
    rescales the sum to their lcm.  Each addition merges the cutoffs the
    way `Poly.__add__` does, truncating only the side whose cutoff
    tightened.
    """

    __slots__ = ("table", "cutoffs", "nums", "den")

    def __init__(self, start: Poly):
        self.table = start.table
        self.cutoffs = start.cutoffs
        self.nums = dict(start.nums)
        self.den = start.den

    def add(self, p: Poly, scale: Scalar | None = None) -> None:
        """Add `p`, or `p * scale` for a rational `scale`."""
        table = self.table
        if p.table is not table and p.table != table:
            raise ValueError("polynomials live on different variable tables")
        items = p.nums.items()
        if p.cutoffs is not self.cutoffs and p.cutoffs != self.cutoffs:
            cut, mask, plus = table._bounds(_merge_cutoffs(table, self.cutoffs, p.cutoffs))
            guards = table.guards
            if cut != self.cutoffs:
                self.nums = {k: n for k, n in self.nums.items() if not ((k & mask) + plus) & guards}
                self.cutoffs = cut
            if p.cutoffs != cut:
                items = [(k, n) for k, n in items if not ((k & mask) + plus) & guards]
        nums = self.nums
        if scale is None:
            num, pden = 1, p.den
        elif not scale:
            return
        else:
            num, pden = scale.numerator, p.den * scale.denominator
        den = self.den
        if den % pden:
            grown = lcm(den, pden)
            factor = grown // den
            for k in nums:
                nums[k] *= factor
            self.den = den = grown
        num *= den // pden
        for k, n in items:
            s = nums.get(k)
            if s is None:
                nums[k] = n * num
            elif s := s + n * num:
                nums[k] = s
            else:
                del nums[k]

    def poly(self) -> Poly:
        return Poly._reduced(self.table, self.cutoffs, self.nums, self.den)


class _Partials:
    """The partial derivatives of one polynomial, memoized by multi-index:
    the orders as a key of the polynomial's table (a monomial whose
    exponents are the orders).  Each is one first-order step from its
    parent, the multi-index with the order of its first variable lowered
    by one, so a family of operators over one target derives every partial
    once."""

    __slots__ = ("poly", "_memo")

    def __init__(self, poly: Poly):
        self.poly = poly
        self._memo: dict[int, Poly] = {0: poly}

    def get(self, alpha: int) -> Poly:
        got = self._memo.get(alpha)
        if got is None:
            table = self.poly.table
            # the highest exponent field in use is the first variable's
            idx = len(table.shifts) - 1 - ((alpha & table._low).bit_length() - 1) // FIELD_BITS
            got = self._memo[alpha] = self.get(alpha - table.units[idx])._derive(idx, 1)
        return got


class TimeFamily:
    """A half-infinite family of graded times t_1..t_K inside one table.

    `names[k-1]` is the variable of weight k.  All generating-series
    helpers live here: complete homogeneous generators, the two-variable
    exponential series, Miwa shifts and evaluations.  The standard
    constructors below share one family per set of arguments, so a family
    is never changed after it is built.
    """

    def __init__(
        self,
        table: VariableTable,
        cutoffs: Mapping[str, int | None],
        names: Iterable[str],
        grading: str,
    ):
        self.table = table
        self.cutoffs = dict(cutoffs)
        self.names = tuple(names)
        self.grading = grading
        for k, n in enumerate(self.names, start=1):
            v = table.var(n)
            if v.weight != k:
                raise ValueError(f"time {n} must have weight {k}")

    @property
    def depth(self) -> int:
        return len(self.names)

    def zero(self) -> Poly:
        return Poly.zero(self.table, self.cutoffs)

    def one(self) -> Poly:
        return Poly.constant(self.table, self.cutoffs, 1)

    def constant(self, c: Scalar) -> Poly:
        return Poly.constant(self.table, self.cutoffs, c)

    def time(self, k: int) -> Poly:
        return Poly.variable(self.table, self.cutoffs, self.names[k - 1])

    def h(self, k: int, sign: Scalar = 1) -> Poly:
        """Complete homogeneous generator h_k(c*t) = s_(k)(c*t) for the
        rational scale c = `sign`: coefficients of the exponential of the
        scaled time series; h_0 = 1, h_{k<0} = 0.  Built and memoized by
        the Schur builder of `tauforge.schur`."""
        from tauforge.schur import _schur_poly

        return self.zero() if k < 0 else _schur_poly(self, (k,) if k else (), (), sign)

    def e(self, k: int) -> Poly:
        """Elementary generator: e_k(t) = (-1)^k h_k(-t)."""
        return self.h(k, sign=-1) * ((-1) ** k)

    def xi(self, param: str) -> Poly:
        """The series sum_k t_k * param^k, truncated by the table cutoffs."""
        out = self.zero()
        y = Poly.variable(self.table, self.cutoffs, param)
        ypow = self.one()
        for k in range(1, self.depth + 1):
            ypow = ypow * y
            if ypow.is_zero:
                break
            out = out + self.time(k) * ypow
        return out

    def xi_value(self, value: Scalar) -> Poly:
        """sum_k t_k * value^k for a rational spectral point."""
        out = self.zero()
        v = Fraction(value)
        for k in range(1, self.depth + 1):
            out = out + self.time(k) * (v**k)
        return out

    def exp_xi_value(self, value: Scalar) -> Poly:
        return self.xi_value(value).series_exp()

    def parity_parts(self, p: Poly) -> tuple[Poly, Poly, Poly]:
        """The terms of `p` that hold some time, split by the parity of
        their total degree in the times (even, odd), and the terms that hold
        none: the parity of the sum of the exponents is that of the number
        of odd exponents, the low bits of the times' fields."""
        table = p.table
        fields = sum(_FIELD << table.shifts[table.index[name]] for name in self.names)
        low_bits = sum(1 << table.shifts[table.index[name]] for name in self.names)
        parts: tuple[dict, dict, dict] = ({}, {}, {})
        for key, n in p.nums.items():
            parts[(key & low_bits).bit_count() & 1 if key & fields else 2][key] = n
        return tuple(Poly._reduced(table, p.cutoffs, nums, p.den) for nums in parts)

    def linear_part(self, p: Poly, k: int) -> Poly:
        """The part of `p` linear in this family's k-th time and free of its
        other times, with that time divided out: d p / d t_k at every time
        of the family 0.  Its keys are those whose time fields hold exactly
        the k-th time's unit exponent, less that time's unit."""
        table = p.table
        fields = sum(_FIELD << table.shifts[table.index[name]] for name in self.names)
        i = table.index[self.names[k - 1]]
        one, unit = 1 << table.shifts[i], table.units[i]
        nums = {key - unit: n for key, n in p.nums.items() if key & fields == one}
        return Poly._reduced(table, p.cutoffs, nums, p.den)

    def miwa_shift(self, p: Poly, sign: int, param: str) -> Poly:
        """Substitute t_k -> t_k +- param^k / k (the one-point Miwa shift)."""
        y = self.table.index[param]
        return self._binomial_shift(
            p, {k: (y, k, sign, k) for k in range(1, self.depth + 1)}, self.cutoffs
        )

    def miwa_times(self, u: Scalar, w: Scalar) -> dict[str, Fraction]:
        """Assignment t_k = u * w^(-k) / k."""
        u, w = Fraction(u), Fraction(w)
        if w == 0:
            raise ZeroDivisionError("Miwa evaluation needs w != 0")
        return {
            self.names[k - 1]: u * w ** (-k) / k for k in range(1, self.depth + 1)
        }

    def shift_by(self, p: Poly, other: "TimeFamily", sign: int) -> Poly:
        """Substitute t_k -> t_k + sign * s_k for a parallel family s."""
        shifts = {
            k: (other.table.index[other.names[k - 1]], 1, sign, 1)
            for k in range(1, min(self.depth, other.depth) + 1)
        }
        return self._binomial_shift(p, shifts, self.cutoffs, other.cutoffs)

    def _binomial_shift(
        self,
        p: Poly,
        shifts: Mapping[int, tuple[int, int, int, int]],
        *cutoffs: Mapping[str, int | None],
    ) -> Poly:
        """Substitute t_k -> t_k + (num/den) v^m simultaneously, for each
        k -> (table index of v, m, num, den) in `shifts`, expanding each
        power of a shifted time by the binomial theorem in integers: the
        r-th term of (t + c v^m)^e moves r units of t to m r units of v.

        The result is truncated to `p`'s cutoffs merged with `cutoffs`, the
        cutoffs of the substituted values, once some monomial of `p` holds a
        shifted time (`p` is returned unchanged otherwise).
        """
        table = self.table
        if p.table is not table and p.table != table:
            raise ValueError("substitute values must share the table")
        guards, units = table.guards, table.units
        # (field shift of t, unit move v^m / t, most a move adds to a field,
        # {e: [(key change, numerator, denominator) for r in 0..e]})
        moves = []
        for k, (v, m, num, den) in shifts.items():
            i = table.index[self.names[k - 1]]
            moves.append((table.shifts[i], m * units[v] - units[i], m * table._spans[v], num, den, {}))
        # (key, numerator, denominator) of each expanded term
        pieces: list[tuple[int, int, int]] = []
        touched = False
        for key, n in p.nums.items():
            parts = [(key, n, 1)]
            for s, delta, span, num, den, rows in moves:
                e = key >> s & _FIELD
                if not e:
                    continue
                touched = True
                row = rows.get(e)
                if row is None:
                    if e * span > FIELD_MAX:  # the r = e term overflows
                        raise _overflow()
                    row = rows[e] = [(r * delta, comb(e, r) * num**r, den**r) for r in range(e + 1)]
                parts = [(k + dk, pn * c, pd * d) for k, pn, pd in parts for dk, c, d in row]
                if reduce(or_, [k for k, _, _ in parts]) & guards:
                    raise _overflow()
            pieces += parts
        if not touched:
            return p
        cut, mask, add = table._bounds(_merge_cutoffs(table, p.cutoffs, *cutoffs))
        common = lcm(*{pd for _, _, pd in pieces})
        nums: dict[int, int] = {}
        for k, pn, pd in pieces:
            if not ((k & mask) + add) & guards:
                nums[k] = nums.get(k, 0) + pn * (common // pd)
        nums = {k: n for k, n in nums.items() if n}
        return Poly._reduced(table, cut, nums, p.den * common)

    def apply_diff(self, op: Poly, target: Poly) -> Poly:
        """Interpret `op` (a polynomial in this family's times) as a
        differential operator: t_k becomes d/dt_k divided by k (the
        tilde-derivative convention).  `op` and `target` share one table,
        and the operator's monomials share the target's partials."""
        if op.table != target.table:
            raise ValueError("operator and target live on different variable tables")
        partials = _Partials(target)
        rank = {name: k for k, name in enumerate(self.names, start=1)}
        names = [v.name for v in op.table.variables]
        out = _Sum(target.zero_like())
        for key, n in op.nums.items():
            # the operator's key is its multi-index of derivative orders
            scale = 1
            for idx, e in op.table.decode(key):
                if names[idx] not in rank:
                    raise ValueError(f"operator touches non-time variable {names[idx]}")
                scale *= rank[names[idx]] ** e
            piece = partials.get(key)
            if piece:
                out.add(piece, Fraction(n, op.den * scale))
        return out.poly()

    def miwa_parts(self, p: Poly, top: int, sign: int = 1) -> list[Poly]:
        """[h_j(sign * d~) p for j = 0..top], d~_k = d/dt_k / k, as
        `apply_diff(h(j, sign), p)` gives each, so zero beyond this family's
        cutoff: the coefficients of w^j in p(t + sign [w]), [w]_k = w^k / k,
        formed in one sweep over p's keys.  A monomial t^gamma adds
        prod_k C(gamma_k, alpha_k) sign^alpha_k k^-alpha_k t^(gamma - alpha)
        to part sum_k k alpha_k, for every alpha <= gamma, so no derivative
        is formed.  Every part is over p's denominator times one integer L,
        the lcm of k^(top // k): it holds every prod_k k^alpha_k with
        sum_k k alpha_k <= top, since then each prime q divides it at most
        top // q times.  The expansion of each distinct exponent vector in
        the times is formed once."""
        table = p.table
        if table is not self.table and table != self.table:
            raise ValueError("family and polynomial live on different variable tables")
        bound = self.cutoffs.get(self.grading)
        if bound is not None:
            top = min(top, bound)
        if top < 0 or not self.one():  # a negative cutoff zeroes every h_j
            return []
        den = lcm(*(k ** (top // k) for k in range(1, top + 1)))
        times = [
            (k, table.shifts[i], table.units[i])
            for k, i in enumerate((table.index[name] for name in self.names), start=1)
            if k <= top
        ]
        fields = sum(_FIELD << s for _, s, _ in times)
        # exponents in the times -> [(part, key change, numerator over den)]
        rows: dict[int, list[tuple[int, int, int]]] = {}
        parts: list[dict[int, int]] = [{} for _ in range(top + 1)]
        for key, n in p.nums.items():
            row = rows.get(key & fields)
            if row is None:
                row = [(0, 0, den)]
                for k, s, unit in times:
                    e = key >> s & _FIELD
                    if e:
                        row = [
                            (j + k * a, dk + a * unit, c * comb(e, a) * sign**a // k**a)
                            for j, dk, c in row
                            for a in range(min(e, (top - j) // k) + 1)
                        ]
                rows[key & fields] = row
            for j, dk, c in row:
                part = parts[j]
                part[key - dk] = part.get(key - dk, 0) + n * c
        return [
            Poly._reduced(table, p.cutoffs, {k: n for k, n in part.items() if n}, p.den * den)
            for part in parts
        ]


def hirota_bilinear(
    op_terms: Iterable[tuple[Scalar, Mapping[str, int]]],
    f: Poly,
    g: Poly,
    within: Mapping[str, int | None] | None = None,
) -> Poly:
    """Evaluate P(D) f.g: apply P(d/dX) to f(t+X) g(t-X) at X = 0.

    `op_terms` lists (coefficient, {variable name: derivative order}).
    Expanded by the Leibniz rule, sum over beta <= alpha of
    prod_i C(alpha_i, beta_i) (-1)^(alpha_i - beta_i) d^beta f d^(alpha-beta) g,
    with the partial derivatives of f and g memoized across all terms.
    When `f is g`, the products for beta and alpha - beta coincide and
    are formed once, with the two Leibniz weights added.

    `within` (cutoffs per grading, as `Poly.truncate` takes them) is the
    weight a caller compares: each partial is truncated to it, once, before
    it multiplies, so no product term beyond it is formed.  No weight is
    negative and weights add under multiplication, so the result within
    `within` is the full one's.

    The Leibniz terms are collected first and summed by `sum_of_products`
    in one pass, so no product is formed as a polynomial of its own.
    """
    f_partials = _Partials(f)
    g_partials = f_partials if g is f else _Partials(g)
    cut: dict[tuple[bool, int], Poly] = {}

    def partial(partials: _Partials, alpha: int) -> Poly:
        if within is None:
            return partials.get(alpha)
        key = (partials is g_partials, alpha)
        if key not in cut:
            cut[key] = partials.get(alpha).truncate(within)
        return cut[key]

    terms = []
    for coeff, orders in op_terms:
        if any(a < 0 for a in orders.values()):
            raise ValueError(f"negative derivative order in {dict(orders)}")
        alpha = sorted((f._var_index(name), a) for name, a in orders.items() if a)
        f.table.encode(alpha)  # every partial below fits the key fields
        units = [f.table.units[i] for i, _ in alpha]
        arity = [a for _, a in alpha]
        for beta in product(*(range(a + 1) for a in arity)):
            rest = tuple(a - b for a, b in zip(arity, beta))
            if g is f and rest < beta:
                continue  # counted with its mirror image
            binom = prod(map(comb, arity, beta))
            weight = binom * (-1) ** sum(rest)
            if g is f and rest != beta:
                weight += binom * (-1) ** sum(beta)
            if not weight:
                continue
            fa, ga = sum(map(mul, beta, units)), sum(map(mul, rest, units))
            # a vanishing term is skipped, but with no derivative at all
            # f * g is added as it stands, merging the two cutoffs; a term
            # is judged before any cut, so a cut that empties it still
            # merges the cutoffs the full residual merges
            if alpha and not (f_partials.get(fa) and g_partials.get(ga)):
                continue
            terms.append(
                (partial(f_partials, fa), partial(g_partials, ga), Fraction(coeff) * weight)
            )
    start = f.zero_like()
    return sum_of_products(start if within is None else start.truncate(within), terms)


def poly_matrix_det(rows: list[list[Poly | Scalar]]) -> Poly | Fraction:
    """The one determinant: column-subset memoized expansion that prunes
    zero entries.

    Entries may mix `Poly` and rational values (an absent state reads as a
    scalar zero); the ring's zero and one come from the first `Poly`
    entry.  Exact over the truncated ring (no division), fast on the banded
    matrices that arise from generator-index determinants.  A matrix with
    no `Poly` entry is rational and goes to `fraction_matrix_det`, so the
    empty matrix gives 1.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    ring = next((x for r in rows for x in r if isinstance(x, Poly)), None)
    if ring is None:
        return fraction_matrix_det(rows)
    zero = ring.zero_like()
    one = ring.one_like()
    memo: dict[frozenset[int], Poly] = {}

    def minor(cols: frozenset[int]) -> Poly:
        if not cols:
            return one
        got = memo.get(cols)
        if got is not None:
            return got
        i = n - len(cols)
        acc = _Sum(zero)
        for pos, j in enumerate(sorted(cols)):
            entry = rows[i][j]
            if not entry:
                continue
            sub = minor(cols - {j})
            if not sub:
                continue
            sign = -1 if pos & 1 else 1
            if isinstance(entry, Poly):
                acc.add(entry * sub, sign)
            else:
                acc.add(sub, entry * sign)
        got = memo[cols] = acc.poly()
        return got

    return minor(frozenset(range(n)))


def fraction_matrix_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant of a rational matrix: each row is cleared of its
    denominators and the integer matrix goes to `integer_matrix_det`."""
    ints, den = [], 1
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (d // x.denominator) for x in row])
        den *= d
    return Fraction(integer_matrix_det(ints), den)


def integer_matrix_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free (Bareiss)
    elimination: each step's entries are 2 x 2 minors divided by the
    previous pivot, a division that is always exact."""
    a = [list(r) for r in rows]
    n = len(a)
    if not n:
        return 1
    sign, last = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((r for r in range(k + 1, n) if a[r][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - lead * top[j]) // last
        last = pivot
    return sign * a[-1][-1]


def fraction_matmul(a, b) -> list[list[Fraction]]:
    """The product of two dense rational matrices (lists of rows) of
    matching shapes."""
    return [[sum(map(mul, row, col), Fraction(0)) for col in zip(*b)] for row in a]


def fraction_matrix_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse; raises ZeroDivisionError on singular input."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


# every family the standard constructors have built, by constructor and
# normalized arguments: polynomials memoized on a family's table and cutoffs
# (`schur._schur_cache`, `VariableTable._bounds`) meet those same objects
# again in a later call, and are found by identity
_families: dict[tuple, "TimeFamily | tuple[TimeFamily, TimeFamily]"] = {}


def _frozen(value):
    """An argument as part of a memo key: a mapping as its sorted items,
    None as no items, any other iterable but a string as a tuple."""
    if value is None:
        return ()
    if isinstance(value, Mapping):
        return tuple(sorted(value.items()))
    if isinstance(value, Iterable) and not isinstance(value, str):
        return tuple(value)
    return value


def _shared(build):
    """`build`, a family constructor, memoized in `_families` on its bound
    arguments, each `_frozen` before `build` reads it: `extra_unit=["y"]`
    and `extra_unit=("y",)` give the same family."""
    bind = signature(build).bind

    @wraps(build)
    def shared(*args, **kwargs):
        bound = bind(*args, **kwargs)
        bound.apply_defaults()
        frozen = {name: _frozen(v) for name, v in bound.arguments.items()}
        key = (build.__name__, *frozen.values())
        got = _families.get(key)
        if got is None:
            got = _families[key] = build(**frozen)
        return got

    return shared


@_shared
def standard_single_family(
    depth: int,
    extra_unit: Iterable[str] = (),
    extra_gradings: Mapping[str, str] | None = None,
) -> TimeFamily:
    """One time family t1..tD (grading "t", cutoff D) plus optional
    unit-weight parameters; a parameter listed in `extra_gradings` gets its
    own grading (unbounded unless truncated later), others join "t" so that
    total weight counts shift degree."""
    variables = time_variables("t", depth)
    extra_gradings = dict(extra_gradings or {})
    for name in extra_unit:
        variables.append(Variable(name, extra_gradings.get(name, "t"), 1))
    table = VariableTable(variables)
    return TimeFamily(table, {"t": depth}, [f"t{k}" for k in range(1, depth + 1)], "t")


@_shared
def standard_double_family(
    depth_plus: int,
    depth_minus: int,
    extra_unit_plus: Iterable[str] = (),
    extra_unit_minus: Iterable[str] = (),
) -> tuple[TimeFamily, TimeFamily]:
    """Two independent families: t1.. (grading "tp") and s1.. (grading "tm"),
    each with its own cutoff; optional unit parameters attach to a family."""
    variables = time_variables("tp", depth_plus, prefix="t")
    variables += time_variables("tm", depth_minus, prefix="s")
    for name in extra_unit_plus:
        variables.append(Variable(name, "tp", 1))
    for name in extra_unit_minus:
        variables.append(Variable(name, "tm", 1))
    table = VariableTable(variables)
    cutoffs = {"tp": depth_plus, "tm": depth_minus}
    plus = TimeFamily(table, cutoffs, [f"t{k}" for k in range(1, depth_plus + 1)], "tp")
    minus = TimeFamily(table, cutoffs, [f"s{k}" for k in range(1, depth_minus + 1)], "tm")
    return plus, minus


@_shared
def paired_family(depth: int, extra_unit: Iterable[str] = ()) -> tuple[TimeFamily, TimeFamily]:
    """Two weight-graded families sharing one grading and cutoff (times
    t1, t2, ... plus an auxiliary shift family a1, a2, ...), for
    residue-style checks where the cutoff must bound both jointly."""
    variables = time_variables("t", depth, prefix="t")
    variables += time_variables("t", depth, prefix="a")
    for name in extra_unit:
        variables.append(Variable(name, "t", 1))
    table = VariableTable(variables)
    cutoffs = {"t": depth}
    first = TimeFamily(table, cutoffs, [f"t{k}" for k in range(1, depth + 1)], "t")
    second = TimeFamily(table, cutoffs, [f"a{k}" for k in range(1, depth + 1)], "t")
    return first, second
