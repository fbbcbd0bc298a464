"""Weight-truncated multivariate polynomials over exact rationals.

Variables carry a grading tag and an integer weight; a polynomial carries
one cutoff per grading and drops any monomial exceeding a cutoff, eagerly,
in every operation.  The ring is exact and never touches floating point.

A `Poly` stores integer numerators over one common denominator
(`nums: dict[key, int]`, `den: int`), kept canonical: `den > 0`, no
factor common to `den` and every numerator, and `den == 1` for zero, so
equal polynomials have equal storage and `==` and `hash` compare it
directly.  Every operation works on the integers and divides out one gcd
at the end; no per-term `Fraction` is formed.  `terms` is a read-only
`Fraction` view for readers, built on access and never cached.  A `Poly`
is not changed after it is built.

The standard setup has time variables t_1..t_D of weight k in one grading
(only K = D of them are materialized at cutoff D, since t_k with k > D
cannot enter a weight-<=D monomial), optional second-family times, and
unit-weight formal parameters (inverse spectral points, couplings) that may
share a grading with the times so that "total weight" bounds shift degree
and time weight together.

Products are graded: each operand's terms are bucketed by their weight in
every bounded grading, and only bucket pairs whose weights sum within the
cutoffs are multiplied.  Weights add under multiplication, so every
monomial formed survives the truncation and none is formed only to be
dropped.  A polynomial caches its buckets on first use, so an operand that
enters many products is bucketed once.  A polynomial's terms always lie
within its own cutoffs, so a sum re-truncates only when a cutoff tightens.

Loops that sum many polynomials add in place into one private dict over a
running denominator (`_Sum`), rescaled to the lcm only when an addend's
denominator does not divide it.  Operators applied to one target share
its partial derivatives, memoized by multi-index (`_Partials`), and time
shifts expand each power of a shifted time by integer binomials instead of
multiplying `Poly` powers.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm, perm, prod
from operator import le

Scalar = Fraction | int

MonomialKey = tuple[tuple[int, int], ...]  # sorted ((var_index, exponent), ...)


@dataclass(frozen=True)
class Variable:
    name: str
    grading: str
    weight: int

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError(f"variable {self.name} has negative weight")


class VariableTable:
    """Ordered, name-unique list of graded variables."""

    def __init__(self, variables: Iterable[Variable]):
        self.variables = tuple(variables)
        self.index = {v.name: i for i, v in enumerate(self.variables)}
        if len(self.index) != len(self.variables):
            raise ValueError("duplicate variable names")
        self.gradings = tuple(sorted({v.grading for v in self.variables}))
        # (position in `gradings`, weight) of each variable
        self.slots = tuple((self.gradings.index(v.grading), v.weight) for v in self.variables)
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
    """Read-only `Fraction` view of a polynomial's terms, formed on access:
    each value is built when it is read and nothing is cached."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: dict[MonomialKey, int], den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, key: MonomialKey) -> Fraction:
        return Fraction(self._nums[key], self._den)

    def __iter__(self):
        return iter(self._nums)

    def __len__(self) -> int:
        return len(self._nums)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class Poly:
    """Sparse truncated polynomial attached to a table and per-grading cutoffs.

    The value is sum(nums[key] * monomial(key)) / den, kept canonical: `den`
    is positive, shares no factor with every numerator at once, and is 1 for
    the zero polynomial.  Numerators are never zero.  A `Poly` is never
    changed after it is built.
    """

    __slots__ = ("table", "cutoffs", "nums", "den", "_buckets")

    def __init__(
        self,
        table: VariableTable,
        cutoffs: Mapping[str, int | None],
        terms: Mapping[MonomialKey, Scalar] | None = None,
    ):
        """Build from rational coefficients.  Keys are sorted, zero
        exponents dropped, repeated keys summed and monomials beyond a
        cutoff dropped."""
        cut = _complete(table, cutoffs)
        acc: dict[MonomialKey, Fraction] = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            key = tuple(sorted((i, e) for i, e in key if e != 0))
            if not _within(table, cut, key):
                continue
            acc[key] = acc[key] + c if key in acc else c
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
        nums: dict[MonomialKey, int],
        den: int,
    ) -> "Poly":
        """The polynomial nums / den from nonzero numerators on keys within
        `cutoffs` (a dict over every grading, shared, never changed), with
        the common factor of `den` and the numerators divided out."""
        p = Poly.__new__(Poly)
        p._set(table, cutoffs, nums, den)
        return p

    # -- basics ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[MonomialKey, Fraction]:
        return _TermView(self.nums, self.den)

    @staticmethod
    def zero(table: VariableTable, cutoffs: Mapping[str, int | None]) -> "Poly":
        return Poly._reduced(table, _complete(table, cutoffs), {}, 1)

    @staticmethod
    def constant(
        table: VariableTable, cutoffs: Mapping[str, int | None], c: Scalar
    ) -> "Poly":
        c = Fraction(c)
        if not (c and all(cut is None or cut >= 0 for cut in cutoffs.values())):
            return Poly.zero(table, cutoffs)
        return Poly._reduced(table, _complete(table, cutoffs), {(): c.numerator}, c.denominator)

    @staticmethod
    def variable(
        table: VariableTable, cutoffs: Mapping[str, int | None], name: str
    ) -> "Poly":
        key = ((table.index[name], 1),)
        cut = _complete(table, cutoffs)
        return Poly._reduced(table, cut, {key: 1} if _within(table, cut, key) else {}, 1)

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
        return Fraction(self.nums.get((), 0), self.den)

    def coefficient(self, exponents: Mapping[str, int]) -> Fraction:
        key = tuple(
            sorted((self.table.index[n], e) for n, e in exponents.items() if e)
        )
        return Fraction(self.nums.get(key, 0), self.den)

    def weight(self, key: MonomialKey, grading: str) -> int:
        return self.table.weight_of(key, grading)

    def max_weight(self, grading: str) -> int:
        return max((self.weight(k, grading) for k in self.nums), default=0)

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

    def _buckets_by(self, graded: tuple[str, ...]) -> list:
        """The terms as [(weight vector in `graded`, [(key, numerator), ...])],
        cached for the last `graded` asked for."""
        got = self._buckets
        if got is None or got[0] != graded:
            out: dict[tuple[int, ...], list] = {}
            weight_of = self.table.weight_of
            for key, n in self.nums.items():
                out.setdefault(tuple([weight_of(key, g) for g in graded]), []).append((key, n))
            got = self._buckets = (graded, list(out.items()))
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
        cut = _merge_cutoffs(self.table, self.cutoffs, o.cutoffs)
        graded = tuple(g for g, c in cut.items() if c is not None)
        caps = [cut[g] for g in graded]
        right = o._buckets_by(graded)
        acc: dict[MonomialKey, int] = {}
        get = acc.get
        for w1, left in self._buckets_by(graded):
            room = [c - x for x, c in zip(w1, caps)]
            fit = [t for w2, ts in right if all(map(le, w2, room)) for t in ts]
            if not fit:
                continue
            for k1, c1 in left:
                if not k1:
                    for k2, c2 in fit:
                        acc[k2] = get(k2, 0) + c1 * c2
                    continue
                first, last = k1[0][0], k1[-1][0]
                for k2, c2 in fit:
                    # keys are sorted by variable: disjoint ranges concatenate
                    if not k2:
                        key = k1
                    elif last < k2[0][0]:
                        key = k1 + k2
                    elif k2[-1][0] < first:
                        key = k2 + k1
                    else:
                        merged = dict(k1)
                        for i, e in k2:
                            merged[i] = merged.get(i, 0) + e
                        key = tuple(sorted(merged.items()))
                    acc[key] = get(key, 0) + c1 * c2
        nums = {k: n for k, n in acc.items() if n}
        return Poly._reduced(self.table, cut, nums, self.den * o.den)

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
        pass: distinct monomials stay distinct, the exponent is edited in
        place in the sorted key, and each numerator is multiplied once by
        the falling factorial e (e-1) ... (e-order+1)."""
        nums: dict[MonomialKey, int] = {}
        for key, n in self.nums.items():
            for pos, (i, e) in enumerate(key):
                if i >= idx:
                    break
            else:
                continue
            if i != idx or e < order:
                continue
            rest = key[pos + 1 :]
            key = key[:pos] + ((idx, e - order),) + rest if e > order else key[:pos] + rest
            nums[key] = n * perm(e, order)
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
            for i, e in key:
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
        cut = _complete(table, cutoffs)
        nums = {}
        for key, n in self.nums.items():
            key = tuple(sorted((remap[i], e) for i, e in key))
            if _within(table, cut, key):
                nums[key] = n
        return Poly._reduced(table, cut, nums, self.den)

    def truncate(self, cutoffs: Mapping[str, int | None]) -> "Poly":
        merged = dict(self.cutoffs)
        for g, c in cutoffs.items():
            old = merged.get(g)
            merged[g] = c if old is None else (old if c is None else min(old, c))
        nums = {k: n for k, n in self.nums.items() if _within(self.table, merged, k)}
        return Poly._reduced(self.table, merged, nums, self.den)

    # -- series helpers ----------------------------------------------------

    def _check_locally_nilpotent(self):
        for key in self.nums:
            ok = False
            for g, cut in self.cutoffs.items():
                if cut is not None and self.table.weight_of(key, g) > 0:
                    ok = True
                    break
            if not ok:
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

    def _sorted_nums(self) -> list[tuple[MonomialKey, int]]:
        """The (key, numerator) pairs in report order: by total weight, then
        by the weights per grading in the table's grading order, then by key.
        `to_json` and the CLI's report writer both list terms in this order."""
        slots, width = self.table.slots, len(self.table.gradings)

        def sortkey(item):
            key = item[0]
            tot = [0] * width
            for i, e in key:
                g, w = slots[i]
                tot[g] += w * e
            return (sum(tot), tot, key)

        return sorted(self.nums.items(), key=sortkey)

    def sorted_terms(self) -> list[tuple[MonomialKey, Fraction]]:
        return [(key, Fraction(n, self.den)) for key, n in self._sorted_nums()]

    def to_json(self) -> dict:
        names = [v.name for v in self.table.variables]
        den = self.den
        terms = []
        for key, n in self._sorted_nums():
            g = gcd(n, den)
            terms.append(
                {
                    "exp": {names[i]: e for i, e in key},
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


def _complete(
    table: VariableTable, cutoffs: Mapping[str, int | None]
) -> dict[str, int | None]:
    """A fresh copy of `cutoffs` holding every grading of `table`."""
    out = dict(cutoffs)
    for g in table.gradings:
        out.setdefault(g, None)
    return out


def _within(
    table: VariableTable, cutoffs: Mapping[str, int | None], key: MonomialKey
) -> bool:
    for g, cut in cutoffs.items():
        if cut is not None and table.weight_of(key, g) > cut:
            return False
    return True


def _merge_cutoffs(
    table: VariableTable, *cutoffs: Mapping[str, int | None]
) -> dict[str, int | None]:
    """The tightest bound per grading; None where no side bounds it."""
    out = {}
    for g in table.gradings:
        bounds = [c for cut in cutoffs if (c := cut.get(g)) is not None]
        out[g] = min(bounds) if bounds else None
    return out


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
        if p.table is not self.table and p.table != self.table:
            raise ValueError("polynomials live on different variable tables")
        cut = self.cutoffs
        if p.cutoffs != cut:
            cut = _merge_cutoffs(self.table, cut, p.cutoffs)
        nums = self.nums
        if cut != self.cutoffs:
            self.nums = nums = {k: n for k, n in nums.items() if _within(self.table, cut, k)}
            self.cutoffs = cut
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
        clip = p.cutoffs != cut
        for k, n in p.nums.items():
            if clip and not _within(self.table, cut, k):
                continue
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
    """The partial derivatives of one polynomial, memoized by multi-index
    (sorted ((table index, order), ...)).  Each is one first-order step
    from its parent, the multi-index with its last order lowered by one,
    so a family of operators over one target derives every partial once."""

    __slots__ = ("poly", "_memo")

    def __init__(self, poly: Poly):
        self.poly = poly
        self._memo: dict[MonomialKey, Poly] = {(): poly}

    def get(self, alpha: MonomialKey) -> Poly:
        got = self._memo.get(alpha)
        if got is None:
            idx, e = alpha[-1]
            parent = alpha[:-1] + ((idx, e - 1),) if e > 1 else alpha[:-1]
            got = self._memo[alpha] = self.get(parent)._derive(idx, 1)
        return got


class TimeFamily:
    """A half-infinite family of graded times t_1..t_K inside one table.

    `names[k-1]` is the variable of weight k.  All generating-series
    helpers live here: complete homogeneous generators, the two-variable
    exponential series, Miwa shifts and evaluations.
    """

    def __init__(
        self,
        table: VariableTable,
        cutoffs: Mapping[str, int | None],
        names: list[str],
        grading: str,
    ):
        self.table = table
        self.cutoffs = dict(cutoffs)
        self.names = list(names)
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
        power of a shifted time by the binomial theorem in integers.

        The result is truncated to `p`'s cutoffs merged with `cutoffs`, the
        cutoffs of the substituted values, once some monomial of `p` holds a
        shifted time (`p` is returned unchanged otherwise).
        """
        if p.table is not self.table and p.table != self.table:
            raise ValueError("substitute values must share the table")
        moves = {self.table.index[self.names[k - 1]]: move for k, move in shifts.items()}
        # (exponents, numerator, denominator) of each expanded term
        pieces: list[tuple[dict[int, int], int, int]] = []
        touched = False
        for key, n in p.nums.items():
            parts = [({i: e for i, e in key if i not in moves}, n, 1)]
            for i, e in key:
                move = moves.get(i)
                if move is None:
                    continue
                touched = True
                v, m, num, den = move
                grown = []
                for exps, pn, pd in parts:
                    for r in range(e + 1):
                        d = dict(exps)
                        if r < e:
                            d[i] = d.get(i, 0) + e - r
                        if r:
                            d[v] = d.get(v, 0) + m * r
                        grown.append((d, pn * comb(e, r) * num**r, pd * den**r))
                parts = grown
            pieces += parts
        if not touched:
            return p
        cut = _merge_cutoffs(self.table, p.cutoffs, *cutoffs)
        common = lcm(*{pd for _, _, pd in pieces})
        nums: dict[MonomialKey, int] = {}
        for exps, pn, pd in pieces:
            k = tuple(sorted(exps.items()))
            if _within(self.table, cut, k):
                nums[k] = nums.get(k, 0) + pn * (common // pd)
        nums = {k: n for k, n in nums.items() if n}
        return Poly._reduced(self.table, cut, nums, p.den * common)

    def apply_diff(self, op: Poly, target: "Poly | _Partials") -> Poly:
        """Interpret `op` (a polynomial in this family's times) as a
        differential operator: t_k becomes d/dt_k divided by k (the
        tilde-derivative convention).

        `target` may be a `_Partials` memo of the target, so that several
        operators on one target share its partial derivatives."""
        partials = target if isinstance(target, _Partials) else _Partials(target)
        target = partials.poly
        rank = {name: k for k, name in enumerate(self.names, start=1)}
        out = _Sum(target.zero_like())
        for key, n in op.nums.items():
            alpha = []
            scale = 1
            for idx, e in key:
                name = op.table.variables[idx].name
                if name not in rank:
                    raise ValueError(f"operator touches non-time variable {name}")
                scale *= rank[name] ** e
                alpha.append((target._var_index(name), e))
            piece = partials.get(tuple(sorted(alpha)))
            if piece:
                out.add(piece, Fraction(n, op.den * scale))
        return out.poly()


def hirota_bilinear(
    op_terms: Iterable[tuple[Scalar, Mapping[str, int]]], f: Poly, g: Poly
) -> Poly:
    """Evaluate P(D) f.g: apply P(d/dX) to f(t+X) g(t-X) at X = 0.

    `op_terms` lists (coefficient, {variable name: derivative order}).
    Expanded by the Leibniz rule, sum over beta <= alpha of
    prod_i C(alpha_i, beta_i) (-1)^(alpha_i - beta_i) d^beta f d^(alpha-beta) g,
    with the partial derivatives of f and g memoized across all terms.
    When `f is g`, the products for beta and alpha - beta coincide and
    are formed once, with the two Leibniz weights added.
    """
    f_partials = _Partials(f)
    g_partials = f_partials if g is f else _Partials(g)
    out = _Sum(f.zero_like())
    for coeff, orders in op_terms:
        if any(a < 0 for a in orders.values()):
            raise ValueError(f"negative derivative order in {dict(orders)}")
        alpha = sorted((f._var_index(name), a) for name, a in orders.items() if a)
        idx = [i for i, _ in alpha]
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
            fp = f_partials.get(tuple((i, b) for i, b in zip(idx, beta) if b))
            gp = g_partials.get(tuple((i, r) for i, r in zip(idx, rest) if r))
            # a vanishing term is skipped, but with no derivative at all
            # f * g is added as it stands, merging the two cutoffs
            if alpha and not (fp and gp):
                continue
            out.add(fp * gp, Fraction(coeff) * weight)
    return out.poly()


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
    """Exact determinant of a rational matrix (fraction-free not needed:
    Fraction arithmetic is already exact), by Gaussian elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


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
