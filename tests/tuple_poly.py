"""A reference `Poly` on sorted tuple keys, for differential tests.

This keeps the storage and algorithms that `tauforge.polyring` used before
its monomials became packed integers: keys are sorted
((variable index, exponent), ...) tuples, a product merges two keys through
a dict and a sort unless their variable ranges are disjoint, a derivative
edits the exponent inside the tuple, and a time shift expands each power
into exponent dicts.  Numerators are integers over one denominator, kept
canonical the same way, so a packed result and a reference result must
agree term for term, numerator for numerator.
"""

from fractions import Fraction
from math import comb, gcd, lcm, perm
from operator import le


def weight_of(table, key, grading) -> int:
    return sum(
        table.variables[i].weight * e for i, e in key if table.variables[i].grading == grading
    )


def within(table, cutoffs, key) -> bool:
    return all(cut is None or weight_of(table, key, g) <= cut for g, cut in cutoffs.items())


def complete(table, cutoffs) -> dict:
    out = dict(cutoffs)
    for g in table.gradings:
        out.setdefault(g, None)
    return out


def merge_cutoffs(table, *cutoffs) -> dict:
    out = {}
    for g in table.gradings:
        bounds = [c for cut in cutoffs if (c := cut.get(g)) is not None]
        out[g] = min(bounds) if bounds else None
    return out


class TuplePoly:
    def __init__(self, table, cutoffs, nums, den):
        g = gcd(den, *nums.values())
        self.table = table
        self.cutoffs = cutoffs
        self.nums = {k: n // g for k, n in nums.items()}
        self.den = den // g

    @staticmethod
    def build(table, cutoffs, terms) -> "TuplePoly":
        cut = complete(table, cutoffs)
        acc: dict = {}
        for key, c in terms.items():
            c = Fraction(c)
            key = tuple(sorted((i, e) for i, e in key if e != 0))
            if c and within(table, cut, key):
                acc[key] = acc.get(key, 0) + c
        den = lcm(*(c.denominator for c in acc.values()))
        nums = {k: c.numerator * (den // c.denominator) for k, c in acc.items() if c}
        return TuplePoly(table, cut, nums, den)

    def one_like(self) -> "TuplePoly":
        ok = all(cut is None or cut >= 0 for cut in self.cutoffs.values())
        return TuplePoly(self.table, self.cutoffs, {(): 1} if ok else {}, 1)

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((), 0), self.den)

    def scaled(self, c) -> "TuplePoly":
        c = Fraction(c)
        nums = {k: n * c.numerator for k, n in self.nums.items() if c}
        return TuplePoly(self.table, self.cutoffs, nums, self.den * c.denominator)

    def __add__(self, other) -> "TuplePoly":
        acc = Sum(self)
        acc.add(other)
        return acc.poly()

    def __sub__(self, other) -> "TuplePoly":
        return self + other.scaled(-1)

    def __mul__(self, o) -> "TuplePoly":
        """Bucketed by weight per bounded grading; keys merged by
        concatenation when their variable ranges are disjoint, else
        through a dict and a sort."""
        table = self.table
        cut = merge_cutoffs(table, self.cutoffs, o.cutoffs)
        graded = tuple(g for g, c in cut.items() if c is not None)
        caps = [cut[g] for g in graded]

        def buckets(p):
            out: dict = {}
            for key, n in p.nums.items():
                w = tuple(weight_of(table, key, g) for g in graded)
                out.setdefault(w, []).append((key, n))
            return list(out.items())

        right = buckets(o)
        acc: dict = {}
        for w1, left in buckets(self):
            room = [c - x for x, c in zip(w1, caps)]
            fit = [t for w2, ts in right if all(map(le, w2, room)) for t in ts]
            for k1, c1 in left:
                for k2, c2 in fit:
                    if not k1:
                        key = k2
                    elif not k2:
                        key = k1
                    elif k1[-1][0] < k2[0][0]:
                        key = k1 + k2
                    elif k2[-1][0] < k1[0][0]:
                        key = k2 + k1
                    else:
                        merged = dict(k1)
                        for i, e in k2:
                            merged[i] = merged.get(i, 0) + e
                        key = tuple(sorted(merged.items()))
                    acc[key] = acc.get(key, 0) + c1 * c2
        nums = {k: n for k, n in acc.items() if n}
        return TuplePoly(table, cut, nums, self.den * o.den)

    def derivative(self, idx: int, order: int) -> "TuplePoly":
        if not order:
            return self
        nums = {}
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
        return TuplePoly(self.table, self.cutoffs, nums, self.den)

    def truncate(self, cutoffs) -> "TuplePoly":
        merged = dict(self.cutoffs)
        for g, c in cutoffs.items():
            old = merged.get(g)
            merged[g] = c if old is None else (old if c is None else min(old, c))
        nums = {k: n for k, n in self.nums.items() if within(self.table, merged, k)}
        return TuplePoly(self.table, merged, nums, self.den)

    def embed(self, table, cutoffs) -> "TuplePoly":
        remap = {i: table.index[v.name] for i, v in enumerate(self.table.variables)}
        cut = complete(table, cutoffs)
        nums = {}
        for key, n in self.nums.items():
            key = tuple(sorted((remap[i], e) for i, e in key))
            if within(table, cut, key):
                nums[key] = n
        return TuplePoly(table, cut, nums, self.den)

    def check_locally_nilpotent(self):
        for key in self.nums:
            if not any(
                cut is not None and weight_of(self.table, key, g) > 0
                for g, cut in self.cutoffs.items()
            ):
                raise ValueError("series argument must vanish at weight zero")

    def series_exp(self) -> "TuplePoly":
        self.check_locally_nilpotent()
        out = Sum(self.one_like())
        term = self.one_like()
        k = 1
        while True:
            term = (term * self).scaled(Fraction(1, k))
            if not term.nums:
                return out.poly()
            out.add(term)
            k += 1

    def series_inverse(self) -> "TuplePoly":
        c = self.constant_term()
        if c == 0:
            raise ZeroDivisionError("series has no constant term")
        u = self.scaled(1 / c) - self.one_like()
        u.check_locally_nilpotent()
        out = Sum(self.one_like())
        power = self.one_like()
        sign = -1
        while True:
            power = power * u
            if not power.nums:
                return out.poly().scaled(1 / c)
            out.add(power, sign)
            sign = -sign

    def sorted_nums(self) -> list:
        slots = [(self.table.gradings.index(v.grading), v.weight) for v in self.table.variables]
        width = len(self.table.gradings)

        def sortkey(item):
            tot = [0] * width
            for i, e in item[0]:
                g, w = slots[i]
                tot[g] += w * e
            return (sum(tot), tot, item[0])

        return sorted(self.nums.items(), key=sortkey)

    def to_json(self) -> dict:
        names = [v.name for v in self.table.variables]
        terms = []
        for key, n in self.sorted_nums():
            g = gcd(n, self.den)
            terms.append(
                {
                    "exp": {names[i]: e for i, e in key},
                    "num": str(n // g),
                    "den": str(self.den // g),
                }
            )
        return {
            "vars": [
                {"name": v.name, "grading": v.grading, "weight": v.weight}
                for v in self.table.variables
            ],
            "cutoff": {g: c for g, c in self.cutoffs.items() if c is not None},
            "terms": terms,
        }


class Sum:
    """The in-place running sum over a growing denominator."""

    def __init__(self, start: TuplePoly):
        self.table, self.cutoffs = start.table, start.cutoffs
        self.nums, self.den = dict(start.nums), start.den

    def add(self, p: TuplePoly, scale=None) -> None:
        cut = merge_cutoffs(self.table, self.cutoffs, p.cutoffs)
        if cut != self.cutoffs:
            self.nums = {k: n for k, n in self.nums.items() if within(self.table, cut, k)}
            self.cutoffs = cut
        scale = Fraction(1 if scale is None else scale)
        if not scale:
            return
        num, pden = scale.numerator, p.den * scale.denominator
        grown = lcm(self.den, pden)
        self.nums = {k: n * (grown // self.den) for k, n in self.nums.items()}
        self.den = grown
        num *= grown // pden
        for k, n in p.nums.items():
            if within(self.table, cut, k):
                s = self.nums.get(k, 0) + n * num
                if s:
                    self.nums[k] = s
                else:
                    self.nums.pop(k, None)

    def poly(self) -> TuplePoly:
        return TuplePoly(self.table, self.cutoffs, self.nums, self.den)


def binomial_shift(p: TuplePoly, moves: dict, *cutoffs) -> TuplePoly:
    """Substitute t_i -> t_i + (num/den) v^m for each i -> (v, m, num, den),
    each power of a shifted time expanded into exponent dicts."""
    pieces = []
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
    cut = merge_cutoffs(p.table, p.cutoffs, *cutoffs)
    common = lcm(*{pd for _, _, pd in pieces})
    nums: dict = {}
    for exps, pn, pd in pieces:
        k = tuple(sorted(exps.items()))
        if within(p.table, cut, k):
            nums[k] = nums.get(k, 0) + pn * (common // pd)
    return TuplePoly(p.table, cut, {k: n for k, n in nums.items() if n}, p.den * common)
