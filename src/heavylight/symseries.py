"""Truncated symmetric-function series in the power-sum basis.

`_Series` is the graded series ring written once for both series types: a
finitely supported map {key -> UVPoly} with a bound `trunc` on the arity of
its keys.  It holds the ring arithmetic, the Adams maps, the plethysm kernel,
Exp/Log (one running sum per key, one arity at a time) and the one change of
basis to and from Schur functions, in the formalism of Bergeron-Labelle-Leroux
(Combinatorial Species and Tree-like Structures) and Getzler-Kapranov (Modular operads).
A subclass supplies only its key algebra: the arity of a key, the product of
two keys and the split of a key into one partition per tensor factor.
SymSeries (one factor, here) and BiSymSeries (two factors, bisymseries.py)
are its two subclasses.

A SymSeries key is a partition lambda indexing the monomial p_lambda; its
size is the arity of that term.  The power-sum basis is canonical
internally; Schur form is a presentation-layer conversion: the
characteristic map of Macdonald (Symmetric Functions and Hall Polynomials,
I.7), applied to one tensor factor at a time through cached character
columns, in either direction.

Binary operations truncate to the minimum of the two operand orders.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import itemgetter

from .partitions import (
    character_column,
    format_partition,
    gen_partitions,
    is_partition,
    mn_character,
    union,
    z_of,
)
from .powerseries import FormalPS1
from .uvpoly import UVPoly, _lowest, as_poly


def mobius(n: int) -> int:
    """The number-theoretic Moebius function mu(n)."""
    if n == 1:
        return 1
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def _slot(acc: dict, key, den: int, w=1) -> tuple:
    """The numerators of the running sum acc[key] = [nums, lcm of the denominators
    added so far] and the factor that puts w / den, for an int or Fraction w, on
    that lcm; the numerators are rescaled when the new denominator raises it."""
    den *= w.denominator
    entry = acc.get(key)
    if entry is None:
        acc[key] = entry = [{}, den]
    nums, d = entry
    if d % den:
        s = den // gcd(d, den)
        for m in nums:
            nums[m] *= s
        entry[1] = d = d * s
    return nums, d // den * w.numerator


def _reduced(acc: dict):
    """The nonzero running sums of `acc` as (key, UVPoly) pairs in lowest terms,
    each key released from `acc` as it is reduced."""
    for key in list(acc):
        nums, den = acc.pop(key)
        if 0 in nums.values():
            nums = {m: x for m, x in nums.items() if x}
        if nums:
            yield key, _lowest(nums, den)


def _unpack(packed: int, W: int, monos: list) -> dict:
    """The numerators packed W bits a slot, monos[i] in slot i, each slot signed and
    read back balanced: a slot of 2^(W-1) or more borrows one from the next."""
    nums, mask, half, i = {}, (1 << W) - 1, 1 << (W - 1), 0
    while packed:
        x = packed & mask
        if x >= half:
            x -= 1 << W
        if x:
            nums[monos[i]] = x
        packed = (packed - x) >> W  # a negative slot borrows one from the next
        i += 1
    return nums


def _adams_products(g, parts, prods: dict) -> dict:
    """Extend `prods`, the table {lam: prod_i adams(lam_i, g)}, to each
    partition in `parts`, memoised on every suffix of it: each new entry is
    one product of an Adams image of g and a shorter suffix."""
    for part in parts:
        for i in range(len(part) - 1, -1, -1):
            k = part[i]
            if (k,) not in prods:
                prods[(k,)] = g.adams(k)
            if part[i:] not in prods:
                prods[part[i:]] = prods[(k,)] * prods[part[i + 1:]]
    return prods


@lru_cache(maxsize=None)
def _partition_order(trunc: int) -> dict:
    """{lam: rank} over the partitions of size <= trunc, lex-decreasing within each size."""
    return {lam: i for n in range(trunc + 1) for i, lam in enumerate(gen_partitions(n))}


def _schur_column(mu: tuple) -> tuple:
    """The Schur expansion p_mu = sum_lam chi^lam(mu) s_lam, as character_column's pairs."""
    return tuple(character_column(mu).items())


def _power_column(lam: tuple) -> tuple:
    """The nonzero (mu, chi^lam(mu) / z_mu) over the partitions mu of |lam|:
    the power-sum expansion s_lam = sum_mu chi^lam(mu) / z_mu p_mu."""
    chis = ((mu, mn_character(lam, mu)) for mu in gen_partitions(sum(lam)))
    return tuple((mu, Fraction(chi, z_of(mu))) for mu, chi in chis if chi)


@lru_cache(maxsize=None)
def _integer_column(column, n: int) -> tuple:
    """`column` over the partitions of n on integer weights: (z, {part: ((new, z * w), ...)},
    gain), z the lcm of the weights' denominators (1 for Schur columns) and gain = p(n) *
    max |z * w|: one source per partition of n, at most, adds into one output key."""
    cols = {part: column(part) for part in gen_partitions(n)}
    z = lcm(*(w.denominator for col in cols.values() for _, w in col))
    cols = {part: tuple((new, w.numerator * (z // w.denominator)) for new, w in col)
            for part, col in cols.items()}
    return z, cols, len(cols) * max(abs(w) for col in cols.values() for _, w in col)


class _Series:
    """Arity-truncated series over a graded key algebra.

    Subclasses set `_UNIT`, the key of the constant term, and
    `_POWER_TAGS`, the printed name of each factor's power sums, and define
    `_arity(key)`, `_key_mul(a, b)`, `_factors(key)` (one partition per
    tensor factor) and its inverse `_from_factors(parts)`.  The public
    constructor checks every key; results the kernel builds from keys already
    checked leave through one trusted exit, `_built`, which checks nothing.
    """

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs: dict, trunc: int):
        if trunc < 0:
            raise ValueError("truncation must be nonnegative")
        arity, factors, width = self._arity, self._factors, len(self._POWER_TAGS)
        clean = {}
        for key, c in coeffs.items():
            parts = factors(key) if type(key) is tuple else ()
            if len(parts) != width or not all(map(is_partition, parts)):
                why = "each factor must be a weakly decreasing tuple of positive ints"
                raise ValueError(f"{type(self).__name__} key {key!r} is not canonical: {why}")
            c = as_poly(c)
            if arity(key) <= trunc and not c.is_zero():
                clean[key] = c
        self.coeffs = clean
        self.trunc = trunc

    @classmethod
    def _built(cls, coeffs: dict, trunc: int):
        """`coeffs` as given: canonical keys of arity <= trunc to nonzero, reduced UVPolys."""
        self = object.__new__(cls)
        self.coeffs, self.trunc = coeffs, trunc
        return self

    @classmethod
    def zero(cls, trunc: int):
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: int):
        return cls({cls._UNIT: UVPoly.one()}, trunc)

    # -- basic structure --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        n = min(self.trunc, other.trunc)
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self[k] == other[k] for k in keys if self._arity(k) <= n)

    def __getitem__(self, key) -> UVPoly:
        return self.coeffs.get(key, UVPoly.zero())

    def constant_term(self) -> UVPoly:
        return self[self._UNIT]

    def truncate(self, trunc: int):
        out = self.zero(min(self.trunc, trunc))  # checks the order
        out.coeffs = {k: c for k, c in self.coeffs.items() if self._arity(k) <= out.trunc}
        return out

    def weight_zero(self):
        """Specialize every coefficient at u = v = 0."""
        return type(self)({k: c.weight_zero() for k, c in self.coeffs.items()}, self.trunc)

    def canonical_order(self, keys) -> list:
        """`keys` (of arity <= trunc) by ascending total arity, then the arity of
        each factor in turn, then the lex-decreasing order of each factor's
        partition: the one order of printed series, fixtures and tables."""
        order = _partition_order(self.trunc)

        def rank(key):
            parts = self._factors(key)
            return (self._arity(key), tuple(map(sum, parts)), tuple(order[p] for p in parts))

        return sorted(keys, key=rank)

    def _render(self, coeffs: dict, tags: tuple) -> str:
        """A sum of terms (c)*tag[partition]*..., one tag per factor, in
        canonical order."""
        terms = []
        for k in self.canonical_order(coeffs):
            names = [t + format_partition(p) for t, p in zip(tags, self._factors(k))]
            terms.append("*".join([f"({coeffs[k]})"] + names))
        return " + ".join(terms) if terms else "0"

    def __str__(self):
        return self._render(self.coeffs, self._POWER_TAGS)

    __repr__ = __str__

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, UVPoly)):
            other = type(self)({self._UNIT: as_poly(other)}, self.trunc)
        elif not isinstance(other, type(self)):
            return NotImplemented
        n = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = self[k] + c
        return type(self)(out, n)

    __radd__ = __add__

    def __neg__(self):
        return self._built({k: -c for k, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, UVPoly, type(self))):
            return NotImplemented
        return self + (-other)

    def _mul(self, other):
        """Truncated product, or the multiple by a scalar coefficient."""
        if isinstance(other, (int, Fraction, UVPoly)):
            c = as_poly(other)
            return self._built({k: v * c for k, v in self.coeffs.items() if c}, self.trunc)
        if not isinstance(other, type(self)):
            return NotImplemented
        n = min(self.trunc, other.trunc)
        acc: dict = {}
        self._add_products(acc, self.coeffs, other.coeffs, n)
        return self._built(dict(_reduced(acc)), n)

    def _add_products(self, acc: dict, left: dict, right: dict, n: int, w=1):
        """acc[a * b] += w * left[a] * right[b] over the pairs of arity <= n (int or
        Fraction w), convolving the integer numerators into the running sums of `acc`."""
        arity, key_mul = self._arity, self._key_mul
        right = sorted(((arity(k), k, c.nums, c.den) for k, c in right.items()), key=itemgetter(0))
        for k1, c1 in left.items():
            s1, nums1, den1 = arity(k1), c1.nums, c1.den
            for s2, k2, nums2, den2 in right:
                if s1 + s2 > n:
                    break
                total, s = _slot(acc, key_mul(k1, k2), den1 * den2, w)
                get = total.get
                for (a1, b1), x in nums1.items():
                    x *= s
                    for (a2, b2), y in nums2.items():
                        m = (a1 + a2, b1 + b2)
                        total[m] = get(m, 0) + x * y

    @classmethod
    def _linear(cls, terms, n: int):
        """The linear combination sum w * f over the (w, f) of `terms`, int or Fraction
        w and f truncated at n, summed in one accumulator and reduced once."""
        acc: dict = {}
        for w, f in terms:
            for key, c in f.coeffs.items():
                total, s = _slot(acc, key, c.den, w)
                for m, x in c.nums.items():
                    total[m] = total.get(m, 0) + x * s
        return cls._built(dict(_reduced(acc)), n)

    # -- plethystic operations ----------------------------------------------

    def adams(self, k: int):
        """The k-th Adams map: p_j -> p_{jk} in every factor and u,v -> u^k,v^k.

        Equals plethysm by p_k on the left.
        """
        if k == 1:
            return self
        factors, join = self._factors, self._from_factors
        return self._built(
            {
                join(tuple(tuple(p * k for p in lam) for lam in factors(key))): c.adams(k)
                for key, c in self.coeffs.items()
                if k * self._arity(key) <= self.trunc
            },
            self.trunc,
        )

    def _pleth(self, g, factor: int):
        """Substitute g into one tensor factor: each p_k there becomes adams(k, g).

        Monomials of the other factors and the coefficients of self pass
        through unchanged; `g` must have zero constant term.  The product of
        the Adams images over the parts of a partition is memoised on every
        suffix of the partition, and the terms of self that share that
        partition are multiplied by it together.
        """
        if not isinstance(g, type(self)):
            raise TypeError(f"cannot substitute a {type(g).__name__} into a {type(self).__name__}")
        if not g.constant_term().is_zero():
            raise ValueError("plethysm requires zero constant term in the inner series")
        n = min(self.trunc, g.trunc)
        g = g.truncate(n)
        groups: dict = {}
        for key, c in self.coeffs.items():
            if self._arity(key) <= n:
                parts, f = self._factors(key), factor - 1
                rest = self._from_factors(parts[:f] + ((),) + parts[f + 1:])
                groups.setdefault(parts[f], {})[rest] = c
        prods = _adams_products(g, groups, {(): self.one(n)})
        acc: dict = {}
        for part, left in groups.items():
            self._add_products(acc, left, prods[part].coeffs, n)
        return self._built(dict(_reduced(acc)), n)

    def _graded(self) -> list:
        """Entry d is the {key: c} of self over the keys of arity d, for d <= trunc."""
        parts = [{} for _ in range(self.trunc + 1)]
        for key, c in self.coeffs.items():
            parts[self._arity(key)][key] = c
        return parts

    def _exp(self):
        """Exp: the sum over n >= 1 of h_n o self (zero constant term required).

        Exp(f) = exp(G) - 1, G = sum_k adams_k(f) / k, by DE = (DG) E (Knuth, TAOCP
        Vol. 2, 4.7), D the derivation d * (arity-d part): d E_d = sum_{j=1..d} j G_j E_{d-j}.
        """
        if not self.constant_term().is_zero():
            raise ValueError("Exp requires zero constant term")
        n, e = self.trunc, [{self._UNIT: UVPoly.one()}]
        g = self._linear(((Fraction(1, k), self.adams(k)) for k in range(1, n + 1)), n)._graded()
        for d in range(1, n + 1):
            acc: dict = {}
            for j in range(1, d + 1):
                self._add_products(acc, g[j], e[d - j], n, Fraction(j, d))
            e.append(dict(_reduced(acc)))
        return self._built({k: c for part in e[1:] for k, c in part.items()}, n)

    def _log(self):
        """Log, the inverse of Exp: the f with Exp(f) = self.

        L = log(1 + F), F = self, by the same rule read as D F = (D L)(1 + F):
        d L_d = d F_d - sum_{j<d} j L_j F_{d-j}.  Then f = sum_d mu(d)/d * adams_d(L).
        """
        if not self.constant_term().is_zero():
            raise ValueError("Log requires zero constant term")
        n, f, log1p = self.trunc, self._graded(), [{}]
        for d in range(1, n + 1):
            acc = {key: [dict(c.nums), c.den] for key, c in f[d].items()}
            for j in range(1, d):
                self._add_products(acc, log1p[j], f[d - j], n, Fraction(-j, d))
            log1p.append(dict(_reduced(acc)))
        log1p = self._built({k: c for part in log1p for k, c in part.items()}, n)
        mus = ((d, mobius(d)) for d in range(1, n + 1))
        return self._linear(((Fraction(mu, d), log1p.adams(d)) for d, mu in mus if mu), n)

    def trace_from_ch(self, key) -> UVPoly:
        """The character value on the class of `key`, one cycle type per factor:
        z_lam [p_lam] self for a partition lam, z_lam z_mu [p_lam p_mu] self for a pair."""
        if self._arity(key) > self.trunc:
            raise ValueError("arity exceeds truncation")
        return self[key] * prod(map(z_of, self._factors(key)))

    def schur_blocks(self):
        """Schur expansion, [s_lam] self = sum_mu prod_f chi^{lam_f}(mu_f) [p_mu] self, one
        arity block {key: UVPoly} at a time in canonical order, each made when asked for."""
        return self._change_basis(self.coeffs, _schur_column)

    def _schur(self) -> dict:
        return {k: c for block in self.schur_blocks() for k, c in block.items()}

    @classmethod
    def from_schur(cls, schur_coeffs: dict, trunc: int):
        """Inverse of the Schur expansion: [p_mu] = sum_lam a_lam prod_f
        chi^{lam_f}(mu_f) / z_{mu_f}.  Schur keys are checked as series keys are."""
        schur = cls(schur_coeffs, trunc).coeffs
        blocks = cls._change_basis(schur, _power_column)
        return cls._built({k: c for block in blocks for k, c in block.items()}, trunc)

    @classmethod
    def _change_basis(cls, coeffs: dict, column):
        """Yield the image of `coeffs` one arity block (the arity of each factor) at a time,
        in canonical order, as {key: UVPoly} in lowest terms: each tensor factor in turn is
        mapped through column(part) -> ((new_part, weight), ...), the others held fixed.

        Everything is fixed before the first add.  The block's sources go over one lcm of
        their denominators, the weights over one lcm z per factor (`_integer_column`), so
        every add is one integer multiply-add and the block's denominator is that lcm times
        each z.  Each sum is packed in one int, one slot per monomial that occurs in the
        block, in sorted order; the map is linear, so no monomial moves between slots.  The
        largest scaled numerator times each factor's gain bounds every slot, and one bit
        more makes the slots W bits wide and signed."""
        blocks: dict = {}
        for key, c in coeffs.items():
            parts = cls._factors(key)
            blocks.setdefault(tuple(map(sum, parts)), {})[parts] = c
        for block in sorted(blocks, key=lambda b: (sum(b), b)):
            terms = blocks.pop(block)
            den = lcm(*(c.den for c in terms.values()))
            cols = [_integer_column(column, n) for n in block]
            top = max(max(map(abs, c.nums.values())) * (den // c.den) for c in terms.values())
            W = (top * prod(gain for *_, gain in cols)).bit_length() + 1
            monos = sorted({m for c in terms.values() for m in c.nums})
            slot = {m: W * i for i, m in enumerate(monos)}
            sums = {parts: sum(x * (den // c.den) << slot[m] for m, x in c.nums.items())
                    for parts, c in terms.items()}
            for f, (z, col, _) in enumerate(cols):
                sources, sums, den = sums, {}, den * z
                for parts, packed in sources.items():
                    head, tail = parts[:f], parts[f + 1:]
                    for new, w in col[parts[f]]:
                        key = head + (new,) + tail
                        sums[key] = sums.get(key, 0) + packed * w
            yield {cls._from_factors(parts): _lowest(_unpack(packed, W, monos), den)
                   for parts, packed in sums.items() if packed}


class SymSeries(_Series):
    """Element of the arity-truncated symmetric-function series ring."""

    __slots__ = ()

    _UNIT = ()
    _POWER_TAGS = ("p",)
    _arity = staticmethod(sum)
    _key_mul = staticmethod(union)

    @staticmethod
    def _factors(lam):
        return (lam,)

    @staticmethod
    def _from_factors(parts):
        return parts[0]

    # -- constructors ---------------------------------------------------

    @staticmethod
    def power_sum(k: int, trunc: int) -> "SymSeries":
        """The generator p_k."""
        if k < 1:
            raise ValueError("power sums are indexed by positive integers")
        return SymSeries({(k,): UVPoly.one()}, trunc)

    @staticmethod
    def homogeneous_h(n: int, trunc: int) -> "SymSeries":
        """h_n = sum over partitions of n of p_lambda / z_lambda."""
        if n > trunc:
            raise ValueError("homogeneous degree exceeds truncation")
        return SymSeries(
            {lam: UVPoly.const(Fraction(1, z_of(lam))) for lam in gen_partitions(n)},
            trunc,
        )

    # -- structure ----------------------------------------------------------

    def arity_part(self, n: int) -> "SymSeries":
        return SymSeries._built(
            {lam: c for lam, c in self.coeffs.items() if sum(lam) == n}, self.trunc
        )

    # -- ring and plethystic operations ---------------------------------------

    def __mul__(self, other):
        return self._mul(other)

    __rmul__ = __mul__

    def plethysm(self, g: "SymSeries") -> "SymSeries":
        """Plethystic substitution self o g; `g` must have zero constant term."""
        return self._pleth(g, 1)

    def exp_series(self) -> "SymSeries":
        """Exp: sum over n >= 1 of h_n o self (self must have zero constant term)."""
        return self._exp()

    def log_series(self) -> "SymSeries":
        """Log, the inverse of exp_series: the f with exp_series(f) = self."""
        return self._log()

    def pleth_inverse(self) -> "SymSeries":
        """Compositional inverse under plethysm of p_1 + (arity >= 2 terms).

        Solves g o self = p_1, which is linear in g: with P_lam = p_lam o self
        = p_lam + (higher arities), the arity-d part of g is minus the arity-d
        part of sum_{|lam| < d} g_lam P_lam, each P_lam built once.  These
        series form a group under plethysm, so also self o g = p_1.
        """
        n = self.trunc
        if not self.constant_term().is_zero() or self.arity_part(1) != SymSeries.power_sum(1, n):
            raise ValueError("pleth_inverse requires the form p_1 + higher-arity terms")
        g, prods, acc = {(1,): UVPoly.one()}, {}, {}
        for d in range(2, n + 1):
            lams = [lam for lam in g if sum(lam) == d - 1]
            _adams_products(self, lams, prods)
            for lam in lams:
                self._add_products(acc, {(): g[lam]}, prods[lam].coeffs, n)
            top = {k: acc.pop(k) for k in [k for k in acc if sum(k) == d]}
            g.update((k, -c) for k, c in _reduced(top))
        return SymSeries._built(g, n)

    def d_dpk(self, k: int) -> "SymSeries":
        """d/dp_k: p_lam -> m_k(lam) p_{lam minus one k}, a distinct key for each lam."""
        out: dict = {}
        for lam, c in self.coeffs.items():
            m = lam.count(k)
            if m:
                i = lam.index(k)
                out[lam[:i] + lam[i + 1:]] = c * m
        return SymSeries._built(out, self.trunc)

    def d_dp1(self) -> "SymSeries":
        return self.d_dpk(1)

    def to_schur(self) -> dict:
        """Expand into the Schur basis: map partition -> UVPoly.

        a_lam = sum_mu chi^lam(mu) * [p_mu] self.
        """
        return self._schur()

    def rank1(self, var: str = "x") -> FormalPS1:
        """Rank specialization p_1 -> var, p_k -> 0 for k >= 2: var^n takes the
        coefficient of p_1^n, the one monomial of arity n that survives."""
        return FormalPS1(var, [self[(1,) * n] for n in range(self.trunc + 1)], self.trunc)
