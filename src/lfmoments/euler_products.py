"""Arithmetic factors: Euler products over primes.

Each built-in family is one row of _FAMILIES: the zeta family (local
factors from the generalized divisor coefficients d_k) and the
quadratic-character symplectic family.  Both products are truncated at a
prime cutoff with an observable error estimate and take the shape
(prod_p (1 - 1/p))^alpha * prod_p S(1/p), with a power series S whose
coefficients do not depend on p: _arithmetic_factor runs the shared setup
and the row's body builds S.  _truncated_products splits the primes at
P0 = 2^s, past the shape's largest reciprocal root: the fixed-point kernel
_euler_products evaluates the head p <= P0, and the tail is
exp(sum_m l_m S_m), with the log coefficients l_m of the shape and the sums
S_m = sum_{P0 < p <= x} p^-m read from one cached table per (s, cutoff,
width) that every k and both rows share, once the table is cheaper than the
kernel over the tail or asked for again.  Each request charges its steps
to one WorkBudget.

``assemble_mean_value`` combines an arithmetic factor with the moment
constant over Gamma(1 + B(k)), read from the Barnes-G closed form
(``moment_ratio_closed_form``), into the leading-term shape
coefficient * (log Q^A)^{B(k)}; no huge integer is built.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count
from operator import floordiv

import mpmath as mp

from .analytic_moments import moment_ratio_closed_form
from .errors import DomainError, LfmomentsError, WorkBudget, require_int, require_rational
from .exact_moments import SymmetryClass, _checked_log_power, require_class
from .numeric_core import primes_up_to
from .precision import RealApprox, approx, to_fraction, to_mpf, working_precision

_MIN_CUTOFF = 100
# The products charge one WorkBudget of _MAX_WORK_NS for the steps they
# take, each at a charge in ns set by timing it (2-vCPU x86-64, CPython
# 3.11.7, no gmpy2; the README has inputs charged, then timed):
#   the sieve to x                                      16 x
#   a zeta term or running-product step, w by r bits    _step_ns(w, r)
#   a zeta series ratio of r bits                        r (r + 2048) / 1024
#   an Sp Horner step, one single-limb division, w bits  9 (w + 512) / 32
#   a table term, one single-limb division, w bits       _term_ns(w)
#   a log coefficient or tail column product, w by r     _step_ns(w, r) / 4
# Sp's binomial row, built by recurrence, is not charged: it costs about
# one prime's Horner pass (0.5 against 0.6 ms at k = 1000, 150 against
# 120 ms at 20000), and every request has at least 25 primes.
_MAX_WORK_NS = 3 * 10**9
_REFUSAL = ("k, prime_cutoff and {} bits pass the cost bound of the Euler products: "
            "over 3 s of estimated work").format


def _step_ns(width: int, other: int) -> int:
    return (width + 256) * (other + 256) >> 8


def _term_ns(width: int) -> int:
    return (width + 512) >> 2


def _check_cost(k, prime_cutoff, bits: int):
    """(k as an exact rational, the request's WorkBudget charged the sieve
    and two running-product steps a prime) once k > -1/2 and the cutoff is
    an int >= _MIN_CUTOFF: the kernel's sieve and running products over
    every prime up to the cutoff, whichever route _truncated_products takes.
    Primes <= x number below 1.25506 x / ln x (Rosser and Schoenfeld, 1962),
    so below 2x / (b - 1), b = x.bit_length()."""
    require_int("prime_cutoff", prime_cutoff, _MIN_CUTOFF)
    k = to_fraction(k)
    if k <= Fraction(-1, 2):
        raise DomainError("the product is defined only for k > -1/2")
    width = mp.mp.prec + 32
    primes = 2 * prime_cutoff // (prime_cutoff.bit_length() - 1)
    budget = WorkBudget(_MAX_WORK_NS)
    budget.spend(16 * prime_cutoff + 2 * primes * _step_ns(width, width), _REFUSAL, bits)
    return k, budget


def _euler_products(primes, alpha, make_local, ends) -> list:
    """(prod_{p in P} (1 - 1/p))^alpha * prod_{p in P} L(p) for each prefix
    P = primes[:end], end in the increasing list ``ends``; L(p) is S(1/p),
    times p / (p + 1) for the Sp family.  The head of every product, and
    the whole product in the tests' oracle.

    Both running products are Python ints with W = mp.prec + 32 fraction
    bits; ``make_local(W)`` gives the function p -> L(p) * 2^W, within a
    few ulps.  Neither product comes near zero (the base is about
    e^-gamma / log p_max, the series stays above 2/3), so each step, which
    rounds down by under one ulp, costs O(log p_max) ulps relative: for n
    primes the result is within (1 + alpha) n log(p_max) 2^-W relative,
    below the guard bits.  Each prefix is converted to mpf once, and its
    alpha power taken once, with mp.power at W bits.
    """
    width = mp.mp.prec + 32
    local = make_local(width)
    base = series = 1 << width
    prefixes = []
    start = 0
    for end in ends:
        for p in primes[start:end]:
            base -= base // p
            series = series * local(p) >> width
        prefixes.append((base, series))
        start = end
    with mp.workprec(width):
        alpha = to_mpf(alpha)
        values = [
            mp.power(mp.ldexp(b, -width), alpha) * mp.ldexp(s, -width)
            for b, s in prefixes
        ]
    return [+value for value in values]


# The head runs to P0 = 2^s, s = max(_MIN_HEAD_BITS, e + _RATE_BITS) for the
# shape's root bits e, so each tail column falls by 2^-_RATE_BITS at least.
_MIN_HEAD_BITS, _RATE_BITS = 7, 4
# a table column is summed to 2^-(width + m e), e = s - _RATE_BITS, at the
# working precision's width; at most _MAX_TABLES tables and keys asked for
# (None until built) are kept, the least recently used dropped first, and
# they are read and built under _TABLE_LOCK
_MAX_TABLES = 8
# a table is built over blocks of at most _BLOCK_PRIMES primes, so that its
# terms take little memory beside the primes
_BLOCK_PRIMES = 4096
_Table = namedtuple("_Table", "full half width e bound charge")
_TABLES = OrderedDict()
_TABLE_LOCK = threading.Lock()


def _truncated_products(name, key, alpha, flip, make_local, local_ns, bits, budget, cutoff, ends):
    """(the products over p <= end, end in ends: cutoff, or cutoff // 2 and
    cutoff; the primes the kernel ran over; the table, or None), for the
    shape of the row name at key (a for zeta, k for Sp).  make_local(width,
    poly) is the kernel's local factor, given the integer polynomial S when
    _tail_shape has built it (else None); local_ns its charge a prime.

    Head and tail: the row's shape F(y) = (1 - y)^alpha S(y) (1 + y)^-flip,
    y = 1/p, has log F(y) = sum_{m >= 2} l_m y^m (both rows have no y term:
    q_1 = alpha + flip), so the product over (P0, x] is exp(sum_m l_m S_m).
    With e_k the shape's root bits (_poly_root_bits), |m l_m| <= alpha +
    1 + 1.39 m 2^{m e_k} and S_m <= P0^{1-m} / (m - 1), so past column M
    the series is below 2^{s + 3 - (M + 1) r}, r = s - e_k >= _RATE_BITS:
    columns 2..M with (M + 1) r >= F + s + 3 leave it below 2^-F.

    Rounding, relative to the result: the head is within the kernel's
    (1 + alpha) n_0 log(P0) 2^-(F + 32) (n_0 head primes).  Each table
    column is low by under n + B ulps of 2^-(F + m e) (_power_sum_table: n
    tail primes, B blocks, under n / 4096 + 30), and its weight |l_m| is below
    2.4 2^{m e}, so the table costs under 2.4 (2N + M B) 2^-F, N the
    terms the build took (a prime's terms past its last are below 1.07 ulps
    in all); every column costs 2 more ulps of 2^-F for its
    floors, a rational shape's coefficients, held to F + s + 8 bits, well
    under one in all, and exp and the last products 3 ulps of the working
    precision.  F = mp.prec = bits + GUARD_BITS (48) keeps the sum below
    2^-(bits + 16) while 2N + MB < 2^30, far past the 2^25 terms that the
    budget admits at _term_ns(F) >= 140 ns each.

    Route and charges: _check_cost has charged the sieve and the running
    products over every prime, and the head charges local_ns a prime (the
    zeta series charge theirs as they run).  The tail is read from the
    table (_power_sum_table) when the table's bound and the charge of the
    series (_series_ns) fit in what is left of the budget, and the table is
    kept, or is cheaper by charge than the kernel over the tail primes, or
    was asked for before; else the kernel runs on over the tail primes with
    the head's local factors, and no tail prime's local steps are charged
    more than the head's mean (a larger p takes no more series terms, and
    no wider ones).  So a one-shot request takes the route cheaper by
    charge, a request repeated reads a kept table, and a request is refused only
    where the kernel over every prime is, cold and warm alike: a kept table
    charges its build's steps on every use, and where the kernel fits and
    the table does not, the kernel runs.
    """
    width, fraction = mp.mp.prec + 32, mp.mp.prec
    s = max(_MIN_HEAD_BITS, _least_root_bits(alpha + flip) + _RATE_BITS)
    tail = None
    if 1 << s < cutoff:
        tail = _tail_shape(name, key)
        s = max(s, tail.root_bits + _RATE_BITS)
        if not alpha and not flip and tail.poly == [1]:
            tail = None  # every local factor is 1: the tail is exp(0)
    head = primes_up_to(min(1 << s, cutoff))
    spent = budget.spent
    budget.spend(len(head) * local_ns, _REFUSAL, bits)
    local = make_local(width, tail and tail.poly)
    values = _euler_products(head, alpha, lambda _: local, [bisect_right(head, end) for end in ends])
    if tail is None or cutoff <= 1 << s:
        return values, head, None
    columns = -(-(fraction + s + 3) // (s - tail.root_bits))
    shift = 0 if tail.poly else fraction + s + 8
    series_ns = _series_ns(name, key, columns, shift, len(ends), fraction + s)
    # the kernel's charge a tail prime: two running-product steps, and local
    # steps charged no more than the head's mean
    prime_ns = 2 * _step_ns(width, width) + -(-(budget.spent - spent) // len(head))
    table, primes = _power_sum_table(s, cutoff, fraction, budget, bits, series_ns, prime_ns)
    if table is None:
        rest = primes[len(head):]
        budget.spend(len(rest) * local_ns, _REFUSAL, bits)
        more = _euler_products(rest, alpha, lambda _: local, [bisect_right(rest, end) for end in ends])
        return [value * factor for value, factor in zip(values, more)], primes, None
    budget.spend(series_ns, _REFUSAL, bits)
    c = _log_coefficients(name, key, alpha, flip, columns, shift)
    products = []
    for end, value in zip(ends, values):
        sums = table.full if end == cutoff else table.half
        exponent = sum(
            (c[m] * sums[m] >> shift + m * table.e) // m
            for m in range(2, min(columns, len(sums))) if c[m]
        )
        with mp.workprec(fraction + 16):
            factor = mp.exp(mp.ldexp(exponent, -fraction))
        products.append(value * factor)
    return products, head, table


@lru_cache(maxsize=32)
def _series_ns(name: str, key, columns: int, shift: int, ends: int, width: int) -> int:
    """The charge of the tail series of the row name at key: Newton's
    identity (_log_coefficients) takes min(m - 1, len(q) - 1) products at
    column m of coefficients below 2^{shift + m e_k + log2(m) + 2} by the
    q_j, and each end one product of such a coefficient by a table sum below
    2^width, at _step_ns / 4 each.  Small exact ints at an integer shape
    (shift 0), products at the table's width only for a rational one and
    for the exponent sums."""
    tail = _tail_shape(name, key)
    q = tail.series(columns, shift)
    top = max(abs(c) for c in q).bit_length()
    total = 0
    for m in range(2, columns):
        wide = shift + m * tail.root_bits + m.bit_length() + 2
        total += min(m - 1, len(q) - 1) * _step_ns(wide, top) + ends * _step_ns(wide, width)
    return total >> 2


def _table_blocks(primes, s: int, cutoff: int, width: int):
    """(i, j, chain, low) for the blocks primes[i:j] of the table over
    (2^s, cutoff]: one bit length b, one side of cutoff // 2 (low: below
    it) and at most _BLOCK_PRIMES primes; chain = ceil(width / (b - 1 - e))."""
    e = s - _RATE_BITS
    start, half = bisect_right(primes, 1 << s), bisect_right(primes, cutoff // 2)
    cuts = sorted({start, half, len(primes), *range(start, len(primes), _BLOCK_PRIMES)}
                  | {bisect_left(primes, 1 << b) for b in range(s + 1, cutoff.bit_length())})
    for i, j in zip(cuts, cuts[1:]):
        if start <= i < j:
            yield i, j, -(-width // (primes[i].bit_length() - 1 - e)), j <= half


def _power_sum_table(s: int, cutoff: int, width: int, budget: WorkBudget, bits: int,
                     extra: int, prime_ns: int):
    """(the table of sum_{2^s < p <= x} p^-m 2^{width + m e}, m >= 2 (full)
    and of its part over p <= x // 2 (half), e = s - _RATE_BITS, and the
    primes up to x when it sieved them), or (None, the primes up to x) for
    the kernel: when the table's bound and extra pass what is left of
    budget, or when it is not kept, was not asked for before and its bound
    and extra pass prime_ns a tail prime, the kernel's charge.  Kept once
    built, the least recently used of _MAX_TABLES tables and keys asked
    for dropped first; charged at its build's steps on every use.

    A block (_table_blocks) starts at 2^{width + e K} // p, K its chain, and
    each column floor-divides every term by its p (one single-limb division
    of _term_ns): each term is floor(2^{width + e K} / p^m), under an ulp of
    that scale, and nonzero only for m <= K, since p^{K+1} >= 2^{(K+1)(b-1)}
    > 2^{width + e K}: a prime takes at most K + 1 divisions, its bound.  So
    the block's sum shifted down by e (K - m) bits is low by under
    (terms + 1) ulps of 2^-(width + m e).  Terms fall with p, so a column's
    zeros end its block, and the block ends once every term is zero.
    """
    key, rate = (s, cutoff, width), _term_ns(width)
    with _TABLE_LOCK:
        asked = key in _TABLES
        table = _TABLES[key] = _TABLES.pop(key, None)  # None: asked for, not built
        if len(_TABLES) > _MAX_TABLES:
            _TABLES.popitem(last=False)
        primes = None
        if table is None:
            primes = primes_up_to(cutoff)
            blocks = list(_table_blocks(primes, s, cutoff, width))
            bound = rate * sum((j - i) * (chain + 1) for i, j, chain, _ in blocks)
            wanted = asked or bound + extra <= prime_ns * (len(primes) - bisect_right(primes, 1 << s))
        else:
            bound, wanted = table.bound, True
        if not wanted or budget.spent + bound + extra > budget.limit:
            return None, primes or primes_up_to(cutoff)
        if table is not None:
            budget.spend(table.charge, _REFUSAL, bits)
            return table, None
        e, steps = s - _RATE_BITS, 0
        full, low = [0, 0, 0], [0, 0, 0]
        for i, j, chain, below in blocks:
            block = primes[i:j]
            terms = [(1 << (width + e * chain)) // p for p in block]
            steps += len(terms)
            for m in count(2):
                steps += len(terms)
                terms = list(map(floordiv, terms, block))
                while terms and not terms[-1]:
                    terms.pop()
                if not terms:
                    break
                if m == len(full):
                    full.append(0)
                    low.append(0)
                value = sum(terms) >> e * (chain - m)
                full[m] += value
                low[m] += value if below else 0
        budget.spend(steps * rate, _REFUSAL, bits)
        table = _TABLES[key] = _Table(full, low, width, e, bound, steps * rate)
    return table, primes


# The tail of a row's shape: the root bits e of S, its integer polynomial
# (None for a series), and series(count, bits), the coefficients q_j of S
# times 2^bits for j < count (the whole polynomial, exactly, for an integer
# one).
_Tail = namedtuple("_Tail", "root_bits poly series")


@lru_cache(maxsize=32)
def _tail_shape(name: str, key) -> _Tail:
    return _FAMILIES[name].tail(key)


@lru_cache(maxsize=32)
def _log_coefficients(name: str, key, alpha, flip: int, count: int, bits: int) -> tuple:
    """c_m = m l_m 2^bits for m < count (c_0 = c_1 = 0), the log coefficients
    of the row's shape: -alpha, plus mu_m = m [y^m] log S by Newton's
    identity mu_m = m q_m - sum_{j < m} mu_j q_{m-j}, plus (-1)^m for
    (1 + y)^-1.  Exact integers at bits = 0 (an integer shape); for a
    series, floors at bits = F + s + 8, whose errors grow no faster than the
    coefficients (2^{m e_k}) against weights S_m / m below 2^{(1 - m) s}."""
    q = _tail_shape(name, key).series(count, bits)
    one = 1 << bits
    alpha = Fraction(alpha)
    shifted = alpha.numerator * one // alpha.denominator
    mu, c = [0] * count, [0] * count
    for m in range(1, count):
        acc = sum(mu[j] * q[m - j] for j in range(max(1, m - len(q) + 1), m))
        mu[m] = (m * q[m] if m < len(q) else 0) - (acc >> bits)
        c[m] = mu[m] - shifted + flip * (-one if m & 1 else one)
    return tuple(c)


def _least_root_bits(q1) -> int:
    """The least e >= 0 with 4 |q_1| <= 3 2^e, where every root bound starts."""
    q1 = abs(q1)
    e = max(0, int(q1).bit_length() - 1)
    while 4 * q1 > 3 << e:
        e += 1
    return e


def _poly_root_bits(q) -> int:
    """The least e >= 0 with sum_{j >= 1} |q_j| 2^-je <= 3/4, for the integer
    polynomial S (constant term q_0 = 1 first): on |y| <= 2^-e, |S(y) - 1|
    <= 3/4, so |[y^m] log S| <= log(4) 2^{m e} by Cauchy's estimate."""
    d = len(q) - 1
    e = _least_root_bits(q[1]) if d else 0
    while 4 * sum(abs(c) << (d - j) * e for j, c in enumerate(q[1:], 1)) > 3 << d * e:
        e += 1
    return e


def _series_root_bits(a: Fraction) -> int:
    """_poly_root_bits for the series ((a)_j / j!)^2 at a non-integer
    a <= 1/2, in floats held 10^-9 below the bound: from j = -a on each term
    is at most 2^-e times the one before, so with e >= 1 the rest of the sum
    is below its last term."""
    x = float(a)
    e = max(1, _least_root_bits(a * a))
    while True:
        term, total = 1.0, 0.0
        for j in count(1):
            term *= ((x + j - 1) / j) ** 2 / 2**e
            total += term
            if total > 0.75 - 1e-9:
                break
            if j >= -x and term < 2**-60:
                if total + term <= 0.75 - 1e-9:
                    return e
                break
        e += 1


def _zeta_local(a: Fraction, bits: int, budget: WorkBudget, width: int):
    """p -> 2F1(a, a; 1; 1/p) * 2^width, the series sum_j ((a)_j / j!)^2 p^-j.

    Each term comes from the previous one by the ratio ((a + j - 1) / j)^2,
    held to width bits and shared by every prime, as
    term * ratio // (p << width), so every term keeps its error relative to
    itself and a sum of J terms is within J + J^2 ulps of total * 2^-width
    (a fixed-width table of the coefficients would not: they span 2^193 at
    k = 100).  The sum stops at its first term below 2^-(bits + 16), past
    the peak since the terms are unimodal.  Only the smallest prime extends
    the ratios: a larger p stops no later.  A new ratio and its term are
    charged to budget before they are computed, a prime's shared-ratio terms
    after, at the width of its sum, which bounds theirs (they are positive).
    """
    num, den = a.numerator, a.denominator
    one, eps = 1 << width, 1 << (width - bits - 16)
    ratios = []
    # ratios square ints of k's width into table bits; a term of a w-bit sum
    # costs _step_ns(w, table), and a sum below wide has width + 1 bits
    table = width + 2 * max(num.bit_length(), den.bit_length())
    ratio_ns = table * (table + 2048) >> 10
    wide, narrow = 1 << (width + 1), _step_ns(width + 1, table)

    def local(p: int) -> int:
        total = term = one
        scale = p << width
        shared = iter(ratios)
        for ratio in shared:
            term = term * ratio // scale
            total += term
            if term < eps:
                break
        # budget.spend, inlined: the call took k = 1 from 0.3 to 0.7 us a prime
        budget.spent += (len(ratios) - shared.__length_hint__()) * (
            narrow if total < wide else _step_ns(total.bit_length(), table))
        if budget.spent > budget.limit:
            raise DomainError(_REFUSAL(bits))
        if term < eps:
            return total
        for j in count(len(ratios) + 1):
            budget.spend(ratio_ns + _step_ns(total.bit_length(), table), _REFUSAL, bits)
            ratio = ((num + (j - 1) * den) ** 2 << width) // (j * den) ** 2
            ratios.append(ratio)
            term = term * ratio // scale
            total += term
            if term < eps:
                return total

    return local


def _zeta_series(a: Fraction, count: int, bits: int) -> list:
    """((a)_j / j!)^2 2^bits for j < count, each from the one before by the
    ratio ((a + j - 1) / j)^2 and a floor division: exact for an integer
    a <= 0, where they are C(-a, j)^2 and end at j = -a; else each within
    j ulps relative."""
    num, den = a.numerator, a.denominator
    q = [1 << bits]
    for j in range(1, count):
        term = q[-1] * (num + (j - 1) * den) ** 2 // (j * den) ** 2
        if not term:
            break
        q.append(term)
    return q


def _zeta_tail(a: Fraction) -> _Tail:
    if a.denominator == 1:
        q = _zeta_series(a, int(2 - a), 0)
        return _Tail(_poly_root_bits(q), q, lambda count, bits: q)
    return _Tail(_series_root_bits(a), None, partial(_zeta_series, a))


# precision of P(2) and of the partial sums of p^-2 in the tail bound, and
# floor(2^_TAIL_BITS P(2)), P(2) = sum_p p^-2 (a test pins it to mp.primezeta)
_TAIL_BITS = 128
_PRIME_ZETA_2 = 153891822525461629110670270467222070908


def _zeta_factor(k: Fraction, bits: int, budget: WorkBudget, cutoff: int):
    """The zeta product and its tail bound.  Euler's transformation
    (1-x)^{k^2} 2F1(k,k;1;x) = (1-x)^{(k-1)^2} 2F1(1-k,1-k;1;x) makes each
    factor symmetric under k -> 1-k; it is summed at a = min(k, 1-k) <= 1/2,
    whose coefficients ((a)_j / j!)^2 do not depend on p and vanish from
    j = k on for integer k >= 1: the kernel's shape with alpha = a^2 and
    S = 2F1(a, a; 1; x)."""
    a = k if 2 * k <= 1 else 1 - k  # min(k, 1 - k), forming 1 - k only if needed
    (product,), primes, table = _truncated_products(
        "zeta", a, a * a, 0, lambda width, _: _zeta_local(a, bits, budget, width), 0,
        bits, budget, cutoff, [cutoff])
    # each p^-2 rounded down by < 2^-_TAIL_BITS; the tail P(2) - sum, about
    # 1/(cutoff log cutoff), keeps ~100 bits below 10^8, past the float it feeds
    inv_square_sum = sum((1 << _TAIL_BITS) // (p * p) for p in primes)
    if table:
        shift = table.width + 2 * table.e - _TAIL_BITS
        column = table.full[2]
        inv_square_sum += column >> shift if shift >= 0 else column << -shift
    tail = mp.ldexp(_PRIME_ZETA_2 - inv_square_sum, -_TAIL_BITS)
    k = to_mpf(k)
    return product, abs(product) * abs(k * k * (k - 1) ** 2 / 4) * tail


def zeta_arithmetic_factor(
    k, prime_cutoff: int = 100_000, precision_bits=None
) -> RealApprox:
    """Arithmetic constant of the zeta family, truncated over p <= cutoff.

    The local factor at p is (1 - 1/p)^{k^2} sum_j d_k(p^j)^2 p^{-j}
    = (1 - 1/p)^{k^2} 2F1(k, k; 1; 1/p), evaluated as _zeta_factor says
    within the rounding bound of _truncated_products, far below the
    working-precision floor; a series that runs long is a DomainError once
    its terms pass the cost bound.  The reported err_estimate is the
    truncated-tail bound (the local-factor logs decay like k^2(k-1)^2/(4p^2),
    summed with the exact prime zeta tail), never less than the
    working-precision floor.
    """
    return _arithmetic_factor("zeta", k, prime_cutoff, precision_bits)


def _sp_shape(k: int) -> list:
    """The integer coefficients of S(y) = sum_m C(k, 2m) y^m + y (1-y)^k,
    constant term first.

    The Sp local factor at y = 1/p is (1-y)^alpha S(y) / (1+y), alpha =
    k(k-1)/2 (_sp_factor): S(y) is the even part of (1 -+ p^{-1/2})^{-k},
    times (1-y)^k, plus y (1-y)^k.
    """
    row = [1]  # C(k, j), each from the one before
    for j in range(k):
        row.append(row[-1] * (k - j) // (j + 1))
    coeffs = row[::2]
    coeffs += [0] * (k + 2 - len(coeffs))
    for j, c in enumerate(row):
        coeffs[j + 1] += -c if j & 1 else c
    return coeffs


def _sp_tail(k) -> _Tail:
    coeffs = _sp_shape(int(k))
    return _Tail(_poly_root_bits(coeffs), coeffs, lambda count, bits: coeffs)


def _sp_local(coeffs, width: int):
    """p -> S(1/p) p / (p + 1) * 2^width, by Horner with exact integer
    coefficients and floor divisions by p: under one ulp per step, each
    shrunk by the later divisions, so under 2 ulps in all even where the
    signs of the coefficients cancel; one more for p / (p + 1)."""
    shifted = [c << width for c in reversed(coeffs)]

    def local(p: int) -> int:
        value = 0
        for c in shifted:
            value = value // p + c
        return value * p // (p + 1)

    return local


def _sp_factor(k: Fraction, bits: int, budget: WorkBudget, cutoff: int):
    """The Sp product and its gap to the partial product over p <= cutoff/2."""
    k = int(k)
    horner_ns = (k + 2) * (9 * (mp.mp.prec + 32 + k + 2 + 512) >> 5)
    # without a tail, the row is built once the head's Horner steps are charged
    (half, full), _, _ = _truncated_products(
        "spquad", k, k * (k - 1) // 2, 1, lambda width, row: _sp_local(row or _sp_shape(k), width),
        horner_ns, bits, budget, cutoff, [cutoff // 2, cutoff])
    return full, abs(full - half)


def sp_quadratic_arithmetic_factor(
    k: int, prime_cutoff: int = 100_000, precision_bits=None
) -> RealApprox:
    """Arithmetic constant of the quadratic symplectic family.

    Product over p <= cutoff of
    (1-1/p)^{k(k+1)/2} * (((1+p^{-1/2})^{-k} + (1-p^{-1/2})^{-k})/2 + 1/p)
    / (1 + 1/p): the kernel's shape (prod (1 - 1/p))^alpha prod S(1/p),
    times prod p/(p+1), with alpha = k(k-1)/2 and the integer polynomial S
    of _sp_shape, by Horner (_sp_local) over the head.  The err_estimate is
    the gap to the partial product over p <= cutoff/2, the same scale a
    cutoff-doubling test would see.
    """
    return _arithmetic_factor("spquad", k, prime_cutoff, precision_bits)


# The built-in families by ak name: the symmetry class, the ak_source label
# of assemble records, whether k must be a positive integer, the body taking
# (k, bits, budget, cutoff) to the product and its error, and the shape of
# its tail (from a = min(k, 1 - k) for zeta, from k for Sp).
_Family = namedtuple("_Family", "sym source integer_k body tail")
_FAMILIES = {
    "zeta": _Family(SymmetryClass.U, "zeta-family", False, _zeta_factor, _zeta_tail),
    "spquad": _Family(SymmetryClass.Sp, "quadratic-family", True, _sp_factor, _sp_tail),
}


def _arithmetic_factor(name: str, k, prime_cutoff, precision_bits) -> RealApprox:
    """The family's a_k: the setup every row shares (the working precision,
    k and the cutoff checked), then its body."""
    family = _FAMILIES[name]
    with working_precision(precision_bits) as bits:
        if family.integer_k:
            require_int("k", k, 1)
        k, budget = _check_cost(k, prime_cutoff, bits)
        product, err = family.body(k, bits, budget, prime_cutoff)
        return approx(product, bits, err=err)


def _family_factor(key, k, prime_cutoff: int):
    """(a_k, its ak_source label) from the family named key, or from the
    family of the SymmetryClass key; (1, None) for a class with no family."""
    for name, family in _FAMILIES.items():
        if key in (name, family.sym):
            if family.integer_k and k.denominator != 1:
                raise LfmomentsError(f"the {family.source} product needs integer k")
            k = k.numerator if family.integer_k else k
            return _arithmetic_factor(name, k, prime_cutoff, None), family.source
    return Fraction(1), None


@dataclass(frozen=True)
class FamilyDescriptor:
    """An L-function family: symmetry class, conductor exponent, name.

    ``conductor_exponent`` is the degree to which the ordering parameter
    enters the functional equation; it only scales the logarithm inside
    the mean-value shape.  The arithmetic factor is supplied by the
    caller, since it is family-specific beyond these fields.
    """

    sym: SymmetryClass
    conductor_exponent: Fraction
    label: str

    def __post_init__(self):
        require_class(self.sym)
        exponent = require_rational("conductor exponent", self.conductor_exponent)
        if exponent <= 0:
            raise DomainError("conductor exponent must be positive")
        object.__setattr__(self, "conductor_exponent", exponent)


@dataclass(frozen=True)
class MeanValueShape:
    """Leading term coefficient * (A log Q)^{log_power} of a mean value."""

    coefficient: RealApprox
    log_power: int
    log_argument_exponent: Fraction


def assemble_mean_value(family: FamilyDescriptor, k: int, ak) -> MeanValueShape:
    """Leading-term shape of the k-th moment of a family.

    coefficient = a_k * g_k / B(k)!, the ratio g_k / B(k)! read from
    moment_ratio_closed_form at the working precision; k is an int with
    B(k) within the exact constants' bound, as for moment_factored.  The
    caller-provided arithmetic factor may be a RealApprox, an int, a
    Fraction or a float.  The err_estimate is the ratio times a_k's, never
    below the working-precision floor, which covers the ratio's own
    ulp-level rounding (below 1e-9 of the floor up to the B(k) edge).
    """
    b_exp = _checked_log_power(family.sym, k)
    given_bits = ak.precision_bits if isinstance(ak, RealApprox) else None
    with working_precision(given_bits) as bits:
        if not isinstance(ak, RealApprox):
            ak = approx(to_mpf(ak), bits)
        ratio = moment_ratio_closed_form(family.sym, k, bits).value
        coeff = approx(ratio * ak.value, bits, err=ratio * mp.mpf(ak.err_estimate))
    return MeanValueShape(
        coefficient=coeff,
        log_power=b_exp,
        log_argument_exponent=family.conductor_exponent,
    )
