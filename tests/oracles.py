"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written against the raw definitions, with
different mechanics from the library code paths it checks: the q-product
is evaluated naively at a fixed term count with mpmath's global context,
and the form enumeration scans (a, b, c) boxes checking every condition
instead of solving for c.  The Frobenius check reads a polynomial mod
primes of K only through integer arithmetic from d and N.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import mpmath


def oracle_siegel_g(r1: Fraction, r2: Fraction, tau, terms: int = 200, prec: int = 512):
    """Direct product evaluation: fixed term count, no truncation analysis."""
    with mpmath.workprec(prec):
        two_pi_i = 2j * +mpmath.pi
        b2 = r1 * r1 - r1 + Fraction(1, 6)
        lead = -mpmath.exp(two_pi_i * (tau * b2.numerator / (2 * b2.denominator)))
        rr = r2 * (r1 - 1)
        if rr:
            lead *= mpmath.exp(1j * +mpmath.pi * mpmath.mpf(rr.numerator) / rr.denominator)
        z = tau * mpmath.mpf(r1.numerator) / r1.denominator + mpmath.mpf(r2.numerator) / r2.denominator
        qtau = mpmath.exp(two_pi_i * tau)
        qz = mpmath.exp(two_pi_i * z)
        acc = 1 - qz
        qn = mpmath.mpc(1)
        for _ in range(terms):
            qn *= qtau
            acc *= (1 - qn * qz) * (1 - qn / qz)
        return lead * acc


def oracle_reduced_forms(d: int) -> list[tuple[int, int, int]]:
    """Exhaustive scan of the (a, b, c) box with every condition checked."""
    bound = isqrt(abs(d) // 3) + 1
    found = []
    for a in range(1, bound + 1):
        for b in range(-a, a + 1):
            for c in range(a, (abs(d) + b * b) // (4 * a) + 2):
                if b * b - 4 * a * c != d:
                    continue
                if not (-a < b <= a < c or 0 <= b <= a == c):
                    continue
                if gcd(gcd(a, b), c) != 1:
                    continue
                found.append((a, b, c))
    return sorted(found)


def oracle_is_fundamental(d: int) -> bool:
    def squarefree(n):
        n = abs(n)
        return all(n % (f * f) for f in range(2, isqrt(n) + 1))

    if d >= 0:
        return False
    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


# Class numbers of all fundamental -100 < d < 0 (standard table).
CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2, -23: 3,
    -24: 2, -31: 3, -35: 2, -39: 4, -40: 2, -43: 1, -47: 5, -51: 2,
    -52: 2, -55: 4, -56: 4, -59: 3, -67: 1, -68: 4, -71: 7, -79: 5,
    -83: 3, -84: 4, -87: 6, -88: 2, -91: 2, -95: 8,
}


def _polmod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod (f, p) for a monic f, both coefficient lists in ascending degree."""
    a, n = [c % p for c in a], len(f) - 1
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i]
        if c:
            for j in range(n):
                a[i - n + j] = (a[i - n + j] - c * f[j]) % p
    return a[:n] + [0] * (n - len(a))


def _polmulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _polmod(prod, f, p)


def _polpowmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = _polmod([1], f, p)
    for bit in bin(e)[2:]:
        result = _polmulmod(result, result, f, p)
        if bit == "1":
            result = _polmulmod(result, a, f, p)
    return result


def _squarefree_mod(f: list[int], p: int) -> bool:
    """gcd(f, f') = 1 over F_p, by Euclid on ascending coefficient lists."""
    a, b = [c % p for c in f], [i * c % p for i, c in enumerate(f)][1:]
    while any(b):
        while not b[-1]:
            b.pop()
        inverse = pow(b[-1], -1, p)
        while len(a) >= len(b):  # a -= (lead a / lead b) X^k b, dropping the cancelled lead
            c, k = a[-1] * inverse % p, len(a) - len(b)
            a = [(x - c * b[i - k]) % p if i >= k else x for i, x in enumerate(a)][:-1]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def oracle_split_primes(d: int, N: int, coefficients: list[int], count: int) -> list[tuple[int, int]]:
    """``count`` pairs (p, k) for primes of K that split, with a Frobenius order k > 1.

    With B = d mod 2 and C = (B - d)/4, theta = (-B + sqrt d)/2 has
    theta^2 = -B theta - C, and pi = t + s theta has the norm
    p = t^2 - Bst + Cs^2.  For t upwards from sqrt(1000) n (n the degree)
    and 0 < s < N, so that pi is not +-1 mod N, taken are the primes
    p > 1000 n^2 prime to N d at which the monic ``coefficients``
    (degree-descending) are squarefree mod p; k is the order of pi in
    (O_K/N)^*/{+-1}.
    """
    B = d % 2
    C = (B - d) // 4
    n = len(coefficients) - 1
    f = coefficients[::-1]
    found, t = [], isqrt(1000 * n * n)
    while len(found) < count:
        t += 1
        for s in range(1, N):
            p = t * t - B * s * t + C * s * s
            if p <= 1000 * n * n or gcd(p, N * d) != 1 or not all(p % q for q in range(2, isqrt(p) + 1)):
                continue
            # powers of pi mod N as (x, y) for x + y theta, until one is +-1
            x, y, k = t % N, s % N, 1
            while y or x not in (1, N - 1):
                x, y, k = (x * t - C * y * s) % N, (x * s + y * t - B * y * s) % N, k + 1
            if len(found) < count and _squarefree_mod(f, p):
                found.append((p, k))
    return found


def oracle_frobenius_holds(coefficients: list[int], p: int, k: int) -> bool:
    """X^(p^k) = X mod (f, p) and X^(p^j) != X for 0 < j < k, f monic degree-descending.

    At a prime of K of norm p, prime to N d, where f is squarefree, the
    minimal polynomial of a generator of the ray class field mod N splits
    into factors of degree k, the order of the Frobenius; so every root
    lies in F_(p^k), and not all lie in a smaller F_(p^j).
    """
    f = coefficients[::-1]
    X = _polmod([0, 1], f, p)
    power = X
    for j in range(1, k + 1):
        power = _polpowmod(power, p, f, p)
        if power == X:
            return j == k
    return False
