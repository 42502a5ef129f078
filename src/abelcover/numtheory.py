"""Elementary number theory on small positive integers: prime divisors,
divisors, Euler's phi and the Moebius function, all by trial division."""

from __future__ import annotations


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
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


def divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


def moebius(n: int) -> int:
    out = 1
    for p in prime_factors(n):
        if n % (p * p) == 0:
            return 0
        out = -out
    return out
