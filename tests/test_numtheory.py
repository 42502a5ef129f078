"""Trial-division helpers against their definitions."""

from math import gcd

from abelcover.numtheory import divisors, euler_phi, moebius, prime_factors


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, n))


def test_helpers_match_definitions():
    for n in range(1, 400):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        assert divisors(n) == divs
        assert prime_factors(n) == [d for d in divs if _is_prime(d)]
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        # sum_{d | n} mu(d) is 1 at n = 1 and 0 otherwise
        assert sum(moebius(d) for d in divs) == (n == 1)
