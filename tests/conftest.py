import random
from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from albertkit import isotope
from albertkit.albert import AlbertElem, jbasis
from albertkit.reference import jordan_via_matrix
from albertkit.pvs import VPoint, delta
from albertkit.smap import _slot_rows

# Every phase but shrink: a failing example is reported as drawn. Shrinking
# elements of 27 coordinates through a broken kernel takes a minute or more
# per property test, and a test's verdict does not depend on it. Each test's
# own settings (max_examples, deadline) apply on top of this profile.
settings.register_profile("default", phases=tuple(p for p in Phase if p is not Phase.shrink))
settings.load_profile("default")


@pytest.fixture(autouse=True)
def fresh_index_cache():
    """Clear isotope's index cache around each test.

    A context cached by one test would otherwise serve the next, past a
    kernel that test monkeypatches, and the cache tests count from empty.
    """
    isotope._index.cache_clear()
    yield
    isotope._index.cache_clear()


def slot_entries(values) -> list:
    """The 19683 entries of a tensor, row-major in (i, j, n): values, its 109 slot values, read at smap's slot bytes.

    slot_entries(slot_values(t.kn)) are the numerators over t.den;
    slot_entries(range(109)) are the slots themselves.
    """
    return [values[s] for s in b"".join(_slot_rows())]


@pytest.fixture(scope="session")
def basis():
    return jbasis()


@pytest.fixture(scope="session")
def jordan_tensor(basis):
    """coords of b_i o b_j for every basis pair, filled symmetrically.

    Built through the octonion matrix product, not the integer kernels, so
    the tests that read it compare two independent routes.
    """
    table = [[None] * 27 for _ in range(27)]
    for i in range(27):
        for j in range(i, 27):
            c = jordan_via_matrix(basis[i], basis[j]).coords()
            table[i][j] = c
            table[j][i] = c
    return table


@pytest.fixture()
def rng():
    return random.Random(20260819)


@pytest.fixture()
def count_fractions(monkeypatch):
    """count_fractions(): patch Fraction.__new__ to record its arguments in the list returned.

    Compute the expected values first: from the call on, every Fraction made
    is recorded, until monkeypatch.undo() or the end of the test.
    """

    def start() -> list:
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        assert Fraction(1, 2) == Fraction(2, 4) and len(made) == 2
        made.clear()
        return made

    return start


def _sparse_point(rng):
    """6 of 27 coordinates per component: 20-bit numerators, 8-bit denominators."""

    def elem():
        c = [0] * 27
        for n in rng.sample(range(27), 6):
            c[n] = Fraction(rng.randrange(-(2**20), 2**20), rng.randrange(1, 2**8))
        return AlbertElem.from_coords(c)

    while True:
        x = VPoint(elem(), elem())
        if delta(x) != 0:
            return x


@pytest.fixture(scope="session")
def sparse_point():
    """sparse_point(rng): a semistable point of large height with few nonzero coordinates."""
    return _sparse_point


def _point_63(rng):
    """Every coordinate of both components a 63-bit numerator over a denominator below 2^10."""

    def elem():
        c = [Fraction(rng.randrange(-(2**63), 2**63), rng.randrange(1, 2**10)) for _ in range(27)]
        return AlbertElem.from_coords(c)

    return VPoint(elem(), elem())


@pytest.fixture(scope="session")
def point_63():
    """point_63(rng): a dense point of V with 63-bit numerators, semistable or not."""
    return _point_63


_ODD_PRIMES = [p for p in range(3, 108) if all(p % q for q in range(2, p))]


@pytest.fixture(scope="session")
def tall_point():
    """A fixed semistable point: 54 nonzero coordinates, 200-bit numerators over the 27 odd primes below 108."""

    def elem(num, prime):
        return AlbertElem.from_coords([Fraction(num(i), _ODD_PRIMES[prime(i)]) for i in range(27)])

    x = VPoint(
        elem(lambda i: (-1) ** i * (2**199 + 7919 * i**3 + 1), lambda i: i),
        elem(lambda i: (-1) ** (i // 2) * (2**200 - 104729 * i - 1), lambda i: (i + 13) % 27),
    )
    assert len(_ODD_PRIMES) == 27 and delta(x) != 0
    return x
