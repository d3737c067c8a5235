import random

import pytest

from albertkit.albert import jbasis, jordan_via_matrix


@pytest.fixture(scope="session")
def basis():
    return jbasis()


@pytest.fixture(scope="session")
def jordan_tensor(basis):
    """coords of b_i o b_j for every basis pair, filled symmetrically.

    Built through the octonion matrix product, not the table kernels, so
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
