from fractions import Fraction

import pytest
from hypothesis import strategies as st

from kacmod.lattice import Weight, inner
from kacmod.roots import RootSystemCtx


@pytest.fixture(scope="session")
def ctx1():
    return RootSystemCtx.build(1)


@pytest.fixture(scope="session")
def ctx2():
    return RootSystemCtx.build(2)


@pytest.fixture(scope="session")
def ctx3():
    return RootSystemCtx.build(3)


def coroot(alpha):
    """alpha^vee = 2 alpha / (alpha, alpha) for a non-isotropic alpha."""
    return alpha.scale(Fraction(2) / inner(alpha, alpha))


def lambda0_II(l):
    """Lambda0^(II) = Lambda0^(I)/2 + (1/2) sum eps_i - (l/8) delta."""
    return Weight((Fraction(1, 2),) * l, -Fraction(l, 8), Fraction(1, 2))


def eps_basis_II(l, i):
    """eps_i^(II) = -eps_{l+1-i} + delta/2 in type-I storage, 1-based i."""
    nums = [0] * (l + 2)
    nums[l - i] = -2
    nums[l] = 1
    return Weight.from_numerators(nums, 2)


def from_type_II_coords(l, eps2, delta2=0, lambda02=0):
    """The weight with the given coefficients on the type-II basis
    eps_i^(II), delta, Lambda0^(II)."""
    w = Weight.delta_weight(l).scale(delta2) + lambda0_II(l).scale(lambda02)
    for i, c in enumerate(eps2, start=1):
        w = w + eps_basis_II(l, i).scale(c)
    return w


def small_fractions(max_num=12, denominators=(1, 2, 3, 4)):
    return st.builds(Fraction,
                     st.integers(-max_num, max_num),
                     st.sampled_from(denominators))


def weights(l, max_num=12):
    return st.builds(
        lambda eps, d, c: Weight(tuple(eps), d, c),
        st.lists(small_fractions(max_num), min_size=l, max_size=l),
        small_fractions(max_num),
        small_fractions(max_num),
    )


def integral_weights(l, max_label=3):
    """Random elements of the weight lattice P (canonical reps)."""
    from kacmod.roots import from_dynkin_labels

    return st.builds(
        lambda m: from_dynkin_labels(l, m),
        st.lists(st.integers(-max_label, max_label), min_size=l + 1,
                 max_size=l + 1),
    )
