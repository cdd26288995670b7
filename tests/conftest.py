import numpy as np
import pytest

from gevrey_kit import CoeffTensor, ProblemSpec, builtin_riccati


@pytest.fixture(scope="session")
def riccati():
    return builtin_riccati()


@pytest.fixture(scope="session")
def perturbative():
    """Small feasible problem: eps*z*f' = -f + delta*z + delta*z*f**2."""
    delta = 1e-3
    return ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
        CoeffTensor(0, 1, np.array([[[-1.0 + 0j]]])),
        CoeffTensor(1, 0, np.array([[delta + 0j]])),
        CoeffTensor(1, 2, np.array([[[[delta + 0j]]]])),
    ))


@pytest.fixture(scope="session")
def staggered():
    """nu = 2, non-symmetric blocks whose eps-degrees differ within an
    arity: the cubic arity enters only at eps^1, and the (1,1) block ends
    in a zero eps-coefficient."""
    rng = np.random.default_rng(7)

    def draw(*shape):
        return 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    a01 = np.zeros((2, 2, 2), dtype=complex)
    a01[..., 0] = -np.eye(2)
    a01[..., 1] = draw(2, 2)
    linear = np.zeros((2, 2, 3), dtype=complex)
    linear[..., :2] = draw(2, 2, 2)
    cubic = np.zeros((2,) * 4 + (2,), dtype=complex)
    cubic[..., 1] = draw(*(2,) * 4)
    return ProblemSpec(nu=2, rho=1.0, rho1=4.0, tensors=(
        CoeffTensor(0, 1, a01),
        CoeffTensor(1, 0, draw(2, 1)),
        CoeffTensor(1, 1, linear),
        CoeffTensor(1, 2, draw(2, 2, 2, 1)),
        CoeffTensor(2, 3, cubic),
    ))


@pytest.fixture(scope="session")
def linear_problem():
    """eps*z*f' = -f + z, with closed form f = z/(1+eps)."""
    return ProblemSpec(nu=1, rho=1.0, rho1=4.0, tensors=(
        CoeffTensor(0, 1, np.array([[[-1.0 + 0j]]])),
        CoeffTensor(1, 0, np.array([[1.0 + 0j]])),
    ))
