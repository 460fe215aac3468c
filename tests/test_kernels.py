"""The control-subspace kernel: hand-checked updates, and bit-identity with
the pair-index reference on random circuits."""

import math

import numpy as np
import pytest

from dense_oracle import run_pairs
from ryprep import Circuit, run, ry, x
from ryprep.simulator import _apply_inplace

# The kernel is NumPy code called from Python; the id keeps these tests'
# names stable across versions of the package.
KERNELS = [pytest.param(_apply_inplace, id="python")]


@pytest.mark.parametrize("apply", KERNELS)
def test_uncontrolled_ry_on_basis(apply):
    amps = np.zeros(4)
    amps[0] = 1.0
    theta = 1.234
    apply(amps, ry(theta, 0))
    np.testing.assert_allclose(amps, [math.cos(theta / 2), math.sin(theta / 2), 0, 0], atol=0)


@pytest.mark.parametrize("apply", KERNELS)
def test_controlled_ry_skips_unset_control(apply):
    amps = np.array([1.0, 0.0, 0.0, 0.0])
    apply(amps, ry(0.8, 0, (1,)))
    np.testing.assert_array_equal(amps, [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("apply", KERNELS)
def test_controlled_ry_acts_when_control_set(apply):
    amps = np.array([0.0, 0.0, 1.0, 0.0])  # |10>: qubit 1 set
    h = 0.9 / 2
    apply(amps, ry(0.9, 0, (1,)))
    np.testing.assert_allclose(amps, [0.0, 0.0, math.cos(h), math.sin(h)], atol=0)


@pytest.mark.parametrize("apply", KERNELS)
def test_x_swaps_pairs(apply):
    amps = np.array([0.1, 0.2, 0.3, 0.4])
    apply(amps, x(1))
    np.testing.assert_array_equal(amps, [0.3, 0.4, 0.1, 0.2])


@pytest.mark.parametrize("apply", KERNELS)
def test_cnot(apply):
    amps = np.array([0.1, 0.2, 0.3, 0.4])
    apply(amps, x(0, (1,)))  # flip qubit 0 where qubit 1 is set
    np.testing.assert_array_equal(amps, [0.1, 0.2, 0.4, 0.3])


def test_run_matches_pair_index_reference():
    rng = np.random.default_rng(2718)
    for n in range(1, 9):
        for _ in range(5):
            gates = []
            for _ in range(60):
                target = int(rng.integers(n))
                others = [q for q in range(n) if q != target]
                rng.shuffle(others)
                controls = others[: int(rng.integers(n))]  # 0..n-1 controls
                if rng.random() < 0.5:
                    gates.append(ry(float(rng.uniform(-2 * math.pi, 2 * math.pi)), target, controls))
                else:
                    gates.append(x(target, controls))
            circuit = Circuit(n, tuple(gates))
            np.testing.assert_array_equal(run(circuit).amplitudes, run_pairs(circuit))
