"""Parity-sequence combinatorics against independent oracles."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qtschur.superdata import (
    ParityData,
    cartan,
    koszul_sign,
    mmatrix,
    mu,
    node_parity,
    tau_power,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def all_parities(m, n):
    kappa = m + n
    for pos in itertools.combinations(range(kappa), m):
        s = tuple(1 if i in pos else -1 for i in range(kappa))
        yield ParityData(m, n, s)


def test_parity_data_basics():
    pd = ParityData.standard(3, 1)
    assert pd.s == (1, 1, 1, -1)
    assert pd.to_string() == "+++-"
    assert ParityData.from_string("++--") == ParityData(2, 2, (1, 1, -1, -1))
    with pytest.raises(ValueError):
        ParityData(2, 1, (1, 1, 1))
    with pytest.raises(ValueError):
        ParityData(1, 1, (1, 0))
    # equal numbers of even and odd directions are fine here; only the
    # parameter ring rejects m = n
    ParityData.standard(2, 2)


def test_validation_survives_optimize():
    # python -O strips assert statements; the constructors must still
    # reject, and so must basis() on spaces over four labels and two slots
    # for a key of the wrong length or with a label outside 1..4
    space = (
        "from qtschur.scalar import SymbolicContext; "
        "from qtschur.superdata import ParityData; "
        "from qtschur.looprep import TensorSpace; "
        "from qtschur.toroidal import FunctorSpace; "
        "pd, R = ParityData.standard(3, 1), SymbolicContext(m=3, n=1); "
    )
    for code in (
        "from qtschur.superdata import ParityData; ParityData(2, 1, (1, 1, 1))",
        "from qtschur.hecke import AffinePermutation; AffinePermutation((1, 1))",
        space + "FunctorSpace(pd, 2, R).basis((1,))",
        space + "FunctorSpace(pd, 2, R).basis((1, 5))",
        space + "TensorSpace(pd, 2, R).basis((1,))",
        space + "TensorSpace(pd, 2, R).basis((0, 1))",
    ):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode != 0, code
        assert "ValueError" in proc.stderr


def test_periodicity_window():
    pd = ParityData.from_string("+-+--")
    kappa = pd.kappa
    for j in range(-2 * kappa, 2 * kappa + 1):
        assert pd.sign(j) == pd.sign(j + kappa)
    assert pd.sign(0) == pd.s[-1]
    assert pd.sign(1) == pd.s[0]


def test_cartan_examples():
    pd = ParityData(2, 2, (1, 1, -1, -1))
    assert cartan(pd, 2, 2) == 0  # s_2 + s_3
    assert cartan(pd, 1, 2) == -1  # -s_2
    assert cartan(pd, 0, 0) == 0  # s_4 + s_1, both nodes 0 and 2 are odd
    assert cartan(pd, 1, 1) == 2
    assert cartan(pd, 3, 3) == -2
    std = ParityData.standard(3, 1)
    assert [cartan(std, i, i) for i in range(4)] == [0, 2, 2, 0]


def test_cartan_symmetry_and_row_sums():
    for m, n in [(2, 2), (3, 1), (2, 3), (1, 2)]:
        for pd in all_parities(m, n):
            kappa = pd.kappa
            for i in range(kappa):
                assert sum(cartan(pd, i, j) for j in range(kappa)) == 0
                for j in range(kappa):
                    assert cartan(pd, i, j) == cartan(pd, j, i)


def epsilon_pairing(pd, x, y):
    # <eps_i|eps_j> = s_i delta_ij on coefficient vectors over eps_1..eps_kappa
    return sum(pd.sign(t + 1) * x[t] * y[t] for t in range(pd.kappa))


def simple_root(pd, i):
    # alpha_i = eps_i - eps_{i+1} for 1 <= i < kappa; alpha_0 = delta + eps_kappa - eps_1
    # (delta pairs to zero, so it is dropped from the coefficient vector)
    kappa = pd.kappa
    vec = [0] * kappa
    if i == 0:
        vec[kappa - 1] += 1
        vec[0] -= 1
    else:
        vec[i - 1] += 1
        vec[i] -= 1
    return vec


def test_cartan_equals_root_pairing():
    for m, n in [(2, 2), (3, 1), (2, 3), (3, 3)]:
        for pd in all_parities(m, n):
            kappa = pd.kappa
            for i in range(kappa):
                for j in range(kappa):
                    want = epsilon_pairing(pd, simple_root(pd, i), simple_root(pd, j))
                    assert cartan(pd, i, j) == want


def test_mmatrix():
    for pd in all_parities(2, 3):
        kappa = pd.kappa
        for i in range(kappa):
            for j in range(kappa):
                assert mmatrix(pd, i, j) == -mmatrix(pd, j, i)
        for i in range(kappa - 1):
            assert mmatrix(pd, i + 1, i) == pd.sign(i + 1)
        assert mmatrix(pd, 0, kappa - 1) == pd.sign(kappa)
        assert all(mmatrix(pd, i, i) == 0 for i in range(kappa))


def test_mu_values():
    pd = ParityData(2, 2, (1, 1, -1, -1))
    assert mu(pd, 0) == 0
    assert mu(pd, 2) == 2
    assert mu(pd, 3) == 1
    assert mu(pd, 4) == pd.m - pd.n
    std = ParityData.standard(3, 2)
    assert [mu(std, i) for i in range(6)] == [0, 1, 2, 3, 2, 1]


def test_tau():
    pd = ParityData(2, 2, (1, 1, -1, -1))
    assert tau_power(pd, 1).s == (-1, 1, 1, -1)
    assert tau_power(ParityData.standard(3, 1), 1).s == (-1, 1, 1, 1)
    cur = pd
    for _ in range(pd.kappa):
        cur = tau_power(cur, 1)
    assert cur == pd
    assert tau_power(pd, 2) == tau_power(tau_power(pd, 1), 1)
    assert tau_power(pd, 0) == pd
    # mu shifts by one slot under tau: mu_{tau s}(i) = s_kappa + mu_s(i-1)
    for pd in all_parities(3, 2):
        for i in range(1, pd.kappa + 1):
            assert mu(tau_power(pd, 1), i) == pd.sign(pd.kappa) + mu(pd, i - 1)


def test_node_parity():
    pd = ParityData(2, 2, (1, 1, -1, -1))
    assert node_parity(pd, 1) == 0
    assert node_parity(pd, 2) == 1
    assert node_parity(pd, 0) == 1
    for pdx in all_parities(3, 1):
        assert node_parity(pdx, 0) == (1 - pdx.sign(pdx.kappa) * pdx.sign(1)) // 2


def test_koszul_sign():
    pd = ParityData(2, 2, (1, 1, -1, -1))
    assert koszul_sign(pd, 2, 1, (3, 3)) == 1
    assert koszul_sign(pd, 1, 2, (3, 3)) == 1  # even node
    assert koszul_sign(pd, 2, 2, (3, 3)) == -1  # odd node over one odd vector
    assert koszul_sign(pd, 2, 3, (3, 3, 1)) == 1  # two odd vectors cancel
