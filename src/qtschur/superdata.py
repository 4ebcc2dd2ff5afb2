"""Parity sequences and the combinatorial super data built from them.

A parity sequence s of type (m, n) is a tuple of m entries +1 and n
entries -1, extended periodically to all integers.  It determines the
affine Cartan matrix, the antisymmetric d-exponent matrix, the node and
vector parities, the partial-sum map mu, and the Koszul signs used by
every tensor-product formula downstream.  Node indices live in
hat-I = {0, 1, ..., kappa-1} and are normalized mod kappa at the API
boundary; subscript 0 on the sequence itself reads the last entry, as
the periodic extension dictates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ParityData:
    m: int
    n: int
    s: tuple[int, ...]

    def __post_init__(self):
        if len(self.s) != self.m + self.n:
            raise ValueError("length must be m + n")
        if any(x not in (1, -1) for x in self.s):
            raise ValueError("entries must be +-1")
        if sum(1 for x in self.s if x == 1) != self.m:
            raise ValueError("need exactly m entries +1")

    @classmethod
    def standard(cls, m: int, n: int) -> "ParityData":
        return cls(m, n, (1,) * m + (-1,) * n)

    @classmethod
    def from_string(cls, text: str) -> "ParityData":
        s = tuple(1 if ch == "+" else -1 for ch in text)
        if any(ch not in "+-" for ch in text) or not text:
            raise ValueError(f"parity string must be nonempty over +-: {text!r}")
        m = sum(1 for x in s if x == 1)
        return cls(m, len(s) - m, s)

    def to_string(self) -> str:
        return "".join("+" if x == 1 else "-" for x in self.s)

    @property
    def kappa(self) -> int:
        return self.m + self.n

    def sign(self, j: int) -> int:
        """s_j for any integer j (period kappa, s_0 = s_kappa)."""
        return self.s[(j - 1) % self.kappa]

    def vector_parity(self, j: int) -> int:
        """|v_j| = (1 - s_j)/2."""
        return (1 - self.sign(j)) // 2


def cartan(pd: ParityData, i: int, j: int) -> int:
    """Affine Cartan entry (s_i + s_{i+1})d_ij - s_i d_{i,j+1} - s_j d_{i+1,j}.

    All Kronecker deltas are read mod kappa.  The diagonal is pinned by
    the root pairing: with alpha_i = eps_i - eps_{i+1} (and the node-0
    root wrapping around through the null direction) one has
    <alpha_i|alpha_i> = s_i + s_{i+1}, which also makes every row sum
    to zero and keeps the matrix symmetric.
    """
    kappa = pd.kappa
    out = 0
    if (i - j) % kappa == 0:
        out += pd.sign(i) + pd.sign(i + 1)
    if (i - (j + 1)) % kappa == 0:
        out -= pd.sign(i)
    if ((i + 1) - j) % kappa == 0:
        out -= pd.sign(j)
    return out


def mmatrix(pd: ParityData, i: int, j: int) -> int:
    """Antisymmetric d-exponent entry: m_{i+1,i} = -m_{i,i+1} = s_{i+1}."""
    kappa = pd.kappa
    out = 0
    if (i - j) % kappa == 1:
        out += pd.sign(i)
    if (j - i) % kappa == 1:
        out -= pd.sign(j)
    return out


def mu(pd: ParityData, i: int) -> int:
    """Partial sum s_1 + ... + s_i, with mu(0) = 0."""
    if not 0 <= i <= pd.kappa:
        raise ValueError(f"mu index {i} out of range 0..{pd.kappa}")
    return sum(pd.s[:i])


def tau_power(pd: ParityData, r: int) -> ParityData:
    """Rotate the sequence r steps; one step gives (s_kappa, s_1, ..., s_{kappa-1})."""
    r %= pd.kappa
    return ParityData(pd.m, pd.n, pd.s[-r:] + pd.s[:-r]) if r else pd


def node_parity(pd: ParityData, i: int) -> int:
    """|i| = (1 - s_i s_{i+1})/2 in {0, 1}."""
    return (1 - pd.sign(i) * pd.sign(i + 1)) // 2


def koszul_sign(pd: ParityData, i: int, r: int, j: Sequence[int]) -> int:
    """Sign picked up by a node-i operator passing the first r-1 factors.

    Position r is 1-based; the sign is (-1) to the node parity of i
    times the total parity of v_{j_1}, ..., v_{j_{r-1}}.
    """
    if not 1 <= r <= len(j):
        raise ValueError(f"position {r} out of range 1..{len(j)}")
    if node_parity(pd, i) == 0:
        return 1
    weight = sum(pd.vector_parity(j[a]) for a in range(r - 1))
    return -1 if weight % 2 else 1
