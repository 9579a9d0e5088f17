"""Quadratic scoring rules and the plane triangle each rule induces.

A rule is a 3x3 matrix L with L'L positive definite.  The score of a
forecast p against an observation o is the quadratic form
(p - o)' L'L (p - o).  Corner-to-corner values of that form give the
side lengths of a triangle in the plane, and a 2x3 map carries any
simplex point to the matching point inside it, so that every score is
exactly a squared plane distance.  The uncertainty of a climatology q
is the expected score when q itself is issued as the forecast; it peaks
at a distinguished climatology q0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriangle, NotPositiveDefinite
from .simplex import NEGATIVE_TOLERANCE, TernaryProb, make_ternary

_EIGEN_FLOOR = 1e-12
_SIN_FLOOR = 1e-12


@dataclass(frozen=True)
class BaryPoint:
    """Plane coordinates of a simplex point, in units of root-score."""

    x: float
    y: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class AffineTernary:
    """A 3-vector summing to one that may lie off the simplex.

    Produced by inverse maps that can land outside the triangle; the
    ``on_simplex`` flag records whether no component is below
    ``NEGATIVE_TOLERANCE``, which is when :meth:`to_ternary` accepts it.
    """

    pB: float
    pN: float
    pA: float
    on_simplex: bool

    def as_array(self) -> np.ndarray:
        return np.array([self.pB, self.pN, self.pA])

    def to_ternary(self) -> TernaryProb:
        return make_ternary(self.pB, self.pN, self.pA)


class ScoringRule:
    """A quadratic scoring rule with its derived triangle geometry.

    Attributes
    ----------
    L : ndarray
        The defining 3x3 matrix.
    LtL : ndarray
        Symmetrised L'L.
    b, n, a : float
        Triangle side lengths: b^2, n^2 and a^2 are the quadratic form
        evaluated on the corner differences (N,A), (A,B) and (B,N).
    phi : float
        Angle at the plane origin (corner B), in (0, pi).
    Mhat : ndarray
        2x3 map from simplex points to plane points.
    Minv : ndarray
        3x2 right inverse; ``Minv @ P + o_B`` returns to the sum-one
        affine plane.
    q0 : ndarray
        Maximiser of the uncertainty over the affine hull {sum q = 1}.
        Always on the plane; may leave the triangle for exotic rules.
    U0 : float
        Maximal uncertainty, U(q0).

    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("L", "LtL", "b", "n", "a", "phi", "Mhat", "Minv", "q0", "U0", "_v", "_LtL9")

    def __init__(self, L: np.ndarray):
        L = np.asarray(L, dtype=float)
        if L.shape != (3, 3) or not np.all(np.isfinite(L)):
            raise NotPositiveDefinite("L must be a finite 3x3 matrix")
        raw = L.T @ L
        A = 0.5 * (raw + raw.T)
        eigvals = np.linalg.eigvalsh(A)
        if eigvals.min() <= _EIGEN_FLOOR:
            raise NotPositiveDefinite(
                f"L'L has an eigenvalue {eigvals.min():.3e} <= {_EIGEN_FLOOR}"
            )

        corners = np.eye(3)

        def quad(d):
            return float(d @ A @ d)

        b = math.sqrt(quad(corners[1] - corners[2]))
        n = math.sqrt(quad(corners[2] - corners[0]))
        a = math.sqrt(quad(corners[0] - corners[1]))
        cos_phi = (n * n + a * a - b * b) / (2.0 * a * n)
        cos_phi = min(1.0, max(-1.0, cos_phi))
        sin_phi = math.sqrt(max(0.0, 1.0 - cos_phi * cos_phi))
        if sin_phi <= _SIN_FLOOR:
            raise DegenerateTriangle("induced triangle has (near-)collinear corners")
        phi = math.acos(cos_phi)

        Mhat = np.array([[0.0, a * cos_phi, n], [0.0, a * sin_phi, 0.0]])
        Minv = (1.0 / (a * n * sin_phi)) * np.array(
            [
                [-a * sin_phi, a * cos_phi - n],
                [0.0, n],
                [a * sin_phi, -a * cos_phi],
            ]
        )

        # uncertainty maximiser over {sum q = 1}: stationary point of
        # v'q - q'Aq - lam*(1'q - 1), solved by one Lagrange multiplier
        v = np.diag(A).copy()
        ones = np.ones(3)
        x = np.linalg.solve(A, v)
        y = np.linalg.solve(A, ones)
        lam = (ones @ x - 2.0) / (ones @ y)
        q0 = 0.5 * (x - lam * y)
        U0 = float(v @ q0 - q0 @ A @ q0)

        object.__setattr__(self, "L", L)
        object.__setattr__(self, "LtL", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "Mhat", Mhat)
        object.__setattr__(self, "Minv", Minv)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "U0", U0)
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_LtL9", tuple(A.ravel().tolist()))

    def __setattr__(self, name, value):
        raise AttributeError("ScoringRule is immutable")

    @property
    def sides(self) -> tuple[float, float, float]:
        return (self.b, self.n, self.a)


def brier_rule() -> ScoringRule:
    """The Brier rule: L = I/sqrt(2), an equilateral unit triangle."""
    return ScoringRule(np.eye(3) / math.sqrt(2.0))


def rps_rule() -> ScoringRule:
    """The ranked probability rule: cumulative-sum L, a right triangle."""
    return ScoringRule(np.tril(np.ones((3, 3))) / math.sqrt(2.0))


def custom_rule(L: np.ndarray) -> ScoringRule:
    """Rule for an arbitrary L with positive definite L'L."""
    return ScoringRule(L)


def score(rule: ScoringRule, p: TernaryProb, o: TernaryProb) -> float:
    """Quadratic score (p-o)' L'L (p-o); zero iff p equals o."""
    dB, dN, dA = p.pB - o.pB, p.pN - o.pN, p.pA - o.pA
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = rule._LtL9
    # (d' L'L) d, each sum taken left to right
    return max(0.0, (dB * a00 + dN * a10 + dA * a20) * dB
               + (dB * a01 + dN * a11 + dA * a21) * dN
               + (dB * a02 + dN * a12 + dA * a22) * dA)


def to_bary(rule: ScoringRule, p: TernaryProb) -> BaryPoint:
    """Plane point of a simplex value under the rule's triangle map."""
    P = rule.Mhat @ p.as_array()
    return BaryPoint(float(P[0]), float(P[1]))


def from_bary(rule: ScoringRule, P: BaryPoint) -> AffineTernary:
    """Invert the triangle map.

    The result always sums to one; points outside the triangle yield
    components outside [0, 1] and are returned with ``on_simplex`` False.
    """
    vec = rule.Minv @ P.as_array()
    vec[0] += 1.0  # + corner B
    on_simplex = bool(np.all(vec >= NEGATIVE_TOLERANCE))
    return AffineTernary(float(vec[0]), float(vec[1]), float(vec[2]), on_simplex)


def uncertainty(rule: ScoringRule, q: TernaryProb) -> float:
    """Expected score of issuing the climatology q: v'q - q'L'Lq."""
    qv = q.as_array()
    return max(0.0, float(rule._v @ qv - qv @ rule.LtL @ qv))
