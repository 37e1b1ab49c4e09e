"""Linear algebra of the pseudo-Euclidean ambient space R^{4,2}.

Vectors are numpy arrays whose last axis has length 6; any leading axes
are batch dimensions. The inner product is

    <x, y> = x0 y0 + x1 y1 + x2 y2 + x3 y3 - x4 y4 - x5 y5,

i.e. the sign layout diag(+,+,+,+,-,-), and this layout is fixed across
the whole repository. Complex vectors use the bilinear extension of the
form (no conjugation anywhere); conjugation is the separate componentwise
operation.

Projective points of the light cone are handled through representatives;
``projective_distance`` compares Euclidean-normalized representatives up
to overall sign. Conformal motions act on row vectors from the right,
[x] -> [x T], so the orthogonality condition reads T eta T^t = eta.
"""

import numpy as np

from .errors import MotionNotOrthogonal, ZeroRepresentative

#: metric signs of the six coordinate axes
SIGNS = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])

#: diag(SIGNS), occasionally needed as an explicit matrix
ETA = np.diag(SIGNS)

#: tolerance for T eta T^t = eta
MOTION_TOL = 1e-12

#: representatives with Euclidean norm below this are rejected
ZERO_TOL = 1e-13


def inner(x, y):
    """Bilinear signature-(4,2) inner product along the last axis."""
    x = np.asarray(x)
    y = np.asarray(y)
    return np.sum(x * y * SIGNS, axis=-1)


def gram_matrix(a, b):
    """Pairwise inner products of two stacks of vectors.

    Parameters
    ----------
    a, b : arrays of shape (..., j, 6) and (..., k, 6)

    Returns
    -------
    array of shape (..., j, k) with entries <a_i, b_l>.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    return np.einsum("...ic,...lc->...il", a * SIGNS, b)


def gram_wedge_inner(a, b):
    """<a_1 ^ ... ^ a_k, b_1 ^ ... ^ b_k> as the Gram determinant.

    Both arguments are stacks of shape (..., k, 6). The decomposable
    k-vector pairing is det[<a_i, b_j>]; for example
    gram_wedge_inner([e0, e1], [e0, e1]) == 1.
    """
    return np.linalg.det(gram_matrix(a, b))


def normalized(p):
    """Euclidean-normalize representatives; raise on zero vectors."""
    p = np.asarray(p, dtype=float)
    norm = np.linalg.norm(p, axis=-1)
    if np.any(norm < ZERO_TOL):
        bad = int(np.count_nonzero(norm < ZERO_TOL))
        raise ZeroRepresentative(
            "projective point has a numerically zero representative",
            count=bad, min_norm=float(norm.min()))
    return p / norm[..., None]


def projective_distance(p, q):
    """Distance between projective points given by representatives.

    min(|p^ - q^|, |p^ + q^|) for Euclidean-normalized p^, q^; zero iff
    the representatives span the same line. Batched over leading axes.
    """
    ph = normalized(p)
    qh = normalized(q)
    d_minus = np.linalg.norm(ph - qh, axis=-1)
    d_plus = np.linalg.norm(ph + qh, axis=-1)
    return np.minimum(d_minus, d_plus)


def lightcone_deviation(p):
    """|<p, p>| / |p|_E^2, the relative failure to lie on the light cone."""
    p = np.asarray(p)
    num = np.abs(inner(p, p))
    den = np.sum(np.abs(p) ** 2, axis=-1)
    return num / den


class Motion:
    """A conformal motion: T in O(4,2) acting by [x] -> [x T].

    The constructor validates T eta T^t = eta to MOTION_TOL and raises
    MotionNotOrthogonal with the offending deviation otherwise.
    """

    def __init__(self, matrix):
        t = np.asarray(matrix, dtype=float)
        if t.shape != (6, 6):
            raise MotionNotOrthogonal("motion matrix must be 6x6",
                                      shape=list(t.shape))
        dev = float(np.max(np.abs(t @ ETA @ t.T - ETA)))
        if dev > MOTION_TOL:
            raise MotionNotOrthogonal(
                "matrix is not in O(4,2) to tolerance",
                deviation=dev, tolerance=MOTION_TOL)
        self.matrix = t
