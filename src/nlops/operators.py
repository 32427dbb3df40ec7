"""First-order constant-coefficient operators and their symbols.

An operator is determined by n coefficient matrices A_1, ..., A_n of common
shape dim_w x dim_v; it acts on V-valued fields as sum_i A_i d_i u.  The
module provides the symbol map xi -> sum_i xi_i A_i, its zero-homogeneous
profile, the formal L2 adjoint, pointwise numerical rank (the "active
frequency" test), and the spherical cancellation residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from nlops.quadrature import sphere_quadrature

#: Singular values below RANK_RTOL times the largest one count as zero.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class FirstOrderOperator:
    """Constant-coefficient operator sum_i A_i d_i from V to W valued fields.

    Attributes
    ----------
    n : int
        Spatial dimension (number of coefficient matrices).
    dim_v, dim_w : int
        Fiber dimensions of the source and target spaces.
    coeffs : tuple of ndarray
        The matrices A_i, each of shape (dim_w, dim_v).
    name : str
        Optional label used in reports and CSV metadata.
    """

    n: int
    dim_v: int
    dim_w: int
    coeffs: tuple[np.ndarray, ...]
    name: str = field(default="custom", compare=False)

    def __post_init__(self):
        if self.n < 1 or self.dim_v < 1 or self.dim_w < 1:
            raise ValueError("n, dim_v and dim_w must all be >= 1")
        if len(self.coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficient matrices, got {len(self.coeffs)}")
        mats = []
        for a in self.coeffs:
            a = np.asarray(a, dtype=float)
            if a.shape != (self.dim_w, self.dim_v):
                raise ValueError(
                    f"coefficient shape {a.shape} does not match (dim_w, dim_v)="
                    f"({self.dim_w}, {self.dim_v})"
                )
            a = a.copy()
            a.setflags(write=False)
            mats.append(a)
        object.__setattr__(self, "coeffs", tuple(mats))

    @property
    def nontrivial(self) -> bool:
        """True if at least one coefficient matrix is nonzero."""
        return any(np.any(a != 0.0) for a in self.coeffs)


def symbol(op: FirstOrderOperator, xi) -> np.ndarray:
    """Principal symbol sum_i xi_i A_i as a (dim_w, dim_v) matrix."""
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.size != op.n:
        raise ValueError(f"frequency vector has length {xi.size}, operator has n={op.n}")
    out = np.zeros((op.dim_w, op.dim_v))
    for c, a in zip(xi, op.coeffs):
        out += c * a
    return out


def omega_profile(op: FirstOrderOperator, xi) -> np.ndarray:
    """Zero-homogeneous profile: the symbol evaluated at xi/|xi|.

    Raises ValueError for the zero vector, where no direction exists.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    norm = np.linalg.norm(xi)
    if norm == 0.0:
        raise ValueError("omega_profile requires a nonzero frequency vector")
    return symbol(op, xi / norm)


def adjoint(op: FirstOrderOperator) -> FirstOrderOperator:
    """Formal L2 adjoint: coefficients -A_i^t, fiber dimensions swapped."""
    return FirstOrderOperator(
        n=op.n,
        dim_v=op.dim_w,
        dim_w=op.dim_v,
        coeffs=tuple(-a.T for a in op.coeffs),
        name=f"adjoint({op.name})",
    )


def wave_rank(op: FirstOrderOperator, xi) -> int:
    """Numerical rank of the symbol at the one frequency vector ``xi``."""
    if np.size(xi) != op.n:
        raise ValueError(f"frequency vector has length {np.size(xi)}, operator has n={op.n}")
    return int(wave_ranks(op, xi)[0])


def wave_ranks(op: FirstOrderOperator, xis) -> np.ndarray:
    """Numerical rank of the symbol at each row of ``xis`` (shape (M, n)), by
    one stacked SVD.

    A frequency is "active" (belongs to the wave set) iff the rank is
    positive.  Singular values below ``RANK_RTOL`` times the largest are
    treated as zero.  The symbols are summed in the order :func:`symbol`
    uses.
    """
    xis = np.asarray(xis, dtype=float).reshape(-1, op.n)
    mats = np.zeros((len(xis), op.dim_w, op.dim_v))
    for c, a in zip(xis.T, op.coeffs):
        mats += c[:, None, None] * a
    sv = np.linalg.svd(mats, compute_uv=False)
    # an all-zero symbol has no singular value above zero, so rank 0
    return np.sum(sv > RANK_RTOL * sv[:, :1], axis=1)


def cancellation_residual(op: FirstOrderOperator, quad_order: int = 64) -> float:
    """Frobenius norm of the sphere quadrature of the symbol profile.

    The integral of the symbol over the unit sphere vanishes for every
    first-order operator (the integrand is odd), so the residual measures
    only quadrature and rounding noise.  Supported for n in {1, 2, 3}.
    """
    nodes, weights = sphere_quadrature(op.n, quad_order)
    total = np.zeros((op.dim_w, op.dim_v))
    for node, w in zip(nodes, weights):
        total += w * symbol(op, node)
    return float(np.linalg.norm(total))


# ---------------------------------------------------------------------------
# Presets


def gradient(n: int) -> FirstOrderOperator:
    """Gradient of a scalar field: dim_v=1, dim_w=n, A_i = e_i."""
    coeffs = tuple(np.eye(n)[:, [i]] * 1.0 for i in range(n))
    return FirstOrderOperator(n, 1, n, coeffs, name=f"gradient{n}d")


def divergence(n: int) -> FirstOrderOperator:
    """Divergence of a vector field: dim_v=n, dim_w=1, A_i = e_i^t."""
    coeffs = tuple(np.eye(n)[[i], :] * 1.0 for i in range(n))
    return FirstOrderOperator(n, n, 1, coeffs, name=f"divergence{n}d")


def curl3() -> FirstOrderOperator:
    """Curl in three dimensions; the symbol is v -> xi x v (rank 2 off zero)."""
    e = np.eye(3)

    def cross_matrix(a):
        ax, ay, az = a
        return np.array([[0.0, -az, ay], [az, 0.0, -ax], [-ay, ax, 0.0]])

    coeffs = tuple(cross_matrix(e[i]) for i in range(3))
    return FirstOrderOperator(3, 3, 3, coeffs, name="curl3d")


def sym_grad(n: int) -> FirstOrderOperator:
    """Symmetric gradient (e_i v^t + v e_i^t)/2, flattened row-major to R^(n*n)."""
    coeffs = []
    for i in range(n):
        a = np.zeros((n * n, n))
        for j in range(n):
            a[i * n + j, j] += 0.5
            a[j * n + i, j] += 0.5
        coeffs.append(a)
    return FirstOrderOperator(n, n, n * n, tuple(coeffs), name=f"symgrad{n}d")


def scalar_derivative() -> FirstOrderOperator:
    """One-dimensional derivative d/dx on scalar fields."""
    return FirstOrderOperator(1, 1, 1, (np.array([[1.0]]),), name="derivative1d")


PRESETS = {
    "gradient": gradient,
    "divergence": divergence,
    "curl": lambda n=3: curl3(),
    "sym-grad": sym_grad,
    "derivative": lambda n=1: scalar_derivative(),
}


def preset(name: str, n: int) -> FirstOrderOperator:
    """Look up a named preset at dimension n (curl requires n=3, derivative n=1)."""
    if name not in PRESETS:
        raise KeyError(f"unknown operator preset {name!r}; choose from {sorted(PRESETS)}")
    if name == "curl" and n != 3:
        raise ValueError("curl preset is only defined for n=3")
    if name == "derivative" and n != 1:
        raise ValueError("derivative preset is only defined for n=1")
    return PRESETS[name](n)


def from_text_file(path) -> FirstOrderOperator:
    """Load a custom operator from a structured text file.

    Format: whitespace/newline separated numbers.  First three entries are
    n, dim_v, dim_w; then the n coefficient matrices follow in order, each
    given by its dim_w * dim_v entries in row-major order.  Lines starting
    with '#' are comments.
    """
    tokens: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
    if len(tokens) < 3:
        raise ValueError(f"operator file {path} is too short")
    n, dim_v, dim_w = (int(t) for t in tokens[:3])
    need = 3 + n * dim_v * dim_w
    if len(tokens) != need:
        raise ValueError(
            f"operator file {path}: expected {need} numbers for n={n}, "
            f"dim_v={dim_v}, dim_w={dim_w}; got {len(tokens)}"
        )
    flat = np.array([float(t) for t in tokens[3:]])
    coeffs = tuple(
        flat[i * dim_w * dim_v : (i + 1) * dim_w * dim_v].reshape(dim_w, dim_v)
        for i in range(n)
    )
    return FirstOrderOperator(n, dim_v, dim_w, coeffs, name="file")
