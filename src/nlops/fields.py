"""Spectral engine for operators acting on periodic vector fields.

Fields live on the uniform N^n grid of the unit torus [0,1)^n with one
vector fiber per grid point, and u(x) = sum_m uhat(m) e^(2 pi i m . x) over
integer frequencies.  All five operators run through one pipeline: one real
FFT; the local spectrum 2 pi i A(m) uhat(m), Nyquist rows zeroed on every
route; for the four averaged operators, pruning below SPECTRUM_FLOOR of its
peak; one inverse real FFT.  Fields are real, so the input and output
spectra are Hermitian, and every step runs on the half spectrum m_n >= 0
alone.  Inside the pipeline the spectra are indexed fiber-first,
(dim,) + (N, ..., N/2+1), one per direction and transformed in place: each
nonzero coefficient entry A_i[w, v] adds one real symbol row times the
contiguous input row v into output row w, and the fiber maximum that pruning
reads, the multiplier and the inverse FFT run over contiguous whole-grid
rows.  In between, the multiplier routes scale by a radial multiplier (the
ball transform, or the weight's Bessel multiplier) through a table over the
frequency shells |m| that carry spectrum, filled by one call.
The direct (quadrature) routes, independent cross-checks, replace m by the
sphere rule's difference-quotient symbol, a sum of sines that tends to m as
the scale goes to 0, and never evaluate a closed-form multiplier.  So every
route's symbol (m, G_s(|m|) m, mu_hat(|m|) m or the direct one) is real and
odd in m, on any sphere rule.  Both radial routes cut the weight where its
tail falls below ``weights.TAIL_CUTOFF``, so they agree to rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gamma, pi, sqrt
from typing import Callable, Optional, Sequence

import numpy as np

from nlops.bessel import ball_transform, bessel_j
from nlops.operators import FirstOrderOperator, symbol, wave_rank, wave_ranks
from nlops.quadrature import sphere_quadrature, sphere_surface
from nlops.weights import RadialWeight, mu_hat, superposition_measure

#: Bessel evaluations are accurate to a few 1e-14; a conservative error bar,
#: the j_error column of every kernel-check artifact.
BESSEL_EVAL_ERR = 5e-13

#: |J_{n/2}| and |G_s| both below this flag a sphere-scale kernel frequency.
KERNEL_ZERO_TOL = 1e-8

#: Both below this, but not both below KERNEL_ZERO_TOL, is inconclusive.
KERNEL_GRAY_TOL = 1e-4

#: Spectrum entries below this relative magnitude count as empty when the
#: averaged operators prune their frequency work set.
SPECTRUM_FLOOR = 1e-14

#: Sines held at once by the direct routes' sine buffer.
DIRECT_BLOCK = 2**13

#: A Chebyshev interpolant of a radial multiplier is accepted once its last
#: CHEB_TAIL coefficients are at most CHEB_CHOP times its largest one.
CHEB_CHOP = 1e-14
CHEB_TAIL = 8


@dataclass(frozen=True)
class TorusField:
    """Real vector field sampled on the uniform N^n torus grid.

    ``values`` has shape (N,)*n + (dim_v,).  The grid point with index
    (i_1, ..., i_n) sits at x = (i_1/N, ..., i_n/N).
    """

    n: int
    N: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expected = (self.N,) * self.n
        if vals.ndim != self.n + 1 or vals.shape[: self.n] != expected:
            raise ValueError(
                f"field values must have shape {expected} + (dim_v,), got {vals.shape}"
            )
        if self.N % 2 != 0:
            raise ValueError("grid resolution N must be even")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def dim_v(self) -> int:
        return self.values.shape[-1]


def coordinates(n: int, N: int) -> np.ndarray:
    """Grid coordinates, shape (N,)*n + (n,): entry i/N along each axis."""
    axes = np.meshgrid(*(np.arange(N) / N for _ in range(n)), indexing="ij")
    return np.stack(axes, axis=-1)


def frequency_grid(n: int, N: int) -> np.ndarray:
    """Integer FFT frequencies, shape (N,)*n + (n,), entries in [-N/2, N/2)."""
    freqs = np.fft.fftfreq(N, d=1.0 / N).astype(int)
    axes = np.meshgrid(*(freqs for _ in range(n)), indexing="ij")
    return np.stack(axes, axis=-1)


@dataclass(frozen=True)
class _Grid:
    """Frequency facts of the half spectrum of the N^n grid, shared by every
    spectral route.

    The real FFT keeps the last-axis indices 0..N/2, so ``m`` is the float
    frequency grid sliced to them, with its last component taken as |m_n|
    (index N/2 is the Nyquist frequency, stored as -N/2 by ``fftfreq``), and
    stored fiber-first like the pipeline's spectra: shape (n, N, ..., N/2+1).
    ``norms`` holds |m|, ``nyquist`` marks the frequencies on a Nyquist row,
    and ``shells``/``shell_of`` are ``np.unique(norms, return_inverse=True)``;
    since |-m| = |m|, the shells are those of the full grid.  All arrays are
    read-only.
    """

    m: np.ndarray
    norms: np.ndarray
    nyquist: np.ndarray
    shells: np.ndarray
    shell_of: np.ndarray


@functools.lru_cache(maxsize=8)
def _grid(n: int, N: int) -> _Grid:
    """The frequency facts of the N^n half spectrum, computed once per (n, N)."""
    m = frequency_grid(n, N)[..., : N // 2 + 1, :]
    m[..., -1] = np.abs(m[..., -1])
    m = np.moveaxis(m, -1, 0).astype(float, order="C")
    norms = np.sqrt(np.sum(m**2, axis=0))
    shells, shell_of = np.unique(norms, return_inverse=True)
    grid = _Grid(m, norms, np.any(np.abs(m) == N // 2, axis=0), shells, shell_of.reshape(norms.shape))
    for arr in vars(grid).values():
        arr.flags.writeable = False
    return grid


def _check_compat(op: FirstOrderOperator, u: TorusField):
    if op.n != u.n:
        raise ValueError(f"operator dimension {op.n} does not match field dimension {u.n}")
    if op.dim_v != u.dim_v:
        raise ValueError(
            f"operator input fiber dim {op.dim_v} does not match field fiber dim {u.dim_v}"
        )


def _contract(op: FirstOrderOperator, uhat: np.ndarray, k: np.ndarray) -> np.ndarray:
    """2 pi i sum_i k_i A_i uhat, mode by mode, on fiber-first spectra:
    ``uhat`` (dim_v, ...) and ``k`` (n, ...) give (dim_w, ...).

    One product per nonzero coefficient entry (w, v): the real symbol row
    sum_i A_i[w, v] k_i times the contiguous input row ``uhat[v]``, added
    into ``out[w]``.
    """
    coeffs = np.stack(op.coeffs)
    out = np.zeros((op.dim_w,) + uhat.shape[1:], dtype=complex)
    for w, v in zip(*np.nonzero(np.any(coeffs != 0.0, axis=0))):
        out[w] += np.tensordot(coeffs[:, w, v], k, axes=1) * uhat[v]
    out *= 2j * pi
    return out


def _apply(
    op: FirstOrderOperator, u: TorusField, kernel: Optional[Callable] = None, multiplier: Optional[Callable] = None
) -> TorusField:
    """One real FFT, the local spectrum with its Nyquist rows zeroed, one
    inverse real FFT.

    The field is real, so its spectrum and the output's are Hermitian: every
    step runs on the half spectrum of ``np.fft.rfftn`` (last frequency
    m_n >= 0), about half the modes of the full grid.  Spectra are
    fiber-first, (dim,) + modes, and one of each direction is allocated: the
    field is copied fiber-first and contiguous and transformed into its
    spectrum in place; ``_contract`` builds the output spectrum row by row;
    the inverse runs ``np.fft.ifft`` in place over every axis but the last,
    then one ``np.fft.irfft`` along it restores the other half, and
    ``TorusField`` copies the result back to its fiber-last layout.  Passing
    a hook, as the averaged operators do, prunes the spectrum below
    SPECTRUM_FLOOR of the peak of its fiber maximum: FFT round-off leaves
    ~1e-16 dust on every frequency of a band-limited field, which
    contributes less than that to any output.  A non-finite field has no
    finite peak and is rejected.  ``kernel`` maps the remaining
    frequencies, shape (k, n), to the symbol that replaces m; ``multiplier``
    maps the mask over ``_grid(n, N).shells`` of the shells that still carry
    spectrum to their values, in shell order, scattered back over them.
    """
    _check_compat(op, u)
    axes = tuple(range(1, u.n + 1))
    grid = _grid(u.n, u.N)
    uhat = np.empty((u.dim_v,) + grid.norms.shape, dtype=complex)
    np.fft.rfftn(np.ascontiguousarray(np.moveaxis(u.values, -1, 0)), axes=axes, out=uhat)
    out = _contract(op, uhat, grid.m)
    if kernel is None:
        # only a kernel reads the input spectrum again; free it before the
        # pruning, the multiplier and the inverse FFT allocate
        del uhat
    out[:, grid.nyquist] = 0.0
    if kernel is not None or multiplier is not None:
        mag = np.abs(out[0])
        for row in out[1:]:
            np.maximum(mag, np.abs(row), out=mag)
        peak = float(np.max(mag, initial=0.0))
        if not np.isfinite(peak):
            raise ValueError("field values must be finite")
        active = mag > SPECTRUM_FLOOR * peak
        # zero the pruned dust first, so its products are exact +0.0
        out[:, ~active] = 0.0
        if kernel is not None:
            out[:, active] = _contract(op, uhat[:, active], kernel(grid.m[:, active].T).T)
        if multiplier is not None:
            present = np.zeros(grid.shells.size, dtype=bool)
            present[grid.shell_of[active]] = True
            table = np.zeros(grid.shells.size)
            table[present] = multiplier(present)
            out *= np.where(active, table[grid.shell_of], 0.0)
    for axis in axes[:-1]:
        np.fft.ifft(out, axis=axis, out=out)
    vals = np.fft.irfft(out, n=u.N, axis=-1)
    return TorusField(n=u.n, N=u.N, values=np.moveaxis(vals, 0, -1))


def apply_local(op: FirstOrderOperator, u: TorusField) -> TorusField:
    """The first-order operator itself, evaluated spectrally (exact on band-limited fields)."""
    return _apply(op, u)


def apply_spherical_spectral(op: FirstOrderOperator, u: TorusField, s: float) -> TorusField:
    """Sphere-scale operator via its Fourier multiplier (ball transform damping)."""
    if s <= 0:
        raise ValueError("scale s must be positive")
    return _apply(op, u, multiplier=lambda present: ball_transform(u.n, s, _grid(u.n, u.N).shells[present]))


def _direct_symbol(m: np.ndarray, radii: np.ndarray, rweights: np.ndarray, quad_order: int) -> np.ndarray:
    """Difference-quotient symbol of the superposition of sphere-scale
    operators against the discrete radial measure sum_k c_k delta(r - r_k),
    (r_k, c_k) = (radii[k], rweights[k]), on the frequencies ``m`` (k, n).

    Returns the real (k, n) array
    n/(2 pi |S|) sum_omega w_omega omega sum_k (c_k/r_k) sin(2 pi r_k m.omega)
    on the explicit sphere rule as given: the part odd in m of K(m) / (2 pi i),
    with K(m) = n/|S| sum_omega w_omega omega sum_k (c_k/r_k)(e^(2 pi i r_k m.omega) - 1)
    the exact shifted difference quotients.  Their even part, the cosines and
    the constant, cancels between antipodal nodes, so only on a centrally
    symmetric rule; the sines keep the symbol real and odd on every rule,
    sym(-m) == -sym(m) bit for bit.  It tends to m times the measure's mass
    as the radii go to 0.  The closed-form multipliers are never evaluated.
    """
    n = m.shape[-1]
    nodes, wq = sphere_quadrature(n, quad_order)
    scaled = rweights / radii
    kernel = np.empty((len(m), n))
    # blocks of modes and radii bound the (radii x modes x nodes) sine buffer
    modes_per_block = max(1, DIRECT_BLOCK // len(nodes))
    for j0 in range(0, len(m), modes_per_block):
        proj = m[j0 : j0 + modes_per_block] @ nodes.T
        radii_per_block = max(1, DIRECT_BLOCK // proj.size)
        acc = np.zeros(proj.shape)
        for k0 in range(0, radii.size, radii_per_block):
            sines = np.sin(2 * pi * np.multiply.outer(radii[k0 : k0 + radii_per_block], proj))
            acc += np.tensordot(scaled[k0 : k0 + radii_per_block], sines, axes=1)
        kernel[j0 : j0 + modes_per_block] = (acc * wq) @ nodes
    return kernel * (n / (2 * pi * sphere_surface(n)))


def apply_spherical_direct(
    op: FirstOrderOperator, u: TorusField, s: float, quad_order: int = 64
) -> TorusField:
    """Sphere-scale operator by quadrature over shifted difference quotients.

    The direct radial route with the one-point measure at ``s``: independent
    of the multiplier route, it never evaluates the closed-form damping
    factor.
    """
    if s <= 0:
        raise ValueError("scale s must be positive")
    return _apply(op, u, kernel=lambda m: _direct_symbol(m, np.array([float(s)]), np.array([1.0]), quad_order))


def apply_radial_spectral(
    op: FirstOrderOperator,
    u: TorusField,
    w: RadialWeight,
    mu_cache: Optional[dict] = None,
) -> TorusField:
    """Weighted radial operator via the Bessel multiplier of the weight.

    ``mu_cache`` maps a grid size N to the multiplier over the shells of
    ``_grid(n, N)``, in their order, NaN where not yet evaluated; pass a dict
    to reuse evaluations across calls with the same weight.  The missing
    shells are filled together by :func:`_shell_multipliers`.
    """
    if w.n != u.n:
        raise ValueError(f"weight dimension {w.n} does not match field dimension {u.n}")
    cache = {} if mu_cache is None else mu_cache

    def multiplier(present: np.ndarray) -> np.ndarray:
        table = cache.setdefault(u.N, np.full(present.size, np.nan))
        missing = present & np.isnan(table)
        if missing.any():
            table[missing] = _shell_multipliers(w, _grid(u.n, u.N).shells[missing])
        return table[present]

    return _apply(op, u, multiplier=multiplier)


def _shell_multipliers(w: RadialWeight, xis: np.ndarray) -> np.ndarray:
    """``mu_hat(w, xis)`` on the sorted, nonnegative shells ``xis``.

    Every shipped weight has compact support or is Gaussian, so its
    multiplier is entire and one Chebyshev interpolant on [0, max xi]
    resolves it to rounding.  The interpolant samples ``mu_hat`` at
    Chebyshev points of the second kind, degree 16, 32, 64, ...; the points
    are nested, so each doubling evaluates only the new odd-indexed nodes,
    in one array call of ``mu_hat`` per tried degree (degree + 1 frequencies
    in all for the accepted degree).  A degree is accepted once its
    coefficients (a DCT-I of the samples) end in a plateau below CHEB_CHOP.
    Only degrees with fewer nodes than half the shells are tried; otherwise,
    as on sparse spectra, the shells take one ``mu_hat`` call, after under
    0.5 frequencies per shell of tried degrees.  Within a call, frequencies
    on the same panel lattice share their Bessel values, so a dense table
    costs Bessel values per call and lattice, not per frequency: 28 096 for
    the normalized ``bump(2, 0.3)`` on a 128^2 grid, where a panel rule per
    frequency took 126 448.
    """
    hi = float(xis[-1])
    degree, samples = 16, np.empty(0)
    while degree + 1 < xis.size / 2:
        fresh = np.arange(degree + 1) if samples.size == 0 else np.arange(1, degree, 2)
        values = mu_hat(w, 0.5 * hi * (1.0 + np.cos(pi * fresh / degree)))
        # the previous degree's samples are the even-indexed nodes
        samples = np.insert(values, np.arange(samples.size), samples)
        # DCT-I through the real FFT of the even extension
        coeffs = np.fft.rfft(np.concatenate([samples, samples[-2:0:-1]])).real / degree
        coeffs[[0, -1]] /= 2.0
        if np.max(np.abs(coeffs[-CHEB_TAIL:])) <= CHEB_CHOP * np.max(np.abs(coeffs)):
            return _clenshaw(coeffs, 2.0 * xis / hi - 1.0)
        degree *= 2
    return mu_hat(w, xis)


def _clenshaw(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Chebyshev series sum_k coeffs[k] T_k(x), by Clenshaw's recurrence."""
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for c in coeffs[:0:-1]:
        b1, b2 = c + 2.0 * x * b1 - b2, b1
    return coeffs[0] + x * b1 - b2


def apply_radial_direct(
    op: FirstOrderOperator, u: TorusField, w: RadialWeight, quad_order: int = 64
) -> TorusField:
    """Weighted radial operator as a superposition of sphere-scale operators.

    Uses the weight's superposition measure on (0, R], cut at the
    ``TAIL_CUTOFF`` radius like the mass and the multiplier, and the same
    sphere rule as the direct sphere-scale route.  Never evaluates the
    weight's multiplier.
    """
    if w.n != u.n:
        raise ValueError(f"weight dimension {w.n} does not match field dimension {u.n}")
    radii, rweights = superposition_measure(w)
    return _apply(op, u, kernel=lambda m: _direct_symbol(m, radii, rweights, quad_order))


def lp_norm(u: TorusField, p) -> float:
    """L^p norm over the torus (uniform grid measure, Euclidean fiber norm)."""
    fiber = np.sqrt(np.sum(u.values**2, axis=-1))
    if p == np.inf:
        return float(np.max(fiber))
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1 or inf")
    return float(np.mean(fiber**p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Field constructors


def trig_field_from_coeffs(
    n: int, N: int, dim_v: int, terms: Sequence[tuple[Sequence[int], Sequence[complex]]]
) -> TorusField:
    """Field sum_k 2 Re[c_k e^(2 pi i m_k . x)] from (frequency, coefficient) pairs.

    Frequencies must be nonzero multi-integers below the Nyquist row; each
    coefficient is a complex dim_v vector.  A zero frequency may be supplied
    to add a constant (its imaginary part is discarded).
    """
    shape = (N,) * n + (dim_v,)
    uhat = np.zeros(shape, dtype=complex)
    for mvec, cvec in terms:
        mvec = tuple(int(x) for x in mvec)
        cvec = np.asarray(cvec, dtype=complex)
        if len(mvec) != n or cvec.shape != (dim_v,):
            raise ValueError(f"bad term ({mvec}, {cvec!r}) for n={n}, dim_v={dim_v}")
        if any(abs(x) >= N // 2 for x in mvec):
            raise ValueError(f"frequency {mvec} reaches the Nyquist row at N={N}")
        idx = tuple(x % N for x in mvec)
        neg = tuple((-x) % N for x in mvec)
        if all(x == 0 for x in mvec):
            uhat[idx] += cvec.real
        else:
            uhat[idx] += cvec
            uhat[neg] += np.conj(cvec)
    vals = np.fft.ifftn(uhat * N**n, axes=tuple(range(n))).real
    return TorusField(n=n, N=N, values=vals)


def random_trig_field(
    n: int,
    N: int,
    dim_v: int,
    rng: np.random.Generator,
    max_degree: int = 4,
    num_terms: int = 6,
) -> TorusField:
    """Random band-limited field with frequencies |m|_inf <= max_degree.

    Low degrees keep grid maxima close to the true suprema of the
    trigonometric polynomial, which matters for sup-norm comparisons.
    """
    if max_degree >= N // 2:
        raise ValueError("max_degree must stay below the Nyquist row")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1: the zero frequency is never drawn")
    terms = []
    for _ in range(num_terms):
        while True:
            mvec = tuple(int(x) for x in rng.integers(-max_degree, max_degree + 1, size=n))
            if any(mvec):
                break
        cvec = rng.normal(size=dim_v) + 1j * rng.normal(size=dim_v)
        terms.append((mvec, cvec))
    return trig_field_from_coeffs(n, N, dim_v, terms)


# ---------------------------------------------------------------------------
# Localization and kernel diagnostics


def localization_table(
    op: FirstOrderOperator,
    us: Sequence[TorusField],
    family,
    p,
    eps_list: Sequence[float],
) -> list[tuple[float, float]]:
    """Rows (eps, mean of ||A_w(eps) u - A u||_p over the fields ``us``) for
    a concentrating weight family.

    ``family`` is any function eps -> RadialWeight whose members have unit
    mass and tails vanishing as eps -> 0, such as ``weights.annulus`` or
    ``weights.rescaled_family`` of a normalized base.  Each eps builds one
    weight and one multiplier cache, which the fields fill in order; the row
    error is the sum of their errors, in order, over their count.

    The paper states localization without a rate; the rate comes from the
    family.  For ``weights.annulus`` (n=1) the multiplier is the sine-integral
    closed form [Si(4 pi eps xi) - Si(2 pi eps xi)] / (2 pi eps xi)
    = 1 - (7/18)(2 pi eps xi)^2 + O(eps^4 xi^4), from the second moment
    int rho h^2 dh = 7 eps^2 / 3, so the p=2 row is
    (7/18) eps^2 ||u'''||_2 (1 + O(eps^2)): quadratic, not linear, in eps.
    """
    bases = [apply_local(op, u) for u in us]
    rows = []
    for eps in eps_list:
        w, cache = family(eps), {}
        errs = []
        for u, base in zip(us, bases):
            averaged = apply_radial_spectral(op, u, w, cache)
            errs.append(lp_norm(TorusField(n=u.n, N=u.N, values=averaged.values - base.values), p))
        rows.append((float(eps), sum(errs) / len(errs)))
    return rows


@dataclass(frozen=True, eq=False)
class KernelScan:
    """A sphere-scale kernel scan, one column entry per frequency: ``m`` is
    the (k, n) int array of frequencies and ``flag`` is "zero",
    "inconclusive" or "nonzero"; the kernel frequencies are
    ``m[flag == "zero"]``.  ``verdict`` is the scan's one-line summary."""

    m: np.ndarray
    m_norm: np.ndarray
    symbol_rank: np.ndarray
    j_value: np.ndarray
    flag: np.ndarray
    verdict: str


def kernel_check_torus(op: FirstOrderOperator, s: float, max_degree: int = 8) -> KernelScan:
    """Scan frequencies 0 < |m|_inf <= max_degree for sphere-scale kernel modes.

    A plane wave e^(2 pi i m.x) v is annihilated when J_{n/2}(t),
    t = 2 pi s |m|, vanishes (regardless of v, provided A(m) v != 0).  For
    small t, J is small only through its leading term (t/2)^(n/2) /
    Gamma(n/2 + 1), while G_s(|m|), J over that term, is about 1; so a value
    is small if both |J| and |G_s| are below tol: 1e-8 flags a kernel
    frequency, 1e-4 an inconclusive one at double precision.  The
    frequencies run in np.ndindex order.
    """
    if s <= 0:
        raise ValueError("scale s must be positive")
    m = np.indices((2 * max_degree + 1,) * op.n).reshape(op.n, -1).T - max_degree
    m = m[m.any(axis=1)]
    norms = np.sqrt(np.sum(m * m, axis=1))
    t = 2.0 * pi * s * norms
    j = bessel_j(op.n / 2.0, t)
    scale = np.minimum(1.0, (t / 2.0) ** (op.n / 2.0) / gamma(op.n / 2.0 + 1.0))
    zero = np.abs(j) < KERNEL_ZERO_TOL * scale
    gray = ~zero & (np.abs(j) < KERNEL_GRAY_TOL * scale)
    if zero.any():
        verdict = f"kernel frequencies found: {np.count_nonzero(zero)} of {len(m)} scanned"
    elif gray.any():
        verdict = "no kernel frequencies at tolerance; some values inconclusive"
    else:
        verdict = "no kernel frequencies up to the scanned degree"
    flag = np.array(["nonzero", "inconclusive", "zero"], dtype=object)[2 * zero + gray]
    # m runs over -m in reverse, and A(-m) = -A(m) has the rank of A(m)
    ranks = wave_ranks(op, m[: len(m) // 2])
    return KernelScan(m, norms, np.concatenate([ranks, ranks[::-1]]), j, flag, verdict)


@dataclass(frozen=True)
class WitnessReport:
    """Norm comparison for a candidate sphere-scale kernel field."""

    m: tuple[int, ...]
    s: float
    j_value: float
    sup_local: float
    sup_spherical: float
    symbol_rank: int
    symbol_image_norm: float
    advisories: tuple[str, ...]


def kernel_witness(
    op: FirstOrderOperator,
    s: float,
    m: Sequence[int],
    v: Sequence[float],
    N: int = 64,
) -> WitnessReport:
    """Evaluate u(x) = v sin(2 pi m.x) under the local and sphere-scale operators.

    Errors out only when the symbol annihilates every fiber at m (then no
    witness through this frequency can separate the kernels); all other
    mismatches with the ideal witness hypotheses are reported as advisories.
    """
    mvec = tuple(int(x) for x in m)
    v = np.asarray(v, dtype=float)
    if v.shape != (op.dim_v,):
        raise ValueError(f"witness fiber must have shape ({op.dim_v},)")
    if not any(mvec):
        raise ValueError("witness frequency must be nonzero")
    rank = wave_rank(op, np.asarray(mvec, float))
    if rank == 0:
        raise ValueError(
            f"symbol vanishes identically at m={mvec}; the local operator already "
            "annihilates every plane wave at this frequency"
        )
    t = 2.0 * pi * s * sqrt(sum(x * x for x in mvec))
    j = float(bessel_j(op.n / 2.0, t))
    coeff = v / (2j)
    u = trig_field_from_coeffs(op.n, N, op.dim_v, [(mvec, coeff)])
    local = apply_local(op, u)
    spherical = apply_spherical_spectral(op, u, s)
    image = symbol(op, np.asarray(mvec, float)) @ v
    advisories = []
    if np.linalg.norm(image) <= 1e-12:
        advisories.append("fiber v lies in the symbol kernel at m; local image vanishes")
    # the kernel scan's rule: |J| and |G_s| both below KERNEL_ZERO_TOL
    if abs(j) >= KERNEL_ZERO_TOL * min(1.0, (t / 2.0) ** (op.n / 2.0) / gamma(op.n / 2.0 + 1.0)):
        advisories.append("J_{n/2}(2 pi s |m|) is not numerically zero; not a kernel frequency")
    return WitnessReport(
        m=mvec,
        s=float(s),
        j_value=j,
        sup_local=lp_norm(local, np.inf),
        sup_spherical=lp_norm(spherical, np.inf),
        symbol_rank=rank,
        symbol_image_norm=float(np.linalg.norm(image)),
        advisories=tuple(advisories),
    )
