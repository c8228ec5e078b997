"""Two-mode interference and its response to a single shear-wave step.

Two equal-energy eigenmodes travelling along the two lattice axes form a
stationary fringe pattern; one perturbed step changes the density by an
amount linear in the wave amplitude.  This module builds the superposition,
steps it, collapses the response onto the diagonal offset u = pX - pY and
compares against the closed-form profile and its maximum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigurationError, ConsistencyError, even_pair, finite, finite_list,
                     integer)
from .walk import SpinorField, WalkParams, pure_shear_angles, step
from . import csvio, spectral

_SQRT2 = math.sqrt(2.0)

#: polarizations of the X-moving and Y-moving modes (shared eigenvalue e^{-iq})
POLARIZATION_X = np.array([0.0, 1.0], dtype=complex)
POLARIZATION_Y = np.array([-1j / _SQRT2, 1.0 / _SQRT2])


def admissible_q(q: float, length: int) -> float:
    """Nearest wavenumber with q*L/2 a multiple of 2*pi."""
    n = q * length / (4.0 * math.pi)
    if not math.isfinite(n):
        raise ConfigurationError(f"q = {q!r} has no admissible neighbour: q*L/(4 pi) is "
                                 f"not finite for L = {length}")
    return 4.0 * math.pi * round(n) / length


@dataclass(frozen=True)
class InterferenceSetup:
    """Common wavenumber q > 0, square lattice shape, and wave step xi*g0."""

    q: float
    shape: tuple[int, int] = (64, 64)
    xi: float = 1e-4
    g0: float = 1.0

    def __post_init__(self):
        l1, l2 = even_pair(self.shape, "shape")
        if l1 != l2:
            raise ConfigurationError(
                "interference runs need a square lattice so the diagonal "
                "offset u = pX - pY wraps consistently")
        snapped = admissible_q(self.q, l1)  # first: it names a q too large to snap
        finite(self.q, "q", "positive")
        if abs(snapped - self.q) > 1e-9:
            raise ConfigurationError(
                f"q = {self.q!r} does not fit the lattice; nearest admissible "
                f"value is {snapped!r}")


def initial_superposition(setup: InterferenceSetup) -> SpinorField:
    """Psi1 e^{i q pX/2} + Psi2 e^{i q pY/2} on the lattice.

    q is admissible, q = 4 pi n / L, so q p/2 = 2 pi ((n p) mod L) / L: the
    argument is reduced in integers, and sites on one diagonal get phases
    whose rounding does not grow with p."""
    length = setup.shape[0]
    n = round(setup.q * length / (4.0 * math.pi))
    phase = np.exp(1j * (2.0 * math.pi / length)
                   * (((n % length) * np.arange(length)) % length))
    return SpinorField(POLARIZATION_X[:, None, None] * phase[:, None]
                       + POLARIZATION_Y[:, None, None] * phase)


def initial_density_formula(q: float, u) -> np.ndarray:
    """Fringe density 2 + sqrt(2) cos(q u / 2)."""
    return 2.0 + _SQRT2 * np.cos(q * np.asarray(u, dtype=float) / 2.0)


def delta_formula(q: float, u) -> np.ndarray:
    """Closed-form relative density change per unit wave amplitude."""
    return _delta_over_sin2(q, u) * np.sin(q) ** 2


def _delta_over_sin2(q, u) -> np.ndarray:
    """:func:`delta_formula` without its factor sin(q)^2; q broadcasts with u."""
    u = np.asarray(u, dtype=float)
    n0 = initial_density_formula(q, u)
    return (2.0 * _SQRT2 / n0) * np.cos(q * (u - 2.0) / 2.0)


@dataclass
class DensityProfile:
    """Response collapsed onto the diagonal offset u = pX - pY (mod L)."""

    q: float
    u: np.ndarray
    delta: np.ndarray


def step_response(setup: InterferenceSetup, tolerance: float = 1e-10
                  ) -> tuple[np.ndarray, np.ndarray, DensityProfile]:
    """One perturbed step: the initial density N0, the per-site response
    (N1 - N0) / (xi g0 N0), and that response collapsed onto u = pX - pY.

    The per-site response must be constant along each u-diagonal; the check
    tolerance has a roundoff floor of order machine-eps / (xi*g0) because
    the normalization divides out the perturbation.
    """
    if setup.xi * setup.g0 == 0.0:
        raise ConfigurationError(
            "xi * g0 must be nonzero to normalize the response; set a nonzero "
            "xi and shear amplitude G")
    field0 = initial_superposition(setup)
    n0 = field0.density()
    provider = pure_shear_angles(setup.xi, setup.g0)
    field1 = step(field0, 0, provider, WalkParams(epsilon=1.0, mass=0.0, xi=setup.xi))
    delta = (field1.density() - n0) / (setup.xi * setup.g0 * n0)

    # row u holds the diagonal p1 - p2 = u (mod L), in the order of p1; a
    # negative column p1 - u indexes from the end, which is its value mod L
    p = np.arange(setup.shape[0])
    diag = delta[p, p - p[:, None]]
    floor = 256.0 * np.finfo(float).eps / abs(setup.xi * setup.g0)
    tol = max(tolerance, floor)
    spread = diag.max(axis=1) - diag.min(axis=1)
    over = np.flatnonzero(spread > tol)
    if over.size:
        u = int(over[0])
        raise ConsistencyError(
            f"response not constant along diagonal u={u}: spread "
            f"{spread[u]:.3e} exceeds {tol:.3e}")
    return n0, delta, DensityProfile(setup.q, p, diag.mean(axis=1))


def delta_simulated(setup: InterferenceSetup,
                    tolerance: float = 1e-10) -> DensityProfile:
    """The diagonal profile of :func:`step_response`."""
    return step_response(setup, tolerance)[2]


# ---------------------------------------------------------------------------
# maximum response over the offset
# ---------------------------------------------------------------------------

def delta_max(q: float) -> float:
    """max over real u of |delta(q, u)|, in closed form (arXiv:1609.00722).

    With s = sin(q)^2 and r = sqrt(1 - s/2) the maximum is
    2 sqrt(2) s r / (2 - sqrt(2) |cos q| r - s): symmetric about pi/2,
    and exactly 0 at q = 0.  The tests check it against a dense numeric
    search over u.
    """
    if not 0.0 <= q < math.pi:
        raise ConfigurationError(f"q must lie in [0, pi), got {q!r}")
    s2 = math.sin(q) ** 2
    root = math.sqrt(1.0 - s2 / 2.0)
    return 2.0 * _SQRT2 * s2 * root / (2.0 - _SQRT2 * abs(math.cos(q)) * root - s2)


def delta_max_integer(q):
    """max over integer offsets u covering one period of |delta(q, u)|.

    Lattice-independent lower bound on what a finite lattice realizes; a
    lattice whose wavenumber period does not divide its size samples more
    phases and can get closer to :func:`delta_max`.

    ``q`` is a number, which gives a float, or a 1-D array, which gives an
    array of the same length; every entry must lie in [0, pi), and q = 0
    gives 0.  The offsets are 0 .. N with N = ceil(4 pi / q), but only a
    few are evaluated.  With phi = q u / 2, delta is proportional to
    cos(phi - q) / (2 + sqrt(2) cos phi), whose derivative in phi
    vanishes only where sin(phi - q) = sin(q) / sqrt(2): at
    u1 = 2 + 2 a / q and u2 = 2 + 2 (pi - a) / q, with
    a = arcsin(sin(q) / sqrt(2)), both inside [0, N].  So delta is
    monotone on [0, u1], [u1, u2] and [u2, N], and |delta| over the
    integers of each piece is largest at its first or last one: at 0, at
    N, or at floor(u_i) or floor(u_i) + 1.  The candidates are 0, N and
    floor(u_i) + {-1, 0, 1, 2}, a margin for rounding in u_i, clipped to
    [0, N]; these at most ten offsets are evaluated one column at a time,
    so the working arrays hold a few numbers per q.  sin(q)^2 is taken per
    q with C ``pow``, as ``delta_formula`` takes it on a scalar: an
    array's ``** 2`` squares, which can differ in the last bit.
    """
    qs = np.asarray(q, dtype=float)
    if qs.ndim > 1:
        raise ConfigurationError(f"q must be a number or a 1-D array, got shape {qs.shape}")
    flat = qs.reshape(-1)
    bad = ~((flat >= 0.0) & (flat < math.pi))
    if bad.any():
        raise ConfigurationError(f"q must lie in [0, pi), got {float(flat[bad][0])!r}")
    sines = np.sin(flat)
    sin2 = np.array([s ** 2 for s in sines.tolist()])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        periods = np.where(flat > 0.0, np.ceil(4.0 * math.pi / flat), 0.0)
        a = np.arcsin(sines / _SQRT2)
        humps = (np.floor(2.0 + 2.0 * a / flat), np.floor(2.0 + 2.0 * (math.pi - a) / flat))
    if periods.size and not periods.max() < 2.0 ** 53:
        raise ConfigurationError(
            f"q = {float(flat[periods.argmax()])!r} is too small: one period has "
            "more integer offsets than a float counts exactly")
    best = np.abs(_delta_over_sin2(flat, 0.0) * sin2)
    shifted = (hump + k for hump in humps for k in (-1.0, 0.0, 1.0, 2.0))
    for u in itertools.chain((periods,), shifted):
        # fmax drops the NaN that q = 0 gives a hump; its period 0 clips it to 0
        u = np.minimum(np.fmax(u, 0.0), periods)
        np.maximum(best, np.abs(_delta_over_sin2(flat, u) * sin2), out=best)
    return float(best[0]) if qs.ndim == 0 else best


def deltam_rows(qs) -> list[tuple[float, float, float]]:
    """The rows (q, deltaM_continuous, deltaM_integer) of a sweep over ``qs``."""
    qs = np.asarray(qs, dtype=float)
    q_list = qs.tolist()
    return list(zip(q_list, map(delta_max, q_list), delta_max_integer(qs).tolist()))


def delta_max_peak() -> tuple[float, float]:
    """Location and value of the absolute maximum of delta_max on (pi/2, pi).

    With c = |cos q|, delta_max(q) = 2 (1 - c^2)(sqrt(1 + c^2) + c), which
    is stationary where 3 c^4 + 6 c^2 - 1 = 0, at c^2 = 2/sqrt(3) - 1.
    """
    q = math.pi - math.acos(math.sqrt(2.0 / math.sqrt(3.0) - 1.0))
    return q, delta_max(q)


# ---------------------------------------------------------------------------
# figure tables
# ---------------------------------------------------------------------------

_FIGURES = ("fig1", "fig2", "fig3", "fig4")


def figure_tables(out_dir, figures=_FIGURES,
                  resolution: int = 512, lattice: int = 64,
                  q_list=None, sweep_resolution: int = 1024) -> dict:
    """Emit the CSV tables behind the four reference figures.

    fig1: the coupling-strength landscape over the zone (qX, qY, value);
    fig2: fringe density and response on the lattice at the peak q
    (pX, pY, N0, delta); fig3: response profiles over two periods for a
    list of q values (q, u, delta); fig4: the maximum response over
    [0, pi) with both real-u and integer-u columns
    (q, deltaM_continuous, deltaM_integer).

    ``figures`` is a list of those names, not a bare string.  The sizes go
    through the CLI's kinds (:mod:`gwalk.errors`): ``resolution`` an integer
    >= 2, ``lattice`` an even one, ``sweep_resolution`` one >= 0, and
    ``q_list`` any sequence or 1-D array, even empty, of finite numbers
    > 0; anything else raises ``ConfigurationError`` naming the argument.
    """
    try:
        names = set(figures)  # a bare string gives its letters: no names
    except TypeError:  # not a list, or an entry that cannot be a name
        names = None
    if names is None or not names <= set(_FIGURES):
        raise ConfigurationError(f"figures must list names among {_FIGURES}, got {figures!r}")
    integer(resolution, "resolution", 2)
    integer(sweep_resolution, "sweep_resolution", 0)
    even_pair((integer(lattice, "lattice", 2),) * 2, "lattice")
    if q_list is not None:
        q_list = finite_list(q_list, "q_list", "positive", 0)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    q_peak = delta_max_peak()[0] if names & {"fig2", "fig3"} else None

    if "fig1" in names:
        grid = spectral.SpectrumGrid.sample(spectral.rho, resolution)
        path = out / "fig1_rho.csv"
        grid.to_csv(path)
        written["fig1"] = path

    if "fig2" in names:
        p = np.arange(lattice)
        u = p[:, None] - p[None, :]
        rows = csvio.grid_rows(initial_density_formula(q_peak, u),
                               delta_formula(q_peak, u))
        path = out / "fig2_density.csv"
        csvio.write_csv(path, ["pX", "pY", "N0", "delta"], rows)
        written["fig2"] = path

    if "fig3" in names:
        if q_list is None:
            q_list = (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3,
                      q_peak)
        rows = []
        for q in q_list:
            period = 4.0 * math.pi / q
            us = np.linspace(0.0, 2.0 * period, 256, endpoint=False)
            rows += zip([q] * len(us), us.tolist(), delta_formula(q, us).tolist())
        path = out / "fig3_profiles.csv"
        csvio.write_csv(path, ["q", "u", "delta"], rows)
        written["fig3"] = path

    if "fig4" in names:
        rows = deltam_rows(np.linspace(0.0, math.pi, sweep_resolution, endpoint=False))
        path = out / "fig4_deltam.csv"
        csvio.write_csv(path, ["q", "deltaM_continuous", "deltaM_integer"], rows)
        written["fig4"] = path

    return written
