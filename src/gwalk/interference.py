"""Two-mode interference and its response to a single shear-wave step.

Two equal-energy eigenmodes travelling along the two lattice axes form a
stationary fringe pattern; one perturbed step changes the density by an
amount linear in the wave amplitude.  This module builds the superposition,
steps it, collapses the response onto the diagonal offset u = pX - pY and
compares against the closed-form profile and its maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ConsistencyError
from .walk import SpinorField, WalkParams, pure_shear_angles, step
from . import csvio, spectral

_SQRT2 = math.sqrt(2.0)

#: polarizations of the X-moving and Y-moving modes (shared eigenvalue e^{-iq})
POLARIZATION_X = np.array([0.0, 1.0], dtype=complex)
POLARIZATION_Y = np.array([-1j / _SQRT2, 1.0 / _SQRT2])


def admissible_q(q: float, length: int) -> float:
    """Nearest wavenumber with q*L/2 a multiple of 2*pi."""
    n = round(q * length / (4.0 * math.pi))
    return 4.0 * math.pi * n / length


@dataclass(frozen=True)
class InterferenceSetup:
    """Common wavenumber q > 0, square lattice shape, and wave step xi*g0."""

    q: float
    shape: tuple[int, int] = (64, 64)
    xi: float = 1e-4
    g0: float = 1.0

    def __post_init__(self):
        l1, l2 = self.shape
        if l1 != l2:
            raise ConfigurationError(
                "interference runs need a square lattice so the diagonal "
                "offset u = pX - pY wraps consistently")
        if not self.q > 0:
            raise ConfigurationError(f"q must be positive, got {self.q!r}")
        snapped = admissible_q(self.q, l1)
        if abs(snapped - self.q) > 1e-9:
            raise ConfigurationError(
                f"q = {self.q!r} does not fit the lattice; nearest admissible "
                f"value is {snapped!r}")


def initial_superposition(setup: InterferenceSetup) -> SpinorField:
    """Psi1 e^{i q pX/2} + Psi2 e^{i q pY/2} on the lattice."""
    k = setup.q / 2.0
    l1, l2 = setup.shape
    p1 = np.arange(l1)[:, None]
    p2 = np.arange(l2)[None, :]
    phase_x = np.exp(1j * k * p1) * np.ones((1, l2))
    phase_y = np.ones((l1, 1)) * np.exp(1j * k * p2)
    data = np.stack((
        POLARIZATION_X[0] * phase_x + POLARIZATION_Y[0] * phase_y,
        POLARIZATION_X[1] * phase_x + POLARIZATION_Y[1] * phase_y))
    return SpinorField(data)


def initial_density_formula(q: float, u) -> np.ndarray:
    """Fringe density 2 + sqrt(2) cos(q u / 2)."""
    return 2.0 + _SQRT2 * np.cos(q * np.asarray(u, dtype=float) / 2.0)


def delta_formula(q: float, u) -> np.ndarray:
    """Closed-form relative density change per unit wave amplitude."""
    u = np.asarray(u, dtype=float)
    n0 = initial_density_formula(q, u)
    return (2.0 * _SQRT2 / n0) * np.cos(q * (u - 2.0) / 2.0) * np.sin(q) ** 2


@dataclass
class DensityProfile:
    """Response collapsed onto the diagonal offset u = pX - pY (mod L)."""

    q: float
    u: np.ndarray
    delta: np.ndarray

    @property
    def period(self) -> float:
        return 4.0 * math.pi / self.q


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

    length = setup.shape[0]
    p1 = np.arange(length)[:, None]
    p2 = np.arange(length)[None, :]
    u_index = (p1 - p2) % length
    floor = 256.0 * np.finfo(float).eps / abs(setup.xi * setup.g0)
    tol = max(tolerance, floor)
    values = np.empty(length)
    for u in range(length):
        diag = delta[u_index == u]
        spread = float(diag.max() - diag.min())
        if spread > tol:
            raise ConsistencyError(
                f"response not constant along diagonal u={u}: spread "
                f"{spread:.3e} exceeds {tol:.3e}")
        values[u] = diag.mean()
    return n0, delta, DensityProfile(setup.q, np.arange(length), values)


def delta_simulated(setup: InterferenceSetup,
                    tolerance: float = 1e-10) -> DensityProfile:
    """The diagonal profile of :func:`step_response`."""
    return step_response(setup, tolerance)[2]


# ---------------------------------------------------------------------------
# maximum response over the offset
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section search for a maximum of `fn` on [a, b], to width `tol`
    or until float spacing stops the bracket from shrinking."""
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol and a < c < d < b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


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


def delta_max_integer(q: float) -> float:
    """max over integer offsets u covering one period of |delta(q, u)|.

    Lattice-independent lower bound on what a finite lattice realizes; a
    lattice whose wavenumber period does not divide its size samples more
    phases and can get closer to :func:`delta_max`.
    """
    if q == 0.0:
        return 0.0
    if not 0.0 < q < math.pi:
        raise ConfigurationError(f"q must lie in [0, pi), got {q!r}")
    n = int(math.ceil(4.0 * math.pi / q)) + 1
    return float(np.abs(delta_formula(q, np.arange(n))).max())


def delta_max_peak(resolution: int = 2048) -> tuple[float, float]:
    """Location and value of the absolute maximum of delta_max on (pi/2, pi)."""
    qs = np.linspace(math.pi / 2, math.pi, resolution, endpoint=False)[1:].tolist()
    i = int(np.argmax([delta_max(q) for q in qs]))
    h = qs[1] - qs[0]
    return _golden_max(delta_max, qs[i] - h, qs[i] + h, 1e-10)


# ---------------------------------------------------------------------------
# figure tables
# ---------------------------------------------------------------------------

def figure_tables(out_dir, figures=("fig1", "fig2", "fig3", "fig4"),
                  resolution: int = 512, lattice: int = 64,
                  q_list=None, sweep_resolution: int = 1024) -> dict:
    """Emit the CSV tables behind the four reference figures.

    fig1: the coupling-strength landscape over the zone (qX, qY, value);
    fig2: fringe density and response on the lattice at the peak q
    (pX, pY, N0, delta); fig3: response profiles over two periods for a
    list of q values (q, u, delta); fig4: the maximum response over
    [0, pi) with both real-u and integer-u columns
    (q, deltaM_continuous, deltaM_integer).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    need_peak = any(f in figures for f in ("fig2", "fig3"))
    q_peak = delta_max_peak()[0] if need_peak else None

    if "fig1" in figures:
        grid = spectral.SpectrumGrid.sample(spectral.rho, resolution, "rho")
        path = out / "fig1_rho.csv"
        grid.to_csv(path)
        written["fig1"] = path

    if "fig2" in figures:
        p = np.arange(lattice)
        u = p[:, None] - p[None, :]
        rows = csvio.grid_rows(initial_density_formula(q_peak, u),
                               delta_formula(q_peak, u))
        path = out / "fig2_density.csv"
        csvio.write_csv(path, ["pX", "pY", "N0", "delta"], rows)
        written["fig2"] = path

    if "fig3" in figures:
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

    if "fig4" in figures:
        qs = np.linspace(0.0, math.pi, sweep_resolution, endpoint=False).tolist()
        rows = [(q, delta_max(q), delta_max_integer(q)) for q in qs]
        path = out / "fig4_deltam.csv"
        csvio.write_csv(path, ["q", "deltaM_continuous", "deltaM_integer"], rows)
        written["fig4"] = path

    return written
