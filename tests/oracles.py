"""Reference code that tests compare the package's output against."""

import csv

import numpy as np

from gwalk.spectral import _amplitude_parts


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """Read back a numeric CSV written by the package."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def broadcast_grid(fn, xs, ys):
    """fn over the grid xs x ys as one broadcast of the whole qX axis against
    the whole qY axis."""
    return fn(np.asarray(xs)[:, None], np.asarray(ys)[None, :])


def mode_w0_entries(qx, qy) -> np.ndarray:
    """The unperturbed one-mode operator, each entry written out."""
    qx, qy = np.broadcast_arrays(np.asarray(qx, float), np.asarray(qy, float))
    ex, cy, sy = np.exp(1j * qx), np.cos(qy), np.sin(qy)
    out = np.empty(qx.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = ex * cy
    out[..., 0, 1] = -np.conj(ex) * sy
    out[..., 1, 0] = ex * sy
    out[..., 1, 1] = np.conj(ex) * cy
    return out


def mode_w1_entries(qx, qy) -> np.ndarray:
    """The first-order one-mode operator, each entry written out from the
    closed-form amplitudes Abar, Bbar times exp(+-i pi/4) / sqrt(2)."""
    qx, qy = np.broadcast_arrays(np.asarray(qx, float), np.asarray(qy, float))
    a_re, a_im, b_re, b_im = _amplitude_parts(qx, qy)
    a = (0.5 + 0.5j) * (a_re + 1j * a_im)
    b = (0.5 - 0.5j) * (b_re + 1j * b_im)
    ex = np.exp(1j * qx)
    out = np.empty(qx.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = ex * a
    out[..., 0, 1] = -np.conj(ex) * b
    out[..., 1, 0] = ex * np.conj(b)
    out[..., 1, 1] = np.conj(ex) * np.conj(a)
    return out


def hamiltonian_entries(data, c11, c12, c21, c22, mass_like, epsilon):
    """H Psi of the continuum generator with every entry of B^k written out,
    each spinor component and each cosine field differentiated on its own."""
    def d(values, axis):
        if np.ndim(values) == 0:   # a uniform cosine
            return 0.0
        n = values.shape[axis]
        k = 2.0 * np.pi * np.fft.fftfreq(n) * (2.0 / epsilon)
        k = k[:, None] if axis == 0 else k[None, :]
        return np.fft.ifft(1j * k * np.fft.fft(values, axis=axis), axis=axis)

    f0, f1 = data
    d0_x, d1_x, d0_y, d1_y = d(f0, 0), d(f1, 0), d(f0, 1), d(f1, 1)
    out0 = -1j * (-c11 * d0_x - 1j * c12 * d1_x - c21 * d0_y - 1j * c22 * d1_y)
    out1 = -1j * (1j * c12 * d0_x + c11 * d1_x + 1j * c22 * d0_y + c21 * d1_y)
    dx_c11, dx_c12, dy_c21, dy_c22 = d(c11, 0), d(c12, 0), d(c21, 1), d(c22, 1)
    out0 += -0.5j * ((-dx_c11 - dy_c21) * f0 + (-1j * dx_c12 - 1j * dy_c22) * f1)
    out1 += -0.5j * ((1j * dx_c12 + 1j * dy_c22) * f0 + (dx_c11 + dy_c21) * f1)
    return np.stack((out0 + mass_like * f1, out1 + mass_like * f0))
