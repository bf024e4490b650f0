"""NESTED-scheme pixelization and RING <-> NESTED conversions.

The NESTED scheme numbers pixels by base face and then by Morton code of
the in-face coordinates, which keeps nearby pixels nearby in index space --
the property TOAST relies on for its sub-map distribution.
"""

from __future__ import annotations

import numpy as np

from .bits import nest2xyf, xyf2nest
from .core import JPLL, JRLL, check_nside, isqrt, ncap, npix, nside2order
from .ring import _zphi

_TWOTHIRD = 2.0 / 3.0
_HALFPI = 0.5 * np.pi


def _ang2xyf(nside: int, theta: np.ndarray, phi: np.ndarray):
    """Angles to in-face coordinates ``(ix, iy, face)``."""
    z, tt = _zphi(theta, phi)
    if z.shape != tt.shape:
        z, tt = np.broadcast_arrays(z, tt)
    za = np.abs(z)

    ix = np.empty(z.shape, dtype=np.int64)
    iy = np.empty(z.shape, dtype=np.int64)
    face = np.empty(z.shape, dtype=np.int64)

    order = nside2order(nside)

    eq = za <= _TWOTHIRD
    if eq.any():
        zeq = z[eq]
        tteq = tt[eq]
        temp1 = nside * (0.5 + tteq)
        temp2 = nside * (zeq * 0.75)
        jp = (temp1 - temp2).astype(np.int64)
        jm = (temp1 + temp2).astype(np.int64)
        ifp = jp >> order
        ifm = jm >> order
        ifp3 = ifp & 3
        f = np.where(ifp == ifm, ifp3 + 4, np.where(ifp < ifm, ifp3, (ifm & 3) + 8))
        face[eq] = f
        ix[eq] = jm & (nside - 1)
        iy[eq] = (nside - 1) - (jp & (nside - 1))

    pol = ~eq
    if pol.any():
        zp = z[pol]
        ttp = tt[pol]
        zap = za[pol]
        ntt = np.minimum(ttp.astype(np.int64), 3)
        tp = ttp - ntt
        tmp = nside * np.sqrt(3.0 * (1.0 - zap))
        jp = (tp * tmp).astype(np.int64)
        jm = ((1.0 - tp) * tmp).astype(np.int64)
        jp = np.minimum(jp, nside - 1)  # rounding guard at the cap edge
        jm = np.minimum(jm, nside - 1)
        north = zp >= 0
        face[pol] = np.where(north, ntt, ntt + 8)
        ix[pol] = np.where(north, nside - 1 - jm, jp)
        iy[pol] = np.where(north, nside - 1 - jp, jm)

    return ix, iy, face


def ang2pix_nest(nside: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Map colatitude/longitude to NESTED pixel indices."""
    nside = check_nside(nside)
    order = nside2order(nside)
    ix, iy, face = _ang2xyf(nside, theta, phi)
    return xyf2nest(ix, iy, face, order)


def _xyf2ang(nside: int, ix: np.ndarray, iy: np.ndarray, face: np.ndarray):
    """In-face coordinates to pixel-center ``(theta, phi)``."""
    npix_ = npix(nside)
    fact2 = 4.0 / npix_
    fact1 = (nside << 1) * fact2

    jr = JRLL[face] * nside - ix - iy - 1  # global ring index, 1..4*nside-1

    z = np.empty(jr.shape, dtype=np.float64)
    nr = np.empty(jr.shape, dtype=np.int64)
    kshift = np.zeros(jr.shape, dtype=np.int64)

    north = jr < nside
    south = jr > 3 * nside
    belt = ~(north | south)

    nr[north] = jr[north]
    z[north] = 1.0 - (nr[north] * nr[north]) * fact2
    nr[south] = 4 * nside - jr[south]
    z[south] = (nr[south] * nr[south]) * fact2 - 1.0
    nr[belt] = nside
    z[belt] = (2 * nside - jr[belt]) * fact1
    kshift[belt] = (jr[belt] - nside) & 1

    jp = (JPLL[face] * nr + ix - iy + 1 + kshift) >> 1
    jp = np.where(jp > 4 * nr, jp - 4 * nr, jp)
    jp = np.where(jp < 1, jp + 4 * nr, jp)
    phi = (jp - (kshift + 1) * 0.5) * (_HALFPI / nr)
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    return theta, phi


def pix2ang_nest(nside: int, pix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map NESTED pixel indices to pixel-center ``(theta, phi)``."""
    nside = check_nside(nside)
    pix = np.asarray(pix, dtype=np.int64)
    if np.any(pix < 0) or np.any(pix >= npix(nside)):
        raise ValueError(f"pixel index out of range for nside={nside}")
    order = nside2order(nside)
    ix, iy, face = nest2xyf(pix, order)
    return _xyf2ang(nside, ix, iy, face)


def _xyf2ring(nside: int, ix: np.ndarray, iy: np.ndarray, face: np.ndarray) -> np.ndarray:
    """In-face coordinates to RING index."""
    ncap_ = ncap(nside)
    npix_ = npix(nside)
    jr = JRLL[face] * nside - ix - iy - 1

    nr = np.empty(jr.shape, dtype=np.int64)
    kshift = np.zeros(jr.shape, dtype=np.int64)
    n_before = np.empty(jr.shape, dtype=np.int64)

    north = jr < nside
    south = jr > 3 * nside
    belt = ~(north | south)

    nr[north] = jr[north]
    n_before[north] = 2 * nr[north] * (nr[north] - 1)
    nr[south] = 4 * nside - jr[south]
    n_before[south] = npix_ - 2 * (nr[south] + 1) * nr[south]
    nr[belt] = nside
    n_before[belt] = ncap_ + (jr[belt] - nside) * 4 * nside
    kshift[belt] = (jr[belt] - nside) & 1

    jp = (JPLL[face] * nr + ix - iy + 1 + kshift) >> 1
    jp = np.where(jp > 4 * nr, jp - 4 * nr, jp)
    jp = np.where(jp < 1, jp + 4 * nr, jp)
    return n_before + jp - 1


def _ring2xyf(nside: int, pix: np.ndarray):
    """RING index to in-face coordinates ``(ix, iy, face)``."""
    ncap_ = ncap(nside)
    npix_ = npix(nside)
    order = nside2order(nside)

    iring = np.empty(pix.shape, dtype=np.int64)
    iphi = np.empty(pix.shape, dtype=np.int64)
    kshift = np.zeros(pix.shape, dtype=np.int64)
    nr = np.empty(pix.shape, dtype=np.int64)
    face = np.empty(pix.shape, dtype=np.int64)

    north = pix < ncap_
    if np.any(north):
        p = pix[north]
        ring = (1 + isqrt(1 + 2 * p)) >> 1
        phi_idx = (p + 1) - 2 * ring * (ring - 1)
        iring[north] = ring
        iphi[north] = phi_idx
        nr[north] = ring
        face[north] = (phi_idx - 1) // ring

    belt = (pix >= ncap_) & (pix < npix_ - ncap_)
    if np.any(belt):
        ip = pix[belt] - ncap_
        tmp = ip >> (order + 2)
        ring = tmp + nside
        phi_idx = ip - tmp * 4 * nside + 1
        iring[belt] = ring
        iphi[belt] = phi_idx
        kshift[belt] = (ring + nside) & 1
        nr[belt] = nside
        ire = ring - nside + 1
        irm = 2 * nside + 2 - ire
        ifm = (phi_idx - ire // 2 + nside - 1) >> order
        ifp = (phi_idx - irm // 2 + nside - 1) >> order
        face[belt] = np.where(
            ifp == ifm,
            ifp | 4,
            np.where(ifp < ifm, ifp, ifm + 8),
        )

    south = pix >= npix_ - ncap_
    if np.any(south):
        ip = npix_ - pix[south]
        ring = (1 + isqrt(2 * ip - 1)) >> 1
        phi_idx = 4 * ring + 1 - (ip - 2 * ring * (ring - 1))
        iphi[south] = phi_idx
        nr[south] = ring
        face[south] = 8 + (phi_idx - 1) // ring
        iring[south] = 4 * nside - ring  # global ring index from the north

    irt = iring - JRLL[face] * nside + 1
    ipt = 2 * iphi - JPLL[face] * nr - kshift - 1
    ipt = np.where(ipt >= 2 * nside, ipt - 8 * nside, ipt)
    ix = (ipt - irt) >> 1
    iy = (-ipt - irt) >> 1
    return ix, iy, face


def nest2ring(nside: int, pix: np.ndarray) -> np.ndarray:
    """Convert NESTED pixel indices to RING."""
    nside = check_nside(nside)
    pix = np.asarray(pix, dtype=np.int64)
    if np.any(pix < 0) or np.any(pix >= npix(nside)):
        raise ValueError(f"pixel index out of range for nside={nside}")
    order = nside2order(nside)
    ix, iy, face = nest2xyf(pix, order)
    return _xyf2ring(nside, ix, iy, face)


def ring2nest(nside: int, pix: np.ndarray) -> np.ndarray:
    """Convert RING pixel indices to NESTED."""
    nside = check_nside(nside)
    pix = np.asarray(pix, dtype=np.int64)
    if np.any(pix < 0) or np.any(pix >= npix(nside)):
        raise ValueError(f"pixel index out of range for nside={nside}")
    order = nside2order(nside)
    ix, iy, face = _ring2xyf(nside, pix)
    return xyf2nest(ix, iy, face, order)
