"""RING-scheme pixelization: angle <-> pixel index.

Pixels are numbered along iso-latitude rings from north to south; the two
polar caps have rings of ``4*i`` pixels (ring index ``i``), the equatorial
belt rings of ``4*nside`` pixels.  All routines follow the reference
``healpix_base`` algorithms and are fully vectorized.
"""

from __future__ import annotations

import numpy as np

from .core import check_nside, isqrt, ncap, npix

_TWOTHIRD = 2.0 / 3.0
_HALFPI = 0.5 * np.pi
_INV_HALFPI = 2.0 / np.pi


def _mod4(x: np.ndarray) -> np.ndarray:
    """``np.mod(x, 4.0)``, bit for bit, at a fraction of its cost.

    NumPy's own rule (``npy_divmod``): the ``fmod`` remainder, plus 4.0
    where it is negative; ``+ 0.0`` turns ``fmod``'s -0.0 into +0.0.
    """
    r = np.fmod(x, 4.0)
    return np.where(r < 0.0, r + 4.0, r) + 0.0


def _zphi(theta: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize angles: return ``(z, tt)`` with ``tt = phi/(pi/2) in [0,4)``."""
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if np.any(theta < 0.0) or np.any(theta > np.pi):
        raise ValueError("theta must lie in [0, pi]")
    z = np.cos(theta)
    tt = _mod4(phi * _INV_HALFPI)
    # The mod of a tiny negative value can round up to exactly 4.0; the
    # algorithms below require tt strictly inside [0, 4).
    tt = np.where(tt >= 4.0, 0.0, tt)
    return z, tt


def ang2pix_ring(nside: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Map colatitude/longitude to RING pixel indices.

    Parameters
    ----------
    nside:
        Resolution (power of two).
    theta:
        Colatitude in radians, ``[0, pi]``.
    phi:
        Longitude in radians (any value; reduced mod 2*pi).
    """
    nside = check_nside(nside)
    z, tt = _zphi(theta, phi)
    z, tt = np.broadcast_arrays(z, tt)
    za = np.abs(z)
    ncap_ = ncap(nside)
    npix_ = npix(nside)
    pix = np.empty(z.shape, dtype=np.int64)

    # Equatorial belt: |z| <= 2/3.
    eq = za <= _TWOTHIRD
    if np.any(eq):
        zeq = z[eq]
        tteq = tt[eq]
        temp1 = nside * (0.5 + tteq)
        temp2 = nside * (zeq * 0.75)
        jp = (temp1 - temp2).astype(np.int64)  # ascending edge line index
        jm = (temp1 + temp2).astype(np.int64)  # descending edge line index
        ir = nside + 1 + jp - jm  # ring number counted from z = 2/3
        kshift = 1 - (ir & 1)  # 1 when ir is even
        ip = (jp + jm - nside + kshift + 1) >> 1
        ip = np.mod(ip, 4 * nside)
        pix[eq] = ncap_ + (ir - 1) * 4 * nside + ip

    # Polar caps.
    pol = ~eq
    if np.any(pol):
        zp = z[pol]
        ttp = tt[pol]
        zap = za[pol]
        tp = ttp - np.floor(ttp)
        tmp = nside * np.sqrt(3.0 * (1.0 - zap))
        jp = (tp * tmp).astype(np.int64)
        jm = ((1.0 - tp) * tmp).astype(np.int64)
        ir = jp + jm + 1  # ring number counted from the closest pole
        ip = (ttp * ir).astype(np.int64)
        ip = np.mod(ip, 4 * ir)
        north = zp > 0
        ppix = np.where(
            north,
            2 * ir * (ir - 1) + ip,
            npix_ - 2 * ir * (ir + 1) + ip,
        )
        pix[pol] = ppix

    return pix


def pix2ang_ring(nside: int, pix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map RING pixel indices to pixel-center ``(theta, phi)``."""
    nside = check_nside(nside)
    pix = np.asarray(pix, dtype=np.int64)
    npix_ = npix(nside)
    if np.any(pix < 0) or np.any(pix >= npix_):
        raise ValueError(f"pixel index out of range for nside={nside}")
    ncap_ = ncap(nside)
    fact2 = 4.0 / npix_
    fact1 = (nside << 1) * fact2

    z = np.empty(pix.shape, dtype=np.float64)
    phi = np.empty(pix.shape, dtype=np.float64)

    north = pix < ncap_
    if np.any(north):
        p = pix[north]
        iring = (1 + isqrt(1 + 2 * p)) >> 1
        iphi = (p + 1) - 2 * iring * (iring - 1)
        z[north] = 1.0 - (iring * iring) * fact2
        phi[north] = (iphi - 0.5) * _HALFPI / iring

    equat = (pix >= ncap_) & (pix < npix_ - ncap_)
    if np.any(equat):
        ip = pix[equat] - ncap_
        iring = ip // (4 * nside) + nside
        iphi = np.mod(ip, 4 * nside) + 1
        # Odd/even rings are shifted by half a pixel in phi.
        fodd = 0.5 * (1 + ((iring + nside) & 1))
        z[equat] = (2 * nside - iring) * fact1
        phi[equat] = (iphi - fodd) * _HALFPI / nside

    south = pix >= npix_ - ncap_
    if np.any(south):
        ip = npix_ - pix[south]
        iring = (1 + isqrt(2 * ip - 1)) >> 1
        iphi = 4 * iring + 1 - (ip - 2 * iring * (iring - 1))
        z[south] = -1.0 + (iring * iring) * fact2
        phi[south] = (iphi - 0.5) * _HALFPI / iring

    theta = np.arccos(np.clip(z, -1.0, 1.0))
    return theta, phi
