"""The calibration loop does not depend on the code measured before it."""

import statistics

import numpy as np
import pytest

from perfbench.calibrate import calibrated, calibration_loop


def test_loop_time_does_not_depend_on_the_previous_working_set():
    # Synthetic units that sweep 1 MB and 64 MB, alternated so both see the
    # same host drift; the loop timed after each must read the same.
    units = {mb: np.ones(mb * (1 << 20) // 8) for mb in (1, 64)}
    after = {mb: [] for mb in units}
    for _ in range(40):
        for mb, buf in units.items():
            np.add(buf, 1.0, out=buf)
            after[mb].append(calibration_loop())
    ratio = statistics.median(after[64]) / statistics.median(after[1])
    assert abs(ratio - 1.0) < 0.05, ratio


def test_calibrated_rescales_to_the_nominal_loop_time():
    assert calibrated(0.1, 0.008) == pytest.approx(0.05)
