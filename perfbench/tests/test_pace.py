import signal
import time

import pace
from pytest import approx


def test_scale_takes_the_median_sample_against_the_nominal():
    slow = [pace.NOMINAL_S * 2, pace.NOMINAL_S * 2, pace.NOMINAL_S * 100]
    assert pace.scale(3.0, slow) == approx(1.5)
    assert pace.scale(3.0, [pace.NOMINAL_S]) == approx(3.0)


def test_scaled_leaves_out_the_time_spent_sampling():
    sampler = pace.Pace()
    sampler.samples = [pace.NOMINAL_S / 2]
    sampler.spent = 0.5
    assert sampler.scaled(1.5) == approx(2.0)


def test_pace_samples_during_the_region_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Pace(interval=0.005) as sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) > 2
    assert sampler.spent == approx(sum(sampler.samples[1:]))  # the first sample comes before the region
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
