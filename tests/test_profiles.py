"""Signal profiles and the PI controller."""

import math

import numpy as np
import pytest

from driveobs.profiles import (PiController, ProfileDomainError, Segment,
                               SignalProfile)

HF = 2 * math.pi * 1e3
RNG_T = np.random.default_rng(5)


def demo_profile():
    return SignalProfile((
        Segment.constant(0.0, 1.0, 4.0),
        Segment.sine(1.0, 1.5, 4.0, ((0.5, HF, 0.0),)),
        Segment.ramp(1.5, 2.5, 0.0, 100.0),
    ))


def test_constant_segment_value():
    prof = demo_profile()
    assert prof.value(0.5) == 4.0


def test_sine_offset_at_zero():
    prof = SignalProfile((Segment.sine(0.0, 1.0, 4.0, ((0.5, HF, 0.0),)),))
    assert prof.value(0.0) == pytest.approx(4.0)


def test_ramp_midpoint():
    prof = demo_profile()
    assert prof.value(2.0) == pytest.approx(50.0)


def test_out_of_domain():
    prof = demo_profile()
    with pytest.raises(ProfileDomainError):
        prof.value(-0.5)
    with pytest.raises(ProfileDomainError):
        prof.value(3.0)


def test_segments_must_be_contiguous():
    with pytest.raises(ValueError, match="contiguous"):
        SignalProfile((Segment.constant(0.0, 1.0, 1.0),
                       Segment.constant(1.5, 2.0, 2.0)))
    with pytest.raises(ValueError, match="t1 > t0"):
        Segment.constant(1.0, 1.0, 5.0)


def test_integral_matches_quadrature():
    # trapezoid noise on the 1 kHz sine limits the oracle to ~1e-5
    prof = demo_profile()
    for t in (0.7, 1.2, 1.5, 2.2, 2.5):
        ts = np.linspace(0.0, t, 400001)
        vals = np.array([prof.value(float(x)) for x in ts])
        quad = np.trapezoid(vals, ts)
        assert prof.integral(t) == pytest.approx(quad, rel=1e-6, abs=5e-5)


def test_integral_derivative_is_value():
    # fundamental-theorem oracle, exact where quadrature is noisy
    prof = demo_profile()
    h = 1e-8
    for t in np.linspace(0.01, 2.49, 97):
        fd = (prof.integral(t + h) - prof.integral(t - h)) / (2 * h)
        assert fd == pytest.approx(prof.value(t), rel=1e-5, abs=1e-5)


def test_derivative_matches_finite_difference():
    prof = demo_profile()
    h = 1e-7
    for t in (0.4, 1.2, 2.0):
        fd = (prof.value(t + h) - prof.value(t - h)) / (2 * h)
        assert prof.derivative(t) == pytest.approx(fd, rel=1e-5, abs=1e-4)


def test_profile_evaluates_monotone_and_bisect_identically():
    prof = demo_profile()
    ts = np.sort(np.random.default_rng(0).uniform(0.0, 2.5, 300))
    vals = [prof.value(float(t)) for t in ts]
    assert all(np.isfinite(vals))


def test_sample_equals_scalar_methods_bit_for_bit():
    # every kind, a zero-frequency sine term, the joins and the end (with
    # the domain tolerance), random times and a fine regular grid
    prof = SignalProfile((
        Segment.constant(0.0, 1.0, 4.0),
        Segment.sine(1.0, 1.5, 4.0, ((0.5, HF, 0.3), (0.2, 0.0, 1.0))),
        Segment.ramp(1.5, 2.5, 0.0, 100.0),
        Segment.constant(2.5, 3.0, -2.0),
    ))
    joins = [s.t0 for s in prof.segments] + [prof.end, prof.end + 5e-13]
    t = np.concatenate([joins, RNG_T.uniform(0.0, 3.0, 2000),
                        np.arange(300_001) * 1e-5])
    for got, scalar in zip(prof.sample(t), (prof.value, prof.integral,
                                            prof.derivative)):
        assert np.array_equal(got, [scalar(x) for x in t.tolist()])


@pytest.mark.parametrize("t", [[-0.5, 1.0], [1.0, 2.5 + 1e-9],
                               [1.0, math.nan]])
def test_sample_out_of_domain(t):
    with pytest.raises(ProfileDomainError):
        demo_profile().sample(np.array(t))


def test_pi_tracks_and_freezes_when_saturated():
    pi = PiController(k_p=2.0, k_i=100.0, out_min=-1.0, out_max=1.0)
    out = pi.update(10.0, 1e-3)            # strongly positive error
    assert out == 1.0 and pi.saturated
    frozen = pi.integral
    pi.update(10.0, 1e-3)
    assert pi.integral == frozen           # integrator frozen at the rail
    out = pi.update(0.01, 1e-3)            # back inside the range
    assert not pi.saturated
    assert pi.integral != frozen


def test_pi_rejects_bad_limits():
    with pytest.raises(ValueError):
        PiController(1.0, 1.0, out_min=1.0, out_max=-1.0)


def test_pi_regulates_first_order_plant():
    # current loop on an R-L plant, pole placement at the design bandwidth
    R, L, bw = 0.01, 0.8e-3, 500.0
    pi = PiController(k_p=bw * L, k_i=bw * R)
    dt = 1e-5
    i, ref = 0.0, 10.0
    for _ in range(int(0.05 / dt)):        # 25 loop time constants
        v = pi.update(ref - i, dt)
        i += dt * (v - R * i) / L
    assert i == pytest.approx(ref, rel=0.02)
