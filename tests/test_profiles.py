"""Signal profiles and the PI controller."""

import math
import warnings

import numpy as np
import pytest

from driveobs.profiles import (PiController, ProfileDomainError, Segment,
                               SignalProfile)
from driveobs.scenarios import (default_field_setpoint_profile,
                                default_im_frequency_profile,
                                default_im_load_profile,
                                default_wrsm_speed_profile)

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


def reference_segment(seg, t):
    """``(value, integral from t0, rate)`` at a float ``t`` by the separate
    formulas of a constant, a ramp and a sine segment, with math's trig."""
    dt = t - seg.t0
    if not seg.terms and seg.v0 == seg.v1:
        return seg.v0, seg.v0 * dt, 0.0
    if not seg.terms:
        v = seg.v0 + (seg.v1 - seg.v0) * ((t - seg.t0) / (seg.t1 - seg.t0))
        return (v, 0.5 * (seg.v0 + v) * dt,
                (seg.v1 - seg.v0) / (seg.t1 - seg.t0))
    value, integral, rate = seg.v0, seg.v0 * dt, 0
    for amp, omega, phase in seg.terms:
        value += amp * math.sin(omega * t + phase)
        integral += amp * math.sin(phase) * dt if omega == 0.0 else \
            (amp / omega) * (math.cos(omega * seg.t0 + phase)
                             - math.cos(omega * t + phase))
        rate += amp * omega * math.cos(omega * t + phase)
    return value, integral, rate


def reference_profile(prof, t):
    cum = 0.0
    for seg, nxt in zip(prof.segments, prof.segments[1:] + (None,)):
        if nxt is None or t < nxt.t0:
            value, integral, rate = reference_segment(seg, t)
            return value, cum + integral, rate
        cum += reference_segment(seg, seg.t1)[1]


def random_profile(rng):
    t, segs = 0.0, []
    for _ in range(int(rng.integers(1, 7))):
        t1 = t + float(rng.uniform(0.01, 2.0))
        kind = rng.integers(3)
        if kind == 0:
            segs.append(Segment.constant(t, t1, float(rng.normal(0.0, 50.0))))
        elif kind == 1:
            segs.append(Segment.ramp(t, t1, *rng.normal(0.0, 50.0, 2).tolist()))
        else:
            terms = [(float(rng.normal()),
                      float(rng.choice([0.0, rng.uniform(1.0, 1e4)])),
                      float(rng.uniform(-3.0, 3.0)))
                     for _ in range(int(rng.integers(1, 4)))]
            segs.append(Segment.sine(t, t1, float(rng.normal(0.0, 10.0)),
                                     terms))
        t = t1
    return SignalProfile(tuple(segs))


def test_segments_equal_the_per_kind_formulas_bit_for_bit():
    # the default profiles (holds to infinity) and seeded random ones, at
    # the joins and at random times, scalar and sampled
    rng = np.random.default_rng(17)
    profiles = [default_wrsm_speed_profile(), default_field_setpoint_profile(),
                default_im_frequency_profile(), default_im_load_profile()]
    profiles += [random_profile(rng) for _ in range(60)]
    for prof in profiles:
        end = min(prof.end, prof.segments[-1].t0 + 2.0)
        t = np.concatenate([[s.t0 for s in prof.segments],
                            rng.uniform(prof.start, end, 200)])
        ref = np.array([reference_profile(prof, x) for x in t.tolist()], float)
        scalar = np.array([(prof.value(x), prof.integral(x),
                            prof.derivative(x)) for x in t.tolist()], float)
        sampled = np.column_stack(prof.sample(t))
        assert np.array_equal(scalar.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(sampled.view(np.uint64), ref.view(np.uint64))


def test_profile_ending_in_a_sine_to_infinity_builds_and_samples():
    # the integral is accumulated at the segment starts only: the end of
    # the last segment is never looked up
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = SignalProfile((Segment.constant(0.0, 1.0, 4.0),
                              Segment.sine(1.0, math.inf, 4.0,
                                           ((0.5, HF, 0.0),))))
        t = np.linspace(0.0, 3.0, 3001)
        sampled = prof.sample(t)
    assert all(np.isfinite(col).all() for col in sampled)
    assert prof.integral(1.0) == 4.0


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
