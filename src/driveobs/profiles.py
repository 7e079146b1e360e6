"""Piecewise signal profiles and the PI current controller."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Tuple

import numpy as np


class ProfileDomainError(ValueError):
    """Requested time lies outside the profile's definition interval."""


@dataclass(frozen=True)
class Segment:
    """
    One piece of a signal profile on [t0, t1): the line from ``v0`` at t0 to
    ``v1`` at t1 plus the sinusoid ``terms`` ``(amplitude, omega, phase)``,
    evaluated at absolute time. ``t`` is a float or an array.
    """

    t0: float
    t1: float
    v0: float = 0.0
    v1: float = 0.0
    terms: Tuple[Tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if self.t1 <= self.t0:
            raise ValueError("segment needs t1 > t0")
        object.__setattr__(self, "terms",
                           tuple(tuple(map(float, trm)) for trm in self.terms))

    @classmethod
    def constant(cls, t0, t1, value):
        return cls(t0, t1, value, value)

    @classmethod
    def ramp(cls, t0, t1, v0, v1):
        return cls(t0, t1, v0, v1)

    @classmethod
    def sine(cls, t0, t1, offset, terms):
        return cls(t0, t1, offset, offset, terms)

    # the line keeps the order v0 + (v1 - v0) * frac, so a hold (v1 == v0)
    # returns v0, integrates to v0 * dt and has rate 0 bit for bit
    def _line(self, t):
        frac = (t - self.t0) / (self.t1 - self.t0)
        return self.v0 + (self.v1 - self.v0) * frac

    def value_at(self, t):
        out = self._line(t)
        for amp, omega, phase in self.terms:
            out += amp * np.sin(omega * t + phase)
        return out

    def integral_to(self, t):
        """Integral of the segment value from t0 to t (t within the segment)."""
        dt = t - self.t0
        out = 0.5 * (self.v0 + self._line(t)) * dt
        for amp, omega, phase in self.terms:
            if omega == 0.0:
                out += amp * np.sin(phase) * dt
            else:
                out += (amp / omega) * (np.cos(omega * self.t0 + phase)
                                        - np.cos(omega * t + phase))
        return out

    def derivative_at(self, t):
        out = (self.v1 - self.v0) / (self.t1 - self.t0)
        for amp, omega, phase in self.terms:
            out += amp * omega * np.cos(omega * t + phase)
        return out


@dataclass(frozen=True)
class SignalProfile:
    """Contiguous, non-overlapping piecewise signal on [start, end]."""

    segments: Tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("profile needs at least one segment")
        for a, b in zip(segs, segs[1:]):
            if abs(b.t0 - a.t1) > 1e-12:
                raise ValueError("segments must be contiguous")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_starts", tuple(s.t0 for s in segs))
        # cumulative integral at each segment start; the last segment's end
        # is never looked up and may be infinite
        cum = [0.0]
        for s in segs[:-1]:
            cum.append(cum[-1] + s.integral_to(s.t1))
        object.__setattr__(self, "_cum", tuple(cum))

    @property
    def start(self) -> float:
        return self.segments[0].t0

    @property
    def end(self) -> float:
        return self.segments[-1].t1

    def _segment_index(self, t: float) -> int:
        if not self.start - 1e-12 <= t <= self.end + 1e-12:
            raise ProfileDomainError(
                f"t = {t:g} outside profile domain [{self.start:g}, {self.end:g}]")
        i = bisect_right(self._starts, t) - 1
        return min(max(i, 0), len(self.segments) - 1)

    def value(self, t: float) -> float:
        return self.segments[self._segment_index(t)].value_at(t)

    def integral(self, t: float) -> float:
        """Integral of the signal from the profile start to t."""
        i = self._segment_index(t)
        return self._cum[i] + self.segments[i].integral_to(t)

    def derivative(self, t: float) -> float:
        """Piecewise signal rate (one-sided at segment joins)."""
        return self.segments[self._segment_index(t)].derivative_at(t)

    def sample(self, t: np.ndarray):
        """``(value, integral, derivative)`` at each time of an array, equal
        to the scalar methods at each time."""
        t = np.asarray(t, float)
        if t.size:    # the domain check of the scalar lookups
            self._segment_index(t.min()), self._segment_index(t.max())
        seg = np.searchsorted(self._starts, t, side="right") - 1
        seg = np.clip(seg, 0, len(self.segments) - 1)
        value, integral, rate = (np.empty_like(t) for _ in range(3))
        for i in set(seg.tolist()):    # np.unique would import numpy.ma
            at = seg == i
            ts, s = t[at], self.segments[i]
            value[at] = s.value_at(ts)
            integral[at] = self._cum[i] + s.integral_to(ts)
            rate[at] = s.derivative_at(ts)
        return value, integral, rate

    @classmethod
    def constant(cls, t0, t1, value) -> "SignalProfile":
        return cls((Segment.constant(t0, t1, value),))


class PiController:
    """PI regulator with output saturation and integrator-freeze anti-windup."""

    def __init__(self, k_p: float, k_i: float, out_min: float = -math.inf,
                 out_max: float = math.inf, integral: float = 0.0):
        if out_min >= out_max:
            raise ValueError("out_min must be below out_max")
        self.k_p = k_p
        self.k_i = k_i
        self.out_min = out_min
        self.out_max = out_max
        self.integral = integral
        self.saturated = False

    def update(self, error: float, dt: float) -> float:
        raw = self.k_p * error + self.integral
        if raw > self.out_max:
            self.saturated = True
            return self.out_max
        if raw < self.out_min:
            self.saturated = True
            return self.out_min
        self.saturated = False
        self.integral += self.k_i * error * dt
        return raw
