"""Machine parameter records with derived constants and validity checks."""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property


BRUSHLESS_KINDS = ("ipmsm", "spmsm", "syrm", "hesm")
SM_KINDS = ("wrsm",) + BRUSHLESS_KINDS
DCM_KINDS = ("pm", "series")


@dataclass(frozen=True)
class WrsmParams:
    """
    Wound-rotor synchronous machine parameters.

    Parameters
    ----------
    R_s : float
        Stator resistance (Ω).
    R_f : float
        Field (rotor) resistance (Ω).
    L_0 : float
        Mean stator self-inductance (H).
    L_2 : float
        Saliency inductance (H); L_d = L_0 + L_2, L_q = L_0 - L_2.
    M_f : float
        Stator-field mutual inductance (H).
    L_f : float
        Field self-inductance (H).
    J : float
        Rotor inertia (kg·m²).
    p : int
        Pole-pair count.

    The class attributes ``kind``, ``psi_r`` (no magnet) and ``has_field``
    say what a wound-rotor machine is; they are not fields.
    """

    kind = "wrsm"
    psi_r = 0.0
    has_field = True

    R_s: float
    R_f: float
    L_0: float
    L_2: float
    M_f: float
    L_f: float
    J: float
    p: int = 1

    def __post_init__(self):
        if min(self.R_s, self.R_f, self.L_f, self.J) <= 0:
            raise ValueError("R_s, R_f, L_f and J must be positive")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not self.L_d >= self.L_q > 0:
            raise ValueError("inductances must satisfy L_d >= L_q > 0")
        if not self.L_d > self.field_coupling:
            raise ValueError("inductance matrix not positive definite "
                             "(L_d <= M_f**2/L_f)")

    @cached_property
    def L_d(self) -> float:
        return self.L_0 + self.L_2

    @cached_property
    def L_q(self) -> float:
        return self.L_0 - self.L_2

    @cached_property
    def L_delta(self) -> float:
        """Saliency difference L_d - L_q = 2*L_2."""
        return self.L_d - self.L_q

    @cached_property
    def field_coupling(self) -> float:
        """Inductance M_f^2/L_f that the field winding takes off the d axis
        (H)."""
        return self.M_f**2 / self.L_f


@dataclass(frozen=True)
class BrushlessSmParams:
    """
    Brushless synchronous machine parameters (IPMSM, SPMSM, SyRM or HESM).

    Parameters
    ----------
    kind : str
        One of "ipmsm", "spmsm", "syrm", "hesm".
    R_s : float
        Stator resistance (Ω).
    L_d, L_q : float
        Direct/quadrature inductances (H).
    psi_r : float
        Permanent-magnet flux linkage (Wb). Zero for the SyRM.
    J : float
        Rotor inertia (kg·m²).
    p : int
        Pole-pair count.
    M_f, L_f, R_f : float
        Field-winding parameters, required for the HESM only.
    """

    kind: str
    R_s: float
    L_d: float
    L_q: float
    psi_r: float
    J: float
    p: int = 1
    M_f: float = 0.0
    L_f: float = 0.0
    R_f: float = 0.0

    def __post_init__(self):
        if self.kind not in BRUSHLESS_KINDS:
            raise ValueError(f"unknown brushless kind {self.kind!r}")
        if min(self.R_s, self.J) <= 0 or self.p < 1:
            raise ValueError("R_s and J must be positive, p >= 1")
        if not self.L_d >= self.L_q > 0:
            raise ValueError("inductances must satisfy L_d >= L_q > 0")
        if self.kind == "spmsm" and self.L_d != self.L_q:
            raise ValueError("SPMSM requires L_d == L_q")
        if self.kind == "syrm" and self.psi_r != 0.0:
            raise ValueError("SyRM requires psi_r == 0")
        if self.kind == "ipmsm" and (self.L_d == self.L_q or self.psi_r <= 0):
            raise ValueError("IPMSM requires L_d != L_q and psi_r > 0")
        if self.has_field:
            if min(self.M_f, self.L_f, self.R_f) <= 0:
                raise ValueError("HESM requires M_f, L_f, R_f > 0")
            if not self.L_d > self.field_coupling:
                raise ValueError("HESM inductance matrix not positive definite "
                                 "(L_d <= M_f**2/L_f)")

    @property
    def has_field(self) -> bool:
        """Whether the rotor carries a field winding (HESM only)."""
        return self.kind == "hesm"

    @cached_property
    def L_0(self) -> float:
        return 0.5 * (self.L_d + self.L_q)

    @cached_property
    def L_2(self) -> float:
        return 0.5 * (self.L_d - self.L_q)

    @cached_property
    def L_delta(self) -> float:
        return self.L_d - self.L_q

    @cached_property
    def field_coupling(self) -> float:
        """Inductance M_f^2/L_f that the field winding takes off the d axis
        (H); 0 without a field winding."""
        return self.M_f**2 / self.L_f if self.has_field else 0.0


@dataclass(frozen=True)
class ImParams:
    """
    Induction machine parameters (per-phase equivalent, stationary frame).

    Parameters
    ----------
    R_s, R_r : float
        Stator/rotor resistances (Ω).
    L_s, L_r : float
        Stator/rotor self-inductances (H).
    M : float
        Mutual inductance (H).
    p : int
        Pole-pair count.
    J : float
        Inertia of rotor plus load (kg·m²).
    f_v : float
        Viscous friction (N·m·s/rad). Carried for completeness; the model
        lumps friction into the resistant-torque state.
    """

    R_s: float
    R_r: float
    L_s: float
    L_r: float
    M: float
    p: int
    J: float
    f_v: float = 0.0

    def __post_init__(self):
        if min(self.R_s, self.R_r, self.L_s, self.L_r, self.M, self.J) <= 0:
            raise ValueError("resistances, inductances and J must be positive")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("total leakage sigma must lie in (0, 1)")

    @property
    def k_r(self) -> float:
        """Rotor coupling factor M/L_r."""
        return self.M / self.L_r

    @property
    def k_s(self) -> float:
        """Stator coupling factor M/L_s."""
        return self.M / self.L_s

    @property
    def tau_r(self) -> float:
        """Rotor time constant L_r/R_r (s)."""
        return self.L_r / self.R_r

    @property
    def sigma(self) -> float:
        """Total leakage factor 1 - k_r*k_s."""
        return 1.0 - self.k_r * self.k_s

    @property
    def L_sigma(self) -> float:
        """Transient stator inductance sigma*L_s (H)."""
        return self.sigma * self.L_s

    @property
    def R_sigma(self) -> float:
        """Transient stator resistance R_s + k_r^2*R_r (Ω)."""
        return self.R_s + self.k_r**2 * self.R_r

    @property
    def a(self) -> float:
        return -self.R_sigma / self.L_sigma

    @property
    def b(self) -> float:
        return -self.R_s / self.L_sigma

    @property
    def c(self) -> float:
        return self.p**2 / self.L_sigma


@dataclass(frozen=True)
class DcmParams:
    """
    DC machine parameters, permanent-magnet or series-excited.

    Parameters
    ----------
    kind : str
        "pm" or "series".
    R_a, L_a : float
        Armature resistance (Ω) and inductance (H).
    K : float
        Torque/EMF constant. For "pm" the back-EMF is K*Ω; for "series"
        both EMF and torque scale with the armature current (K*i_a*Ω,
        K*i_a²).
    J : float
        Inertia (kg·m²).
    f_v : float
        Viscous friction (N·m·s/rad).
    R_f, L_f : float
        Field resistance/inductance, series machine only.
    """

    kind: str
    R_a: float
    L_a: float
    K: float
    J: float
    f_v: float
    R_f: float = 0.0
    L_f: float = 0.0

    def __post_init__(self):
        if self.kind not in DCM_KINDS:
            raise ValueError(f"unknown DCM kind {self.kind!r}")
        if min(self.R_a, self.L_a, self.K, self.J, self.f_v) <= 0:
            raise ValueError("all DCM parameters must be positive")
        if self.kind == "series" and min(self.R_f, self.L_f) <= 0:
            raise ValueError("series DCM requires R_f, L_f > 0")

    @property
    def L_total(self) -> float:
        """Armature loop inductance: L_a (+ L_f when series-excited)."""
        return self.L_a + self.L_f

    @property
    def R_total(self) -> float:
        """Armature loop resistance: R_a (+ R_f when series-excited)."""
        return self.R_a + self.R_f


# Default parameter sets used by the bundled configs and the test suite.
WRSM_DEFAULT = WrsmParams(R_s=0.01, R_f=6.5, L_0=0.75e-3, L_2=0.05e-3,
                          M_f=5.7e-3, L_f=0.85, J=1e-2, p=2)

IM_DEFAULT = ImParams(R_s=2.8e-3, R_r=1.5e-3, L_s=9.865e-5, L_r=1.033e-4,
                      M=9.395e-5, p=4, J=1e-2, f_v=1e-4)

IPMSM_DEFAULT = BrushlessSmParams(kind="ipmsm", R_s=0.01, L_d=0.8e-3,
                                  L_q=0.7e-3, psi_r=0.08, J=1e-2, p=2)

SPMSM_DEFAULT = BrushlessSmParams(kind="spmsm", R_s=0.01, L_d=0.75e-3,
                                  L_q=0.75e-3, psi_r=0.08, J=1e-2, p=2)

SYRM_DEFAULT = BrushlessSmParams(kind="syrm", R_s=0.01, L_d=0.8e-3,
                                 L_q=0.4e-3, psi_r=0.0, J=1e-2, p=2)

HESM_DEFAULT = BrushlessSmParams(kind="hesm", R_s=0.01, L_d=0.8e-3,
                                 L_q=0.7e-3, psi_r=0.02, J=1e-2, p=2,
                                 M_f=5.7e-3, L_f=0.85, R_f=6.5)

PM_DCM_DEFAULT = DcmParams(kind="pm", R_a=1.0, L_a=5e-3, K=0.1, J=1e-3,
                           f_v=1e-4)

SERIES_DCM_DEFAULT = DcmParams(kind="series", R_a=0.5, L_a=5e-3, K=0.05,
                               J=1e-3, f_v=1e-4, R_f=0.5, L_f=15e-3)


DEFAULT_PARAMS = {
    "wrsm": WRSM_DEFAULT,
    "ipmsm": IPMSM_DEFAULT,
    "spmsm": SPMSM_DEFAULT,
    "syrm": SYRM_DEFAULT,
    "hesm": HESM_DEFAULT,
    "im": IM_DEFAULT,
    "pm_dcm": PM_DCM_DEFAULT,
    "series_dcm": SERIES_DCM_DEFAULT,
}

MACHINE_KINDS = tuple(DEFAULT_PARAMS)


def params_to_dict(params) -> dict:
    """Serialize a parameter record to a plain dict (JSON-ready)."""
    return {f.name: getattr(params, f.name) for f in fields(params)}


def params_from_dict(machine_kind: str, data: dict):
    """
    Build the parameter record for ``machine_kind`` from a dict.

    Missing fields fall back to the default parameter set; unknown keys and
    a ``kind`` other than the default's raise ``ValueError``.
    """
    if machine_kind not in DEFAULT_PARAMS:
        raise ValueError(f"unknown machine kind {machine_kind!r}")
    default = DEFAULT_PARAMS[machine_kind]
    base = params_to_dict(default)
    unknown = set(data) - set(base)
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    if "kind" in data and data["kind"] != base["kind"]:
        raise ValueError(f"kind must be {base['kind']!r} for {machine_kind}, "
                         f"got {data['kind']!r}")
    return type(default)(**{**base, **data})
