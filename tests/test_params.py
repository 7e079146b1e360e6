"""Parameter records: derived constants, invariants, serialization."""

import pytest

from driveobs.params import (BrushlessSmParams, DcmParams, ImParams,
                             WrsmParams, IM_DEFAULT, WRSM_DEFAULT,
                             params_from_dict, params_to_dict)


def test_wrsm_derived_constants():
    p = WRSM_DEFAULT
    assert p.L_d == pytest.approx(0.8e-3)
    assert p.L_q == pytest.approx(0.7e-3)
    assert p.L_delta == pytest.approx(1e-4)
    assert p.field_coupling == pytest.approx(5.7e-3**2 / 0.85)
    # the leakage factors of the literature: sigma_d, sigma_delta
    assert 1 - p.field_coupling / p.L_d == pytest.approx(
        1 - 5.7e-3**2 / (0.8e-3 * 0.85))
    assert 0.61 < 1 - p.field_coupling / p.L_delta < 0.625


def test_im_derived_constants():
    p = IM_DEFAULT
    assert p.k_r == pytest.approx(9.395e-5 / 1.033e-4)
    assert p.k_s == pytest.approx(9.395e-5 / 9.865e-5)
    assert p.tau_r == pytest.approx(1.033e-4 / 1.5e-3)
    assert p.sigma == pytest.approx(1 - p.k_r * p.k_s)
    assert p.L_sigma == pytest.approx(p.sigma * 9.865e-5)
    assert p.R_sigma == pytest.approx(2.8e-3 + p.k_r**2 * 1.5e-3)
    assert p.a == pytest.approx(-p.R_sigma / p.L_sigma)
    assert p.b == pytest.approx(-2.8e-3 / p.L_sigma)
    assert p.c == pytest.approx(16 / p.L_sigma)
    assert 0 < p.sigma < 1


def test_wrsm_rejects_reversed_saliency():
    with pytest.raises(ValueError, match="L_d >= L_q"):
        WrsmParams(R_s=0.01, R_f=6.5, L_0=0.75e-3, L_2=-0.05e-3,
                   M_f=5.7e-3, L_f=0.85, J=1e-2, p=2)


def test_wrsm_rejects_indefinite_inductance():
    # huge mutual coupling makes the inductance matrix lose definiteness
    with pytest.raises(ValueError, match="positive definite"):
        WrsmParams(R_s=0.01, R_f=6.5, L_0=0.75e-3, L_2=0.05e-3,
                   M_f=0.1, L_f=0.85, J=1e-2, p=2)


def test_brushless_kind_invariants():
    with pytest.raises(ValueError, match="SPMSM"):
        BrushlessSmParams(kind="spmsm", R_s=0.01, L_d=0.8e-3, L_q=0.7e-3,
                          psi_r=0.1, J=1e-2, p=2)
    with pytest.raises(ValueError, match="SyRM"):
        BrushlessSmParams(kind="syrm", R_s=0.01, L_d=0.8e-3, L_q=0.4e-3,
                          psi_r=0.1, J=1e-2, p=2)
    with pytest.raises(ValueError, match="IPMSM"):
        BrushlessSmParams(kind="ipmsm", R_s=0.01, L_d=0.8e-3, L_q=0.8e-3,
                          psi_r=0.1, J=1e-2, p=2)
    with pytest.raises(ValueError, match="unknown"):
        BrushlessSmParams(kind="pmsm", R_s=0.01, L_d=0.8e-3, L_q=0.7e-3,
                          psi_r=0.1, J=1e-2, p=2)


def test_brushless_field_coupling_zero_without_field():
    p = BrushlessSmParams(kind="ipmsm", R_s=0.01, L_d=0.8e-3, L_q=0.7e-3,
                          psi_r=0.1, J=1e-2, p=2)
    assert p.field_coupling == 0.0
    with pytest.raises(ValueError, match="positive definite"):
        BrushlessSmParams(kind="hesm", R_s=0.01, L_d=0.8e-3, L_q=0.7e-3,
                          psi_r=0.02, J=1e-2, p=2, M_f=0.1, L_f=0.85, R_f=6.5)


def test_im_rejects_bad_leakage():
    with pytest.raises(ValueError, match="sigma"):
        ImParams(R_s=1e-3, R_r=1e-3, L_s=1e-4, L_r=1e-4, M=1e-4, p=2, J=1e-2)


def test_dcm_invariants():
    with pytest.raises(ValueError, match="series"):
        DcmParams(kind="series", R_a=0.5, L_a=5e-3, K=0.05, J=1e-3, f_v=1e-4)
    with pytest.raises(ValueError):
        DcmParams(kind="pm", R_a=-1.0, L_a=5e-3, K=0.05, J=1e-3, f_v=1e-4)


def test_params_round_trip():
    for kind in ("wrsm", "ipmsm", "im", "pm_dcm", "series_dcm"):
        base = params_from_dict(kind, {})
        data = params_to_dict(base)
        again = params_from_dict(kind, data)
        assert again == base


def test_params_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown parameter"):
        params_from_dict("wrsm", {"L_dq": 1.0})
