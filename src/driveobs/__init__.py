"""Sensorless electric-drive observability laboratory.

Machine models, closed-form local-observability conditions with
a numeric rank-condition oracle, an open-loop extended Kalman filter,
and reproducible drive scenarios.
"""

from .params import (BrushlessSmParams, DcmParams, ImParams, WrsmParams,
                     DEFAULT_PARAMS, HESM_DEFAULT, IM_DEFAULT, IPMSM_DEFAULT,
                     PM_DCM_DEFAULT, SERIES_DCM_DEFAULT, SPMSM_DEFAULT,
                     SYRM_DEFAULT, WRSM_DEFAULT, params_from_dict,
                     params_to_dict)
from .machines import (DcMachine, InductionMachine, SingularInductanceError,
                       SynchronousMachine, make_machine, park, wrap_angle)
from .lie import (DimensionMismatchError, ObsMatrixResult,
                  machine_observability_matrix, numeric_observability_matrix)
from .observability import (DegenerateFluxError, ObservabilityReport,
                            OBS_THRESHOLD_DEFAULT, dcm_determinant,
                            flux_angular_velocity, im_condition,
                            im_determinant, im_steady_determinant,
                            observability_report, slip_frequency,
                            sm_channels, sm_condition_ratio,
                            sm_determinant, sm_observability_vector)
from .ekf import (EkfConfig, EkfDivergenceError, EkfInstance,
                  SingularInnovationError, ekf_predict, ekf_update, make_ekf)
from .rk4 import rk4_integrate, rk4_step
from .profiles import PiController, ProfileDomainError, Segment, SignalProfile
from .trace import SimTrace, violated_intervals
from .scenarios import (ImScenario, WrsmScenario, run_im_scenario,
                        run_im_truth, run_wrsm_scenario)
from .summary import summarize

__version__ = "0.1.0"
