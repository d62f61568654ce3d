"""The numerical gates, pinned: loosening one must show up as a diff here."""
from indexpairing.charclass import IDEMPOTENT_TOL
from indexpairing.forms import INVARIANCE_TOL
from indexpairing.operators import (
    CIRCULANT_RTOL,
    ENTRY_BOUND_MARGIN,
    NORM_POWER_STEPS,
    TRUNCATION_RTOL,
)
from indexpairing.pairing import GERM_SLACK, HERMITIAN_RTOL
from indexpairing.parametrix import (
    CUT_HERMITIAN_RTOL,
    FRAME_ORTHONORMALITY_TOL,
    MAX_PROJECTOR_STEPS,
    NEWTON_TOL,
    PROJECTOR_RESIDUAL_TOL,
    RANK_THRESHOLD,
    RANK_WINDOW,
    REACH_FLOOR,
)
from indexpairing.symbols import ELLIPTIC_FLOOR


def test_gate_constants_are_pinned():
    assert {
        "RANK_THRESHOLD": RANK_THRESHOLD,
        "RANK_WINDOW": RANK_WINDOW,
        "CUT_HERMITIAN_RTOL": CUT_HERMITIAN_RTOL,
        "PROJECTOR_RESIDUAL_TOL": PROJECTOR_RESIDUAL_TOL,
        "MAX_PROJECTOR_STEPS": MAX_PROJECTOR_STEPS,
        "NEWTON_TOL": NEWTON_TOL,
        "FRAME_ORTHONORMALITY_TOL": FRAME_ORTHONORMALITY_TOL,
        "REACH_FLOOR": REACH_FLOOR,
        "TRUNCATION_RTOL": TRUNCATION_RTOL,
        "CIRCULANT_RTOL": CIRCULANT_RTOL,
        "ENTRY_BOUND_MARGIN": ENTRY_BOUND_MARGIN,
        "HERMITIAN_RTOL": HERMITIAN_RTOL,
        "GERM_SLACK": GERM_SLACK,
        "INVARIANCE_TOL": INVARIANCE_TOL,
        "IDEMPOTENT_TOL": IDEMPOTENT_TOL,
        "ELLIPTIC_FLOOR": ELLIPTIC_FLOOR,
        "NORM_POWER_STEPS": NORM_POWER_STEPS,
    } == {
        "RANK_THRESHOLD": 1e-8,
        "RANK_WINDOW": 10.0,
        "CUT_HERMITIAN_RTOL": 1e-10,
        "PROJECTOR_RESIDUAL_TOL": 1e-14,
        "MAX_PROJECTOR_STEPS": 200,
        "NEWTON_TOL": 1e-8,
        # |Y_k^H Y_k - 1|_F of every frame held, cut or uncut: the sampled
        # Landau frames reach 7.3e-16 at flux 24, 9.1e-14 at twist 20 on grid
        # 20 and 1.1e-13 at twist 200 on grid 64; twist 40 on grid 20, which
        # the grid undersamples, 6.0e-7
        "FRAME_ORTHONORMALITY_TOL": 1e-12,
        "REACH_FLOOR": 1e-12,
        "TRUNCATION_RTOL": 1e-12,
        "CIRCULANT_RTOL": 1e-12,
        "ENTRY_BOUND_MARGIN": 1e-6,
        "HERMITIAN_RTOL": 1e-14,
        "GERM_SLACK": 1e-9,
        "INVARIANCE_TOL": 1e-8,
        "IDEMPOTENT_TOL": 1e-10,
        "ELLIPTIC_FLOOR": 1e-12,
        "NORM_POWER_STEPS": 8,
    }
