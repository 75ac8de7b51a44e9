"""Warp-forcing deformations of near-hyperbolic metrics on chart grids."""

from warpforce.model import (
    C2Norm,
    CertificationError,
    ChartModel,
    Domain,
    DomainError,
    Field,
    GenerationError,
    GridSpec,
    Jet,
    RadialMetric,
    WarpforceError,
    ball_domain,
    c2_norm,
    difference,
    dump_grid_csv,
    hyperbolic_model,
    interval_domain,
    is_eps_close,
    metric_deviation,
    polynomial_scalar,
    profile_scalar,
    validate_metric,
)

from warpforce.warpcore import (
    BumpFunction,
    ShiftedProfile,
    WarpFunction,
    apply_warp,
    blend,
    radial_slice,
    sinh_warped_cut,
    warp_force,
    warped_extension,
)

from warpforce.manifold import (
    CenteredManifold,
    RadialChart,
    closeness_at,
    manifold_from_config,
    perturbed_hyperbolic,
    pullback,
    punctured_hyperbolic,
    radial_chart,
    radial_closeness,
)

from warpforce.verify import (
    BoundReport,
    TheoremConfig,
    TheoremInstance,
    available_checks,
    check_lemma_1_1,
    check_lemma_2_1,
    check_lemma_2_2,
    check_lemma_2_3,
    check_lemma_3_1,
    check_lemma_3_2,
    check_main_theorem,
    fd_oracle_check,
    measured_with_error,
    remark_decay,
    run_check,
    run_theorem_sweep,
)

__version__ = "0.1.0"
