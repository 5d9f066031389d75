"""Subspace metrics, spectral perturbation bounds, and graph null-space analysis."""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundEntry,
    BoundReport,
    BoundTable,
    IndexPartition,
    KappaPolicy,
    PerturbationContext,
    bound_davis_kahan,
    bound_full_main,
    bound_simplified,
    bound_tilde_free,
    dsp_between,
    evaluate_bounds,
    hat_partition,
    search_closest_invariant,
)
from .errors import SpecboundError
from .experiments import (
    ExperimentConfig,
    add_intercluster_edges,
    audit_random_matrices,
    reproduce_pipeline,
    synth_clustered_graph,
)
from .graphs import (
    GraphPerturbation,
    GraphReport,
    QCut,
    WeightedGraph,
    align_basis,
    best_q_cut,
    components,
    coupling,
    coupling_sandwich,
    external_degree,
    graph_report,
    laplacian,
    laplacian_diff_bound_check,
    max_external_degree,
    null_basis,
    nullspace_bound_known_base,
    nullspace_bound_known_perturbed,
    residual_identity_check,
)
from .setdist import (
    PointMultiset,
    SetPartitionResult,
    diam,
    hausdorff,
    sep,
    sep_preserving_check,
    sep_preserving_partition,
)
from .spectral import (
    NormalEigenSystem,
    bauer_fike_gap,
    coupling_matrix,
    decompose_normal,
    residual_norms,
)
from .subspace import (
    IndicatorFrame,
    OrthonormalFrame,
    complement_frame,
    dsp_complement,
    dsp_overlap,
    dsp_projector,
    dsp_residual,
    orthonormalize,
)

__version__ = "0.1.0"

# Every public name imported above.
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _ModuleType)))
