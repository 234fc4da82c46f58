"""
Polarized light transport tensors.

Mueller/Stokes primitives, dense space-time-polarization transport
tensors with probing, a rotating-element ellipsometry pipeline with
gradient-learned angle schedules, Lu-Chipman style polar decomposition,
and PCA/descattering analysis, plus a batch CLI and a binary tensor
container (PLTT v1).
"""

import os

# Documented override: PLTT_NUM_THREADS caps BLAS thread pools. Must be
# applied before numpy loads, hence here at package import.
_threads = os.environ.get("PLTT_NUM_THREADS", "")
if _threads.isdigit() and int(_threads) > 0:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .polarization import (
    apply_mueller,
    beamsplitter,
    compose,
    degree_of_polarization,
    galvo_mirror,
    ideal_mirror,
    is_passive,
    is_valid_stokes,
    linear_polarizer,
    quarter_wave_plate,
    retarder,
    reverse_pass,
    rotate_element,
    rotation_mueller,
    rotator,
)
from .tensor import (
    DetectedTensor,
    IlluminationTensor,
    ProbeMask,
    TransportTensor,
    contract,
    convolve_time,
    epipolar_masks,
    probe,
    slice_polarimetric,
    slice_spatial,
    slice_temporal,
)
from .fileio import read_pltt, write_csv_grid, write_pgm, write_pltt
from .scene import (
    SPEED_OF_LIGHT,
    BounceChain,
    ScatterVolume,
    SceneSpec,
    Surface,
    SyntheticMuellerEnsemble,
    build_transport,
    diffuse_depolarizer,
    fresnel_mueller,
    generate_ensemble,
    load_scene,
    material_mueller,
    parse_scene,
)
from .ellipsometry import (
    AngleSchedule,
    DesignMatrix,
    ForwardModel,
    MeasurementSet,
    ReconstructionResult,
    capture,
    design_matrix,
    drr_schedule,
    forward_model,
    load_schedule,
    pinv_truncated,
    reconstruct,
    save_schedule,
)
from .learning import (
    LearnedSchedule,
    TrainingConfig,
    cross_validate,
    default_trainable,
    evaluate,
    expected_noise_floor,
    grad_loss,
    learn,
    loss,
)
from .decomposition import (
    DecompositionResult,
    TensorDecomposition,
    decompose_tensor,
    diattenuation,
    lit_blocks,
    noise_floor,
    polar_decompose,
    polarizance,
    retardance,
)
from .analysis import (
    DescatterModel,
    ObservationMatrix,
    PrincipalBasis,
    apply_descatter,
    arctan_map,
    arctan_unmap,
    build_observation,
    fit_descatter,
    pca,
    pca_project,
    pca_reconstruct,
    summed_polarimetric_image,
)
