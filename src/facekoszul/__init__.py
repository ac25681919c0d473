"""Exact invariants of weight polytopes and graded module categories for g ltimes V."""

from .characters import (
    Character,
    ModuleSpec,
    adams,
    decompose,
    exterior_power,
    irr_character,
    module_character,
    mult_in,
    mult_in_alternating,
    symmetric_power,
    tensor,
)
from .facegeom import (
    FaceSubset,
    RigidityVerdict,
    WeightSystem,
    enumerate_face_subsets,
    is_rigid_bruteforce,
    lies_on_proper_face,
    weight_system,
)
from .homdims import (
    directedness_check,
    ext_dim,
    face_algebra_dim,
    gldim,
    proj_mult,
    witness_search,
)
from .koszulcheck import (
    KoszulReport,
    KoszulVerdict,
    PolyMatrix,
    full_report,
    hilbert_projective,
    hilbert_yoneda_neg,
    verify_koszul_numerical,
)
from .rootsystem import (
    CartanDatum,
    RootSystem,
    Weight,
    build_root_system,
    datum_from_json,
    root_system,
    series_datum,
    simple_reflection,
    to_dominant_signed,
    weyl_dim,
)
from .weightposet import (
    GradedSet,
    GradedWeight,
    covers,
    face_distance,
    face_downset,
    face_graded_leq,
    face_interval,
    face_leq,
    graded_leq,
    interval_coincidence,
    is_interval_closed,
)

__version__ = "0.1.0"
