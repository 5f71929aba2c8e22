"""Sidon sequences over finite abelian groups and doubly periodic
distinct difference configurations, linked by folding and unfolding."""

from .fields import Field, make_field
from .groups import (
    Collision,
    GroupSpec,
    SidonSequence,
    crt_flatten,
    sidon_upper_bound,
    verify_sidon,
    verify_sidon_sums,
    verify_weak_sidon,
)
from .lattices import (
    Lattice,
    Shape,
    Tiling,
    fundamental_shape,
    minimal_period,
)
from .folding import (
    defines_folding_gcd,
    folding_directions,
)
from .sidon import (
    OptimalityReport,
    abelian_group_specs,
    check_optimality,
    construct_bose,
    construct_power_pairs,
    construct_ruzsa,
    construct_singer,
    max_sidon_size,
)
from .ddc import (
    PeriodicDdc,
    construct_golomb,
    construct_welch,
    fold_sidon_to_ddc,
    is_ddc,
    is_doubly_periodic_ddc,
    lower_left_dot,
    max_ddc_dots,
    render_ascii,
    unfold_to_sidon,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "make_field",
    "Collision",
    "GroupSpec",
    "SidonSequence",
    "crt_flatten",
    "sidon_upper_bound",
    "verify_sidon",
    "verify_sidon_sums",
    "verify_weak_sidon",
    "Lattice",
    "Shape",
    "Tiling",
    "fundamental_shape",
    "minimal_period",
    "defines_folding_gcd",
    "folding_directions",
    "OptimalityReport",
    "abelian_group_specs",
    "check_optimality",
    "construct_bose",
    "construct_power_pairs",
    "construct_ruzsa",
    "construct_singer",
    "max_sidon_size",
    "PeriodicDdc",
    "construct_golomb",
    "construct_welch",
    "fold_sidon_to_ddc",
    "is_ddc",
    "is_doubly_periodic_ddc",
    "lower_left_dot",
    "max_ddc_dots",
    "render_ascii",
    "unfold_to_sidon",
    "__version__",
]
