"""divkit: exact symbolic calculus for Poisson bivectors of divisor-type,
divisor ideals, and Lie algebroid anchor frames on polynomial charts."""

from .rings import (
    Chart,
    InternalError,
    Poly,
    exact_divide,
    gcd_content,
    poly_gcd,
    squarefree_part,
)
from .multivector import (
    DiffForm,
    Multivector,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
    pairing,
    partial_pfaffian,
    schouten_bracket,
)
from .divisors import (
    Atom,
    DivisorClass,
    DivisorIdeal,
    classify,
    divides_ideal,
    make_ideal,
    preserves,
    product,
    radical,
)
from .frames import (
    AnchorFrame,
    CoframeForm,
    algebroid_d,
    catalog,
    check_involutive,
    expand_in_frame,
    fiber_product,
    frame_divisor,
    lower_modify,
    upper_modify,
    verify_ideal_algebroid,
)
from .poisson import (
    check_poisson,
    darboux_catalog,
    degeneracy_ideals,
    divisor_type,
    hamiltonian_vf,
    lift,
    modular_foliation_report,
    modular_vf,
    poisson_bracket,
    poisson_vf_check,
)
from .residues import (
    ResidueSpec,
    cochain_check,
    cosymplectic_spinor,
    dual_form,
    elliptic_log_factorization,
    residue,
)

__version__ = "0.1.0"
