"""Exact-arithmetic toolkit for quantum Fermat algebras.

The package decides the Calabi-Yau criterion for the quotient of a skew
polynomial ring by the sum of n-th powers, computes the Frobenius
automorphism of the twisted exterior dual two independent ways, classifies
point modules (simplex faces, shift automorphisms, exact Fermat point
counts), and exhaustively censuses all commutation-exponent matrices for
small n.  Every computation is exact over cyclotomic fields; the package
contains no floating-point tolerances.
"""

from .cyclo import (
    CycloField,
    Cyclotomic,
    FieldMismatchError,
    cyclotomic_polynomial,
    euler_phi,
)
from .qalgebra import (
    ALGEBRA_A,
    ALGEBRA_B,
    AlgebraMismatchError,
    DiagAutomorphism,
    ParamsError,
    QuantumParams,
    SkewPoly,
    commutative_params,
    fermat_element,
    from_twist,
    graded_dimension,
    is_central,
    iter_multidegrees,
    multiply,
    normal_order,
    normalizing_automorphism,
    product_of_generators,
    reduce_a,
    validate_params,
)
from .koszulcy import (
    CyReport,
    ExtElement,
    FrobeniusComparison,
    FrobeniusPairingError,
    PatchParams,
    column_sums,
    compare_frobenius,
    cy_criterion,
    deformation_central,
    dehomogenize,
    frobenius_bruteforce,
    frobenius_closedform,
    is_twist_realizable,
)
from .hilb1 import (
    DichotomyError,
    FaceComplex,
    FaceComponent,
    Hilb1Report,
    InadmissibleFaceError,
    K3_EULER_NUMBER,
    euler_number_n4,
    face_complex,
    fermat_edge_points,
    hilb1,
    is_admissible,
    is_generic,
    shift_automorphism,
    triangle_exponent,
    verify_point_sequence,
)
from .census import (
    CapacityError,
    CensusReport,
    find_witness,
    index_to_params,
    params_to_index,
    run_census,
    total_count,
)
from .expr import (
    ParamsDocError,
    ParseError,
    PolyAst,
    lower,
    parse_params,
    parse_poly,
    print_params,
    print_poly,
)

__version__ = "0.1.0"
