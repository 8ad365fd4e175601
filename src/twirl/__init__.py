"""twirl: twisted orbital integral residue library.

Exact arithmetic over totally ramified extensions of Q_p, twisted
conjugacy and discriminants, a ramified-induction test function on GL_2,
stratified orbital integration, and closed-form residue extraction for
the resulting coefficient series.
"""

from .cyclotomic import CharacterValue
from .errors import (
    DomainError,
    NotEisenstein,
    NotRegular,
    PrecisionExhausted,
    PrecisionTooSmall,
    Singular,
    SingularGammaMinusOne,
    TwirlError,
)
from .integrator import (
    TruncationSpec,
    assemble_coefficients,
    coefficient_A_B,
    orbit_weight_integral,
)
from .localfield import (
    Elem,
    LocalFieldCtx,
    SquareClassSet,
    additive_char,
    is_square,
    make_field,
    parse_elem,
    square_class_reps,
)
from .matlattice import (
    GroupForm,
    Mat,
    mat_ord,
    orthogonal_form,
    symplectic_form,
    vdash,
)
from .residue import (
    LaurentData,
    RationalSeries,
    ResidueSeries,
    laurent_at_zero,
    residue_report,
)
from .supercuspidal import (
    CuspidalData,
    ScanReport,
    level_character,
    member,
    support_scan,
)
from .twisted import (
    DiscriminantReport,
    TorusElem,
    is_eps_symmetric,
    norm_preimage,
    twisted_discriminant,
)
__version__ = "0.1.0"
