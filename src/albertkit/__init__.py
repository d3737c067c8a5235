"""Exact arithmetic in the exceptional Jordan algebra over split octonions.

The package builds, over the rationals with no tolerance anywhere:

 * split octonions in vector-matrix coordinates (`octonion`),
 * the 27-dimensional algebra J of Hermitian 3x3 octonion matrices with
   its trace pairing, cubic form and cross product (`albert`),
 * binary cubics and the degree-12 invariant on pairs V = J + J (`pvs`),
 * a constructible family of similitudes acting on J and V (`gaction`),
 * the degree-8 structure map S_x, its tabulation, and the isotope
   product it induces at semistable points (`smap`),
 * the degree-6 trilinear form T_a and both isotope constructions,
   the T_a route as the integer isotope kernel S_x also uses (`isotope`),
 * JSON round-tripping (`jsonio`), seeded verification suites
   (`verify`), the literal routes the kernels are tested against
   (`reference`), and the `albertkit` CLI (`cli`).
"""

from .albert import (
    ALBERT_ZERO,
    AlbertElem,
    E,
    cross,
    det_j,
    diag_elem,
    jbasis,
    jordan_mul,
    pair,
    slot_elem,
    trace_j,
    trilinear_d,
)
from .errors import (
    AlbertKitError,
    NotSemistable,
    ParseError,
    SingularMatrix,
    SingularPoint,
    ZeroScalar,
)
from .gaction import (
    GroupElem,
    act_v,
    chi,
    diag_conj,
    gl2_elem,
    identity_elem,
    mu,
    perm_elem,
    scalar_elem,
    tilde,
)
from .isotope import (
    circ_a_springer,
    circ_a_tform,
    gram_qa,
    pairing_a,
    phi_a,
    q_a,
    t_form,
)
from .octonion import (
    OCT_UNIT,
    OCT_ZERO,
    Oct,
    ZORN_BASIS,
    oct_conj,
    oct_mul,
    oct_norm,
    oct_q,
    oct_trace,
)
from .pvs import BinaryCubic, VPoint, cubic_of, delta, is_semistable, w_point
from .smap import StructureTensor, circ_x, phi1, phi2, s_map, structure_tensor

__version__ = "0.1.0"

__all__ = [
    "ALBERT_ZERO",
    "AlbertElem",
    "AlbertKitError",
    "BinaryCubic",
    "E",
    "GroupElem",
    "NotSemistable",
    "OCT_UNIT",
    "OCT_ZERO",
    "Oct",
    "ParseError",
    "SingularMatrix",
    "SingularPoint",
    "StructureTensor",
    "VPoint",
    "ZORN_BASIS",
    "ZeroScalar",
    "act_v",
    "chi",
    "circ_a_springer",
    "circ_a_tform",
    "circ_x",
    "cross",
    "cubic_of",
    "delta",
    "det_j",
    "diag_conj",
    "diag_elem",
    "gl2_elem",
    "gram_qa",
    "identity_elem",
    "is_semistable",
    "jbasis",
    "jordan_mul",
    "mu",
    "oct_conj",
    "oct_mul",
    "oct_norm",
    "oct_q",
    "oct_trace",
    "pair",
    "pairing_a",
    "perm_elem",
    "phi1",
    "phi2",
    "phi_a",
    "q_a",
    "s_map",
    "scalar_elem",
    "slot_elem",
    "structure_tensor",
    "t_form",
    "tilde",
    "trace_j",
    "trilinear_d",
    "w_point",
]
