"""Exact q-expansion arithmetic for quasimodular forms and the divisor-sum
convolution identities they linearize."""

from .exactnum import FieldElement, QuadExt, conj, factor_small, trace
from .qseries import QSeries, eta_quotient, rc_bracket1
from .characters import (
    gen_bernoulli,
    principal_character,
    quadratic_character,
    sigma_twisted,
    trivial_character,
    twist,
)
from .forms import (
    DEFAULT_PREC,
    char_eisenstein,
    eisenstein,
    evaluate,
    named_form,
    parse_expr,
    phi,
    space_basis,
)
from .heckeeigen import Newform, Registry, extract_newforms, hecke_matrix, \
    multiplicativity_solve, registry
from .linearize import build_H, build_lahiri, decompose, named_qm_basis
from .identities import catalog, evaluate_rhs, verify
from . import oracle

__version__ = "0.1.0"
