"""Numerical laboratory for Kondratiev spaces and refined localization
Triebel-Lizorkin spaces on domains with singular sets."""

from .errors import (KlabError, SingularPoint, OutsideCover, CoverageGap,
                     InvalidParams, Unsupported, EmptyFamily,
                     UndeterminedByPaper)
from .geometry import (ModelDomain, WhitneyCover, PartitionOfUnity,
                       whitney_cover, regularized_distance)
from .testfns import (TestFunction, MembershipVerdict, make_test_function,
                      kondratiev_membership, f_space_membership_radial)
from .norms import (SpaceParams, NormValue, cover_norms, kondratiev_terms,
                    sobolev_terms, weighted_lp_terms, rloc_weighted_terms,
                    sharp_terms, rloc_norm_localized, multiply_by_rho_power,
                    radial_reference_integral, FINITE, DIVERGENT, INCONCLUSIVE)
from .wavelets import (WaveletSystem, CoefficientGrid, daubechies_filter,
                       build_wavelet_system, wavelet_coefficients,
                       f_sequence_norm, synthesize)
from .embeddings import (Verdict, decide_embedding,
                         decide_embedding_holder_route,
                         decide_reverse_embedding, pde_regularity_tau,
                         adaptivity_scale, technical_threshold_a, sigma,
                         HOLDS, FAILS, UNDETERMINED)

__version__ = "0.1.0"
