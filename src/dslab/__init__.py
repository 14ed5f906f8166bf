"""Executable combinatorics of multiclass and list learning.

One-inclusion hypergraphs, exact rational densities, DS/Natarajan/VC
dimensions, monomial spanning sets with exact integer ranks, min-max
list orientations, and desk-scale realizable/agnostic list learners.
"""

from .agnostic import (agnostic_pipeline, build_list_cover, inside_menu_erm,
                       mw_menu)
from .algebra import (AuditReport, audit_theorem, check_spanning,
                      direction_subspace_dim, eval_matrix, monomial_set,
                      rank_exact)
from .dims import (ShatterWitness, ds_dimension, ds_shatter_core,
                   natarajan_dimension, validate_witness, vc_dimension)
from .errors import BudgetError, CertificateError, RealizabilityError
from .hclass import (HypothesisClass, gen_cube, gen_random, load_class,
                     restrict, save_class)
from .learn import (ListPrediction, SyntheticDistribution, loo_error,
                    oig_list_predict, pac_experiment, topk_vote)
from .oig import (OneInclusionGraph, Orientation, build_oig, density,
                  max_density_subfamily, min_max_orientation, mu, mu_prime,
                  outdegrees)

__version__ = "0.1.0"
