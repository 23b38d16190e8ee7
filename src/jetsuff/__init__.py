"""Numerical toolkit for jet sufficiency conditions near a singular set."""

__version__ = "0.1.0"

from .linmap import (LinearMap, equivalence_constants_sample, g_prime,
                     g_prime_many, minor_table, nu, nu_many, realify)
from .poly import Poly, PolyStack
from .germ import (AnalyticZ, GermPair, ImplicitZ, JetPoly, PolyGermMap,
                   SampledZ, ZSpec, germ_from_json, germ_to_json, jet_at,
                   load_germ, same_k_Z_jet, save_germ)
from .lojasiewicz import (LojasiewiczReport, ViolationSequence,
                          check_corollary_hypotheses, estimate_condition,
                          find_violation_sequence, fit_exponent)
from .trivializer import (DeformationF, IsotopyResult, TrivializationConstants,
                          VectorFieldW, build_F, calibrate_constants, flow, flow_many,
                          gronwall_check, isotopy)
from .bl_construct import (BumpFunction, PerturbationF, assemble_F,
                           choose_lambdas, verify_construction)
