"""Causal optimal transport between probability measures on the real line."""

from .causality import (CausalityReport, MapCausalityReport, MonotonicityReport,
                        check_cyclical_monotonicity, check_map_causal,
                        check_plan_causal)
from .coupling import (AxiomReport, CouplingSample, CouplingSpec, TAU_EQUAL_TO_X,
                       TAU_NEVER, coupling_from_plan, empirical_cost, simulate,
                       verify_axioms)
from .measures import (Dirac, DiscreteMeasure, Exponential, Family, Gamma,
                       Gaussian, LevyFirstPassage, Uniform, discretize,
                       family_from_dict, family_to_dict, merge_atoms, sample)
from .plans import (COST_FUNCTIONS, TransportPlan, brownian_passage_conditional_cdf,
                    conditional_cdf_grid, deterministic_plan, evaluate_cost,
                    independent_sum_plan, mix_plans, product_plan)
from .solver import (CertificateReport, LpProblem, SolveResult,
                     build_causal_lp, certify, classic_ot_1d, instance_from_dict,
                     solve, solve_causal_transport, verify_optimality)

__all__ = [
    "AxiomReport", "CausalityReport", "CertificateReport", "COST_FUNCTIONS",
    "CouplingSample", "CouplingSpec", "Dirac",
    "DiscreteMeasure", "Exponential", "Family", "Gamma", "Gaussian",
    "LevyFirstPassage", "LpProblem", "MapCausalityReport", "MonotonicityReport",
    "SolveResult", "TAU_EQUAL_TO_X", "TAU_NEVER",
    "TransportPlan", "Uniform", "brownian_passage_conditional_cdf",
    "build_causal_lp", "certify",
    "check_cyclical_monotonicity", "check_map_causal", "check_plan_causal",
    "classic_ot_1d", "conditional_cdf_grid", "coupling_from_plan",
    "deterministic_plan", "discretize", "empirical_cost", "evaluate_cost",
    "family_from_dict", "family_to_dict", "independent_sum_plan",
    "instance_from_dict", "merge_atoms", "mix_plans",
    "product_plan", "sample", "simulate",
    "solve", "solve_causal_transport", "verify_axioms", "verify_optimality",
]
