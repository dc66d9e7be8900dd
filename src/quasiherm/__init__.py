"""Numerical toolkit for non-Hermitian operators with real spectra.

Builds and certifies positive metric operators, factorizes them into a
pseudometric times a charge across three nested inner-product spaces,
discretizes the first-order differential charge family, and demonstrates
metric-weighted unitarity of the generated evolution.
"""

# before the imports: models reads it for the report header
__version__ = "0.1.0"

from .errors import (BadGrid, BrokenPhase, DegenerateSpectrum,
                     DimensionMismatch, EvalError, ExceptionalPoint,
                     InaccurateEigensystem, NonConvergence, NonFiniteResult,
                     NonHermitianMetric,
                     NonPositiveWeight, NotPTSymmetric, NotPositive,
                     ParityViolation, ParseError, QuasihermError, SchemaError,
                     SelfOrthogonal, SigmaVanishes, SingularMetric,
                     SingularPseudoMetric)
from .evolution import (Trajectory, norm_trace_columns, norm_traces,
                        propagate, propagate_spectrum)
from .expressions import Expression, parse_expression
from .factorization import (PseudoMetric, SpaceTriple, TableRow,
                            as_pseudometric, charge_from_metric,
                            charge_from_spectrum, conjugation_in, make_triple, pt_symmetry_residual,
                            signature, standard_charge, triple_inner,
                            verify_table)
from .family import (ChargeAnsatz, CheckedAnsatz, CheckedSplit,
                     CoefficientResiduals, Grid, PotentialSplit, charge_norm,
                     charge_pg_hermiticity, coefficient_match, compatible_split,
                     compose_pct_residual, discretize_charge,
                     discretize_hamiltonian, even_part, first_difference,
                     forward_family, inverse_family, make_ansatz, make_grid,
                     make_split, odd_part, ode_pair_residual, second_difference)
from .metrics import (MetricCandidate, certify_metric, hermitize,
                      observability_check, positivity_certificate, qh_residual,
                      spectral_metric)
from .models import (ModelSpec, Report, ReportRow, parse_model, run_battery,
                     run_scenario)
from .operators import (CheckedOperator, adjoint, adjoint_product,
                        adjoint_wrt, as_operator, as_state, checked_operator,
                        inner, parity_matrix, right_product, time_reversal)
from .spectral import (SpectralData, biorthonormalize, eigendecompose,
                       is_real_spectrum)
