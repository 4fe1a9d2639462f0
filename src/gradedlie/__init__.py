"""Exact weight-graded cohomology and Massey products for N-graded Lie algebras."""

from .algebra import (GeneratorSpec, GradedLieAlgebra, associated_graded, bracket,
                      central_series, load_preset, m0_normal_form, parse_algebra,
                      write_algebra)
from .cohomology import (betti, check_goncharova, check_m0_dimensions,
                         class_coordinates, cohomology_slice, partition_count,
                         representatives)
from .forms import (Form, bar, differential, evaluate, parse_form, render_form,
                    slice_basis, wedge)
from .massey import (ClassificationTag, ConnectionMatrix, DefiningSystem,
                     classify_trivial_ones, conjugate, evaluate_product,
                     is_formal_connection, leading_coefficient_certificate,
                     mc_residual, paper_connection_main, paper_connection_two_e2,
                     related_cocycle, solve_defining_system, triple_product)
from .mzero import D1, Dm1, omega, sum_identity_check

__version__ = "0.1.0"
