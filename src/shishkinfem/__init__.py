"""Bilinear FEM on layer-adapted Shishkin meshes for 2D turning-point
convection-diffusion problems, with discrete Green's-function probes
and double-mesh convergence studies."""

__version__ = "0.1.0"

from .meshgen import Region, TensorMesh, transition_params, build_mesh
from .problem import (ProblemSpec, LayerTemplate, TemplateKind,
                      example_5_1, mms_problem, layer_template)
from .assembly import FeField, assemble, assemble_mass, assemble_stiffness
from .linsolve import (SolveReport, SolveError, multigrid, solve,
                       solve_transpose)
from .greenfn import (GreenReport, green_function, fe_l2_norm,
                      fe_energy_norm, green_norm_sweep)
from .errorlab import (bilinear_interp, error_table, interp_error_study,
                       mms_convergence, solve_problem)

__all__ = [
    "Region", "TensorMesh", "transition_params", "build_mesh",
    "ProblemSpec", "LayerTemplate", "TemplateKind",
    "example_5_1", "mms_problem", "layer_template",
    "FeField", "assemble", "assemble_mass", "assemble_stiffness",
    "SolveReport", "SolveError", "multigrid", "solve", "solve_transpose",
    "GreenReport", "green_function", "fe_l2_norm", "fe_energy_norm",
    "green_norm_sweep",
    "bilinear_interp", "error_table", "interp_error_study",
    "mms_convergence", "solve_problem",
]
