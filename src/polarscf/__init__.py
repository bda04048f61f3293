"""polarscf: finite Fock-space algebra, log-mesh atomic SCF with nonlocal
exchange, frozen-core pseudopotential construction, quasiparticle Green
functions, and the quasirelativistic boson energy series, with the
`polar-scf` command-line front end."""

__version__ = "0.1.0"

# Grid and SCF defaults.  They live here, not in hfcore (which re-exports
# them), so that the command line can declare its config keys without
# importing NumPy.
DEFAULT_MAX_ITER = 200
DEFAULT_TOL_ORBITAL = 1e-6
DEFAULT_R_MAX = 50.0
DEFAULT_N_POINTS = 2000
