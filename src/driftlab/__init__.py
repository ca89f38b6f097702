"""driftlab: a numerical laboratory for critical drift-diffusion on the torus."""

__version__ = "0.1.0"

# No name is re-exported: every import names a submodule.  The package still
# loads these, because the benchmark's tracer wraps, after `import driftlab`,
# the bindings of the modules already loaded.
from . import grids, operators, spaces, evolution, verification  # noqa: F401
