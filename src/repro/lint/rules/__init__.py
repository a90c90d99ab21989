"""Built-in rule families.  Importing this package registers every rule
with :data:`repro.lint.core.REGISTRY`."""

from repro.lint.rules import (  # noqa: F401
    determinism,
    numpy_det,
    pickle_safety,
)
