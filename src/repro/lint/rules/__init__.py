"""Built-in rule families.  Importing this package registers every rule
with :data:`repro.lint.core.REGISTRY`."""

from repro.lint.rules import (  # noqa: F401
    determinism,
    fs_safety,
    ipc,
    numpy_det,
    pickle_safety,
)
