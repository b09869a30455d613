"""Built-in rule modules; importing this package registers every rule."""

from repro.lint.rules import (determinism, exec, imports,  # noqa: F401
                              obs, perf, serve, simapi, units)
