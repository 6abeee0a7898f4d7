"""seclus: security-flow analysis and reference interpreter for a core
synchronous dataflow language and its normalised sub-language."""

__all__ = ["ast", "parser", "sectypes", "typing", "normalise", "interp", "compiled", "verify", "cli"]

__version__ = "1.0.0"
