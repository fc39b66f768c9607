"""Single-pass instruction programs: parsing, execution, internal-delay
analysis, and projections onto the register-free fragment."""

__version__ = "0.1.0"
