"""chancomp: compile quantum channels into CNOT + single-qubit circuits.

The package covers three compilation models (plain dilation with
trace-out, probabilistic mixtures of dilations, and measurement with
classical control on one reused ancilla), an exact simulator that
recovers the implemented channel for verification, channel-preserving
rewrite passes, closed-form CNOT-count bounds, and parameterized
small-case templates with a numerical fitter.

Importing the package loads none of its modules: each exported name is
looked up in its module on first use (PEP 562), so a process pays only
for the modules it uses.
"""

import importlib

# every exported name and the module that defines it
_EXPORTS = {
    "BoundsReport": "bounds", "lb_measured_qcm": "bounds", "lb_qcm_isometry": "bounds",
    "lb_random_qcm": "bounds", "param_count_extreme": "bounds", "table1": "bounds",
    "ChoiMatrix": "channel", "KrausSet": "channel", "channel_from_json": "channel",
    "channel_to_json": "channel", "choi_distance": "channel", "choi_from_kraus": "channel",
    "is_extreme": "channel", "kraus_distance": "channel", "kraus_rank": "channel",
    "minimal_kraus": "channel", "random_channel": "channel", "stinespring_isometry": "channel",
    "Circuit": "circuit", "CircuitParseError": "circuit", "Gate": "circuit",
    "cnot_count": "circuit", "parse": "circuit", "serialize": "circuit",
    "CompilePlan": "compiler", "ConvexMixture": "compiler", "compile_measured": "compiler",
    "compile_qcm": "compiler", "compile_random_qcm": "compiler", "plan_measured": "compiler",
    "predict_upper_bound": "compiler", "verify_circuit": "compiler",
    "verify_mixture": "compiler",
    "qr_rectangular": "linalg",
    "classicalize_controls": "rewrite", "drop_dead_unitaries": "rewrite",
    "standard_passes": "rewrite",
    "circuit_to_kraus": "simulator", "outcome_distribution": "simulator",
    "simulate_unitary": "simulator",
    "decompose_isometry": "synth", "multiplexed_rotation": "synth", "n_iso": "synth",
    "Template": "templates", "fit": "templates", "instantiate": "templates",
    "template": "templates",
}

__all__ = [*_EXPORTS, "__version__"]
__version__ = "0.1.0"


def __getattr__(name):
    """Import the module that defines `name` and keep the value here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
