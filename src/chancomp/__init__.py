"""chancomp: compile quantum channels into CNOT + single-qubit circuits.

The package covers three compilation models (plain dilation with
trace-out, probabilistic mixtures of dilations, and measurement with
classical control on one reused ancilla), an exact simulator that
recovers the implemented channel for verification, channel-preserving
rewrite passes, closed-form CNOT-count bounds, and parameterized
small-case templates with a numerical fitter.
"""

from .bounds import (
    BoundsReport,
    lb_measured_qcm,
    lb_qcm_isometry,
    lb_random_qcm,
    param_count_extreme,
    table1,
)
from .channel import (
    ChoiMatrix,
    KrausSet,
    channel_from_json,
    channel_to_json,
    choi_distance,
    choi_from_kraus,
    is_extreme,
    kraus_distance,
    kraus_rank,
    minimal_kraus,
    random_channel,
    stinespring_isometry,
)
from .circuit import (
    Circuit,
    CircuitParseError,
    Gate,
    cnot_count,
    parse,
    serialize,
)
from .compiler import (
    CompilePlan,
    ConvexMixture,
    compile_measured,
    compile_qcm,
    compile_random_qcm,
    plan_measured,
    predict_upper_bound,
    verify_circuit,
    verify_mixture,
)
from .linalg import qr_rectangular
from .rewrite import classicalize_controls, drop_dead_unitaries, standard_passes
from .simulator import (
    circuit_to_kraus,
    outcome_distribution,
    simulate_unitary,
)
from .synth import decompose_isometry, multiplexed_rotation, n_iso
from .templates import Template, fit, instantiate, template

__version__ = "0.1.0"
