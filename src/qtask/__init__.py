"""qtask: hybrid classical-quantum task runtime.

Schedules DAGs of classical callbacks and quantum kernels across simulated
heterogeneous devices, executes a textual QIR subset on an in-process
statevector simulator, and reconstructs observables of wire-cut circuits
through quasi-probability estimation.
"""

from .circuit import (
    BasisChange,
    Circuit,
    Gate,
    GateKind,
    Pauli,
    PrepLabel,
    basis_change,
    compose,
    new_circuit,
    prep_circuit,
)
from .qir import (
    IntrinsicCall,
    QirLoweringError,
    QirParseError,
    QirProgram,
    UnsupportedControlFlowError,
    UnsupportedIntrinsicError,
    emit_qir,
    find_kernel_file,
    lower_to_circuit,
    parse_qir,
)
from .cli import GraphSpecError, parse_graph_spec
from .qpd import (
    InstanceResult,
    QpdEstimate,
    QpdInstance,
    QpdTerm,
    WireCutDecomposition,
    build_ghz_qpd_instances,
    canonical_wire_cut,
    decomposition_from_json,
    decomposition_to_json,
    estimate_zzzz,
    ghz_circuit,
    importance_sampled_estimate,
    instances_to_graph,
    reconstruct_density,
    sign_function,
    validate_run,
)
from .runtime import (
    ANY,
    HOST,
    QPU,
    CircuitKernel,
    CycleError,
    DeviceBackend,
    HostDevice,
    HostKernel,
    MemObject,
    QirKernel,
    QpuDevice,
    Runtime,
    Task,
    TaskGraph,
    TaskResult,
    TaskState,
    make_runtime,
)
from .seeding import derive_seed
from .simulator import (
    NonTerminalMeasurementError,
    ProbDist,
    ShotHistogram,
    StateVector,
    apply_gate,
    expectation_pauli,
    format_histogram,
    run_trajectory,
    sample_shots,
    simulate,
)

__version__ = "0.1.0"
