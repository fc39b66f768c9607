"""Single-pass instruction programs: parsing, execution, internal-delay
analysis, and projections onto the register-free fragment."""

from .analyzer import (
    MidResult,
    StateGraph,
    StateLimitExceeded,
    StateNode,
    build_state_graph,
    compute_mid,
    id_weight,
)
from .family import FamilyParams, gen_scaling_family, gen_random
from .isa import (
    AuxSpec,
    BasicInstruction,
    BwdJump,
    Diagnostic,
    FwdJump,
    Halt,
    IndBwdJump,
    IndFwdJump,
    InputError,
    Instruction,
    InvalidProgram,
    NegTest,
    ParseError,
    PglbError,
    Plain,
    PosTest,
    Program,
    RegSet,
    ToolParams,
    is_pglb,
    parse_program,
    render_instruction,
    render_program,
    validate,
)
from .projector import (
    Counterexample,
    OracleSuite,
    ProjectionReport,
    RelocationMap,
    Verdict,
    check_equivalence,
    dispatch_project,
    specialize,
    thread_jumps,
)
from .vm import (
    MachineConfig,
    ObservableEvent,
    OracleExhausted,
    Scripted,
    Seeded,
    Status,
    Trace,
    TraceEvent,
    UnknownCellMethod,
    cell_reply,
    observable_events,
    parse_oracle_script,
    run,
    step,
    trace_text,
)

__version__ = "0.1.0"
