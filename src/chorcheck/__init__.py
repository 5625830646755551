"""Parse BPMN models, execute their token-game semantics, and check whether a
collaboration of processes conforms to a choreography."""

from .model import (
    TAU,
    Branch,
    ChoreoTask,
    Choreography,
    Collaboration,
    Comm,
    EventBased,
    InputError,
    InterRcv,
    InterSnd,
    MalformedModelError,
    MessageEdge,
    Pool,
    Process,
    StartEvent,
    EndEvent,
    AndSplit,
    AndJoin,
    XorSplit,
    XorJoin,
    Task,
    TaskRcv,
    TaskSnd,
    UnsupportedElementError,
    in_edges,
    labels_choreo,
    labels_collab,
    out_edges,
)
from .text_syntax import (
    ArityError,
    DuplicateEdgeError,
    ParseError,
    parse_choreography,
    parse_collaboration,
    parse_process,
    print_model,
)
from .composition import (
    CompositionError,
    MessageNameClash,
    SelfMessage,
    UnmatchedReceive,
    UnmatchedSend,
    compose,
    rcv_map,
    snd_map,
    well_composed,
)
from .semantics import (
    BoundExceeded,
    DEFAULT_BOUNDS,
    ExplorationBounds,
    Lts,
    generate_lts,
    hide,
    hiding_set,
)
from .conformance import (
    AutSyntaxError,
    ConformanceResult,
    DistinguishingTrace,
    NonSimulablePair,
    WeakLts,
    check_bbc,
    check_tbc,
    export_aut,
    parse_aut,
    saturate,
)

__version__ = "0.1.0"

_BPMN_NAMES = ("BpmnDocument", "load_choreography", "load_collaboration", "load_process")


def __getattr__(name: str):
    """The BPMN reader's names, importing `bpmn_xml` (and `xml.etree`) on
    first use, so that the package and the CLI start without them."""
    if name in _BPMN_NAMES:
        from . import bpmn_xml
        return getattr(bpmn_xml, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
