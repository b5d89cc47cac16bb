"""Simulation toolkit for plane flows driven by entire functions.

Integrates dz/dt = f(z) and dz/dt = conj(g(z)), detects and times
finite escape to infinity, traces level curves of Im G with transit
quadrature, and runs the escape-measure, polynomial-dichotomy and
derivative-growth experiments behind a CLI with CSV/JSON/SVG output.
"""

from .errors import (
    CorrectorDivergence,
    EntiretyViolation,
    EvaluationOverflow,
    ParseError,
    PlaneflowError,
    SegmentTruncated,
    TractViolation,
    UnsupportedAntiderivative,
)
from .expr import (
    Add,
    Constant,
    Exp,
    FuncExpr,
    IntPower,
    Mul,
    Negate,
    Scale,
    Variable,
    antiderivative,
    compile_fn,
    derivative,
    parse_expr,
    poly_coeffs,
    to_text,
)
from .jets import eval_jet
from .flow import (
    ANTIHOLOMORPHIC,
    FORWARD,
    HOLOMORPHIC,
    REVERSED,
    AntiholoInvariants,
    BlowupEstimate,
    FiniteTimeBlowup,
    FixedPointApproach,
    FlowSpec,
    IntegratorConfig,
    Periodic,
    ReachedRadius,
    StepUnderflow,
    Termination,
    TimeBudgetExhausted,
    Trajectory,
    antiholo_invariants,
    blowup_time_estimate,
    classify,
    conformal_clock_residual,
    integrate,
)
from .level import (
    CriterionReport,
    LevelCurve,
    TransitReport,
    infinite_time_criterion,
    trace_level,
    transit_time,
)
from .escape import (
    EscapeMeasureReport,
    PolyFlowSummary,
    RubelPathReport,
    TailIntegral,
    escape_measure,
    poly_flow_summary,
    rubel_path,
    transverse_segment,
)
from .svg import render_svg
from .reports import report_to_dict, validate_report

__version__ = "0.1.0"
