"""Design-space exploration.

The paper's central promise is that a container/iterator/algorithm library
makes it cheap to *explore* many hardware design points ("it is feasible to
generate versions of each one for every physical target and range of
configuration parameters").  This subsystem industrialises that step: a grid
of (design x container binding x pixel format x frame size x capacity)
points is expanded, every point is simulated and characterised through the
compiled settle backend (the default ``strategy="compiled"``), results are
memoized under their store keys (point × strategy × verify config) so
repeated points are free, and a comparison report is emitted with the
same table formatter the Table-3 reproduction uses.

Typical use::

    from repro.explore import ExplorationRunner, expand_grid

    points = expand_grid(designs=("saa2vga",), bindings=("fifo", "sram"),
                         capacities=(16, 32))
    runner = ExplorationRunner()
    results = runner.run(points)
    print(comparison_report(results))
"""

from .grid import DesignPoint, expand_grid, is_valid_point
from .report import best_by, comparison_report, coverage_summary, results_table
from .runner import (
    ExplorationResult,
    ExplorationRunner,
    evaluate_point,
    resolve_strategy,
)

# Pipeline-composition axes (imported last: flow.sweep reaches back into
# repro.explore.runner lazily, so the runner must already be initialised).
from ..flow.sweep import (
    PIPELINE_TOPOLOGIES,
    PipelinePoint,
    expand_pipeline_grid,
    is_valid_pipeline_point,
)

__all__ = [
    "DesignPoint",
    "expand_grid",
    "is_valid_point",
    "PipelinePoint",
    "PIPELINE_TOPOLOGIES",
    "expand_pipeline_grid",
    "is_valid_pipeline_point",
    "ExplorationResult",
    "ExplorationRunner",
    "evaluate_point",
    "resolve_strategy",
    "comparison_report",
    "coverage_summary",
    "results_table",
    "best_by",
]
