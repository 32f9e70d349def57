"""Exception types shared across the planner modules."""


class TreeplanError(Exception):
    """Base class for all planner errors."""


class DegenerateDuration(TreeplanError):
    """Spline fitting requested over a duration shorter than one sample step."""


class PredictorFailure(TreeplanError):
    """A predictor raised while expanding a scenario-tree node."""

    def __init__(self, stage, node_path, cause):
        self.stage = stage
        self.node_path = node_path
        self.cause = cause
        super().__init__(f"predictor failed at stage {stage}, node {node_path}: {cause}")


class CausalConsistencyViolation(TreeplanError):
    """Two scenario trees with a shared ego prefix diverge within that prefix."""

    def __init__(self, mode_a, mode_b, stage, detail=""):
        self.mode_a = mode_a
        self.mode_b = mode_b
        self.stage = stage
        msg = f"modes {mode_a} and {mode_b} diverge at stage {stage}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class StructureError(TreeplanError):
    """Ego and scenario trees disagree on schedule or stage count."""


class ScheduleMismatch(TreeplanError):
    """Two sampled signals do not share the same time support."""


class UnknownNode(TreeplanError):
    """A referenced node id does not exist in the tree."""


class TooLarge(TreeplanError):
    """Exhaustive enumeration would exceed the configured policy-count cap."""


class EmptyTrace(TreeplanError):
    """A metric was requested on a trace with no steps."""


class HorizonMismatch(TreeplanError):
    """Realized trajectories do not cover the prediction horizon."""


class ScenarioError(TreeplanError):
    """Scenario or config input failed validation."""
