"""Exception taxonomy shared across the simulator.

Every error raised on bad input derives from SimulatorError so the CLI can
map it to a single input-validation exit code. Anything else escaping a
command is treated as an internal invariant violation.
"""


class SimulatorError(Exception):
    """Base class for all input and validation errors."""


class ParseError(SimulatorError):
    """Malformed file content. Carries the 1-based line number when known."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        where = ""
        if path is not None:
            where += f"{path}: "
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)


class SchemaError(SimulatorError):
    """Structurally valid file that violates a dataset invariant."""


class CollinearInputError(SimulatorError):
    """Planar point set with no three non-collinear points."""


class DegenerateFootprintError(SimulatorError):
    """Beam whose qualifying samples cannot form a polygon."""

    def __init__(self, beam_id, reason="qualifying samples are degenerate"):
        self.beam_id = beam_id
        super().__init__(f"beam {beam_id}: {reason}")


class NegativePopulationError(ParseError):
    """Population cell with a negative or non-finite count."""


class TimestampError(ParseError):
    """Unparseable timestamp in a movement log."""


class InvalidParamsError(SimulatorError):
    """Synthetic-generator parameters outside their documented domain."""


class MismatchedBeamsError(SimulatorError):
    """Traffic matrix and beam pattern disagree on the number of beams."""


class UnknownUserError(SimulatorError):
    """User index outside the rows of a channel matrix."""


class BadThresholdsError(SimulatorError):
    """Classification thresholds that are not upper > lower >= 0."""


class BelowHorizonError(SimulatorError):
    """Location from which the satellite is not above the horizon."""
