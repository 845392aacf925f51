"""Exception hierarchy for the roadsense package.

Input is checked once, where it enters: ``TripReader``, ``parse_report``,
``load_config`` and ``Scenario``. Behind them only ``dwt`` checks its own
length contract (``ShapeError``).

CLI exit codes: format-level problems (bad header, bad report, bad config,
bad scenario) map to exit 2, data-level corruption (too many bad rows,
broken timestamp order) maps to exit 3.
"""


class RoadSenseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RoadSenseError):
    """A config value is missing, mistyped or out of its legal range."""


class ShapeError(RoadSenseError):
    """An array does not have the length the transform expects."""


class TripFormatError(RoadSenseError):
    """A trip file or report is not in the expected format at all (exit 2)."""


class CorruptTripError(RoadSenseError):
    """The trip file parses but its content is untrustworthy (exit 3)."""


class OrderingError(CorruptTripError):
    """Timestamps within one sensor stream went backwards."""


class ScenarioError(ConfigError):
    """A synthesis scenario fails validation."""
