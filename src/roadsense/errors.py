"""Exception hierarchy for the roadsense package.

CLI exit codes: format-level problems (bad header, bad config, bad scenario)
map to exit 2, data-level corruption (too many bad rows, broken timestamp
order) maps to exit 3.
"""


class RoadSenseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RoadSenseError):
    """A tunable or constructor argument is out of its legal range."""


class InvalidSampleError(RoadSenseError):
    """A sensor value is non-finite or otherwise unusable."""


class ShapeError(RoadSenseError):
    """An array does not have the length the transform expects."""


class InsufficientDataError(RoadSenseError):
    """An estimator was asked for a result before seeing any data."""


class NoSpeedError(RoadSenseError):
    """Speed cannot be derived from the available GPS fixes."""


class TripFormatError(RoadSenseError):
    """The trip file is not in the expected format at all (exit 2)."""


class CorruptTripError(RoadSenseError):
    """The trip file parses but its content is untrustworthy (exit 3)."""


class OrderingError(CorruptTripError):
    """Timestamps within one sensor stream went backwards."""


class ScenarioError(ConfigError):
    """A synthesis scenario fails validation."""
