"""Exception types shared across the package, and the rule for integral counts."""
import operator


class QReservoirError(Exception):
    """Base class for errors raised by this package."""


class CapacityError(QReservoirError):
    """Requested register size exceeds what dense simulation supports."""


class InvalidChannelError(QReservoirError):
    """Kraus operators fail the completeness relation."""


class CorruptedStateError(QReservoirError):
    """Density matrix diagonal is no longer a usable probability vector."""


class DivergenceError(QReservoirError):
    """Recurrently generated target series left its bounded regime."""


class ProfileError(QReservoirError):
    """Noise profile file is malformed or inconsistent."""


class ConfigError(QReservoirError):
    """Experiment configuration is malformed or inconsistent."""


def check_count(value, name: str, low, error=ConfigError) -> int:
    """`value` as a Python int: an integral value of at least `low` (any, when
    `low` is None), else `error`. Numpy integers are counts; bools, floats,
    strings and None are not."""
    if not isinstance(value, bool):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if low is None or count >= low:
                return count
    bound = "" if low is None else f" >= {low}"
    raise error(f"{name} must be an integer{bound}, got {value!r}")
