"""Exception types that the CLI maps onto distinct exit codes."""

import functools


class ConfigError(ValueError):
    """Bad or inconsistent scene configuration."""


class DependencyError(RuntimeError):
    """A pipeline stage was requested before its upstream artifacts exist."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (factorization, divergence, ...)."""


class LockedError(RuntimeError):
    """Another run holds the lock on the output directory."""


class FormatError(ValueError):
    """A file is malformed: bad header, truncated or unparsable data."""


def reads_format(reader):
    """Decorate a file reader `reader(path)` so that any ValueError it
    raises on malformed content surfaces as a FormatError naming the file."""

    @functools.wraps(reader)
    def wrapper(path):
        try:
            return reader(path)
        except FormatError:
            raise
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc

    return wrapper
