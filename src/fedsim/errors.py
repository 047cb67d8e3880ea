"""Errors shared by the config parser and the engine."""

from __future__ import annotations

from contextlib import contextmanager


class ConfigError(ValueError):
    """Raised with every validation problem found, one per line."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in problems))

    def __reduce__(self):
        # Rebuild from the problem list, so that an error raised in a pool
        # worker reaches the parent process unchanged.
        return (type(self), (self.problems,))


@contextmanager
def out_of_memory_as_config_error(what: str, nbytes: int):
    """Turn a MemoryError raised while building `what`, whose main arrays
    take `nbytes`, into a ConfigError: the config asked for too much."""
    try:
        yield
    except MemoryError as exc:
        raise ConfigError(
            [f"out of memory building {what} ({nbytes / 2**30:.2f} GiB)"]
        ) from exc
