"""What the command line offers that the library reads too: the output
formats of ``reports`` and the default worker count of ``agglomeration``.

They live apart from both, so that building the parser loads neither the
ranking engine, the reports nor ``fractions``; each module imports its name
from here.
"""

FORMATS = ("table", "csv", "json")


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
