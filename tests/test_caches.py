"""The caches that live as long as the process.

They hold the resolution's exponent vectors and generator polynomials.
None holds a rank, a matrix, a span or a product table.  A new process-lifetime cache fails here until it is
listed, so each one is a deliberate choice.
"""

import sys

import hhext.cli  # noqa: F401  (loads every hhext module)

PROCESS_CACHES = {
    "hhext.resolution.exponent_vectors",
    "hhext.resolution.generator_polynomial",
}


def test_process_lifetime_caches_are_the_listed_two():
    modules = [mod for name, mod in sys.modules.items()
               if name == "hhext" or name.startswith("hhext.")]
    found = {f"{fn.__module__}.{fn.__qualname__}"
             for mod in modules for fn in vars(mod).values()
             if hasattr(fn, "cache_info")}
    assert found == PROCESS_CACHES
