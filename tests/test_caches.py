"""The caches that live as long as the process.

Four hold rank integers; the other two hold the resolution's exponent
vectors and generator polynomials.  None holds a matrix, a span or a
product table.  A new process-lifetime cache fails here until it is
listed, so each one is a deliberate choice.
"""

import sys

import hhext.cli  # noqa: F401  (loads every hhext module)

PROCESS_CACHES = {
    "hhext.complexes.chain_rank",
    "hhext.complexes.cochain_rank",
    "hhext.complexes._bar_chain_rank",
    "hhext.complexes._bar_cochain_rank",
    "hhext.resolution.exponent_vectors",
    "hhext.resolution.generator_polynomial",
}


def test_process_lifetime_caches_are_the_listed_six():
    modules = [mod for name, mod in sys.modules.items()
               if name == "hhext" or name.startswith("hhext.")]
    found = {f"{fn.__module__}.{fn.__qualname__}"
             for mod in modules for fn in vars(mod).values()
             if hasattr(fn, "cache_info")}
    assert found == PROCESS_CACHES
