"""One set-up in a fresh interpreter, started by run.py as

    python3 -I -S bench/fresh_setup.py <src dir> <node budget> <family spec>...

Imports cqcsp, builds each template, and makes one warm-up evaluate call
per template, as a user's first call would.  Without ``site`` (``-S``) the
interpreter has loaded nothing but its own start-up modules, so the time
includes importing every module cqcsp needs.  Prints that time in seconds,
then the warm-up verdicts, which must all be True.
"""

from time import perf_counter

t0 = perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from cqcsp import model, oracle, textio  # noqa: E402

budget = int(sys.argv[2])
empty = textio.parse_sentence("E1 x |")
verdicts = [oracle.evaluate(model.build_template(model.parse_family_spec(spec)), empty,
                            budget=budget)
            for spec in sys.argv[3:]]
elapsed = perf_counter() - t0
print(elapsed, *verdicts)
