"""The exact layer's digest and the standing battery's families, shared by CI's steps.

Not a test module: CI imports it with ``tests`` on ``PYTHONPATH``, as it does
``oracle`` and ``transport_ref``.  A family's record is its derive payload
(``cli.derive_payload``, as the derive subcommand prints it), its defining
polynomials as strings, and every ball's centre and radius as ``float.hex``
with its multiplicity and provenance; a family whose exact layer raises an
``EngineError`` records its type.  A change that claims identical exact
outputs shows the same digest.  ``bench/`` is only read.
"""

import hashlib
import json
import random
import sys
import time
from pathlib import Path

import expperiods as ep
from expperiods.cli import derive_payload

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402  (bench/gen.py, the benchmark's family generator)


def battery_families():
    """The 40 ``reanchor…`` families, 20 per fiber, as ``(label, fiber, g)``."""
    return [
        (label, *gen.random_family(random.Random(label), punct, 1, 4, 2))
        for punct in (False, True)
        for label in (f"reanchor{punct}{i}" for i in range(20))
    ]


def exact_digest(families, repeat=1, verbose=False):
    """The sha256 hex digest of the exact layer over ``(label, fiber, g)`` families, and the
    number that raise an ``EngineError``.  Each family runs ``repeat`` times; with
    ``verbose``, its best time per stage (or its exception) is printed."""
    digest, raised = hashlib.sha256(), 0
    for label, fiber, g in families:
        spec = ep.ProblemSpec(ep.FiberType(fiber), ep.parse_laurent(g), label)
        best = {}
        try:
            for _ in range(repeat):
                t0 = time.perf_counter()
                basis = ep.fiber_basis(spec)
                A = ep.connection_matrix(spec, basis)
                t1 = time.perf_counter()
                ode = ep.cyclic_ode(A)
                t2 = time.perf_counter()
                S = ep.singular_set(spec, A)
                t3 = time.perf_counter()
                for stage, dt in (("connection", t1 - t0), ("cyclic_ode", t2 - t1), ("singular_set", t3 - t2)):
                    best[stage] = min(best.get(stage, dt), dt)
        except ep.EngineError as exc:
            digest.update(f"{label} raises {type(exc).__name__}\n".encode())
            raised += 1
            if verbose:
                print(f"{label}: raises {type(exc).__name__}")
            continue
        if verbose:
            print(f"{label} (rank {basis.rank}):", ", ".join(f"{k} {v * 1e3:.1f} ms" for k, v in best.items()))
        digest.update((json.dumps(derive_payload(spec, basis, A, ode)) + "\n").encode())
        for p, prov in S.defining:
            digest.update(f"{p.to_str()} {prov}\n".encode())
        for b in S.balls:
            x = (b.center.real, b.center.imag, b.radius)
            digest.update((" ".join(v.hex() for v in x) + f" {b.multiplicity} {b.provenance}\n").encode())
    return digest.hexdigest(), raised
