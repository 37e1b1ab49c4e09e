"""A fixed reference computation that gauges the host's speed.

On a shared host the speed of the same code drifts by a third or more
over minutes, and the drift moves the whole machine: the workloads'
commands and this computation slow down together.  The worker runs
``run()`` after every command, so each command lies between two
reference runs, and reports each command's time in units of the mean of
those two.  The drift then cancels out of the ratio, while any change
to ``lightcone`` still moves it in full, because nothing here depends
on ``lightcone``.

The computation mixes the two kinds of work the workloads do: complex
array arithmetic on arrays too large for the cache (``energy``) and
interpreted Python calls on small arrays (``verify``, ``transform``).
Each half takes about 0.1 s on a 2-vCPU Xeon and needs less than
10 MB.  Its inputs are fixed, and ``run()`` returns a checksum, which
the worker compares with the first run's.
"""

import numpy as np

_SHAPE = (15, 10240)


def _horner(x, n):
    acc = 0
    for k in range(n):
        acc = acc * x + k
    return acc


def _arrays():
    # made anew on each call, so that between calls they hold no memory
    # and leave the workload's peak resident memory alone
    a = np.empty(_SHAPE, complex)
    a.real = np.linspace(0.0, 1.0, a.size).reshape(_SHAPE)
    a.imag = a.real[:, ::-1]
    c = a.copy()
    for _ in range(18):
        np.multiply(c, a, out=c)
        c += a
        np.exp(c * 1e-3, out=c)
    return complex(c[0, -1])


def _calls():
    a = np.full((15, 64), 0.5 + 1j)
    c = a.copy()
    total = 0
    for i in range(14000):
        c = a * c * 0.5 + a
        total += _horner(i % 97, 10)
    return complex(c[0, 0]) + total


def run():
    """Do the fixed work once; return its checksum."""
    return (_arrays(), _calls())
