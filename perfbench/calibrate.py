"""A fixed numpy probe that measures how fast the current core runs.

On a shared host a core's speed switches between states up to 1.5x
apart within seconds, and the share of time spent slow drifts over
minutes as neighbours come and go.  Wall times of runs a few minutes
apart then differ by up to ±20 % for the same code.  The worker times
this probe right before and right after each report call, in the same
process, and run.py scales the call's wall time by
``REFERENCE_S / mean probe seconds``: a report that ran while the probe
was 10 % slow counts 10 % shorter.  Report calls are kept to one or two
seconds so that the probes on either side see the state the call ran in.
Each set-up sample is scaled the same way by a probe timed right after
the import, in the interpreter that imported.

The probe repeats the kind of numpy work the PDOP kernel does (per-site
einsum, norms, masked sums, batched 4x4 SVD and inverse) on small fixed
arrays.  Nothing in it depends on leonav, so a change to leonav moves
the scaled time as much as the wall time.  Its arrays are built and
freed inside each probe, so it adds nothing to the process's peak
memory once the report's own working set is larger than a few MB.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe seconds that count as the reference speed: about the probe's
#: median on a 2-core x86-64 container (Python 3.11, numpy 2.4), so that
#: scaled report times read close to wall seconds there.
REFERENCE_S = 0.007
#: Passes per probe; the probe reports their median.
PASSES = 15


def _noise(n: int, offset: float) -> np.ndarray:
    """n fixed values spread over (-1, 1), without importing numpy.random."""
    return np.modf(np.sin(np.arange(n) * 12.9898 + offset) * 43758.5453)[0]


def _pass(basis: np.ndarray, rays: np.ndarray) -> None:
    rng = np.linalg.norm(rays, axis=-1)
    unit = rays / rng[..., None]
    enu = np.einsum("nab,nsb->nsa", basis, unit)
    vis = enu[..., 2] >= 0.0
    v = np.where(vis[..., None], enu, 0.0)
    normal = np.empty((len(v), 4, 4))
    normal[:, :3, :3] = np.einsum("nsi,nsj->nij", v, v)
    normal[:, :3, 3] = normal[:, 3, :3] = -v.sum(axis=1)
    normal[:, 3, 3] = vis.sum(axis=1)
    np.linalg.svd(normal, compute_uv=False)
    np.linalg.inv(normal)


def probe_seconds() -> float:
    """Median seconds of one probe pass over PASSES passes."""
    basis = _noise(200 * 3 * 3, 1.0).reshape(200, 3, 3)
    rays = _noise(200 * 100 * 3, 2.0).reshape(200, 100, 3)
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        _pass(basis, rays)
        times.append(time.perf_counter() - start)
    return sorted(times)[PASSES // 2]
