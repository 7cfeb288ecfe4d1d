"""Dilution of precision and global PDOP statistics.

The single observable is geometry: unit lines of sight from ground sites
to satellites expressed in the local east/north/up frame.  DOP values
come from the covariance of the four-parameter (position + clock)
least-squares solution, Q = inv(G' G) with one geometry-matrix row
``[-e, -n, -u, 1]`` per visible satellite.  One solver serves every
caller: the closed form over per-sample sums where it is provably
well-conditioned, and LAPACK's inverse elsewhere, after an eigenvalue
condition test where the sums do not prove the sample defined.
``pdop_samples`` runs it over a whole grid and window, one kernel call per
tile of samples that finishes every sample it takes, and ``dop`` on the
lines of sight of one site.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .orbits import (
    EarthModel,
    WalkerSpec,
    propagate_arrays,
    rotate_eci_to_ecef,
    walker_constellation,
)
from .schema import MAX_EPOCHS, WINDOW_S, _Record, _within

#: Condition-number ceiling for the normal matrix; above it the solution
#: is treated as singular rather than inverted.
CONDITION_LIMIT = 1.0e12

#: Condition-number bound under which the PDOP engine takes the closed form
#: instead of LAPACK; far enough below ``CONDITION_LIMIT`` that no sample
#: it clears could be singular, and low enough that the two agree to ~1e-12.
_SURE_CONDITION = 1.0e4

#: Condition-number bound under which a sample the closed form leaves to
#: LAPACK is known to be defined, so ``_fallback`` inverts it without the
#: eigenvalue test; two orders below ``CONDITION_LIMIT``, so rounding in
#: the bound cannot admit a sample the test would reject.
_PROVEN_CONDITION = 1.0e10

#: Site x satellite pairs the PDOP engine tests for visibility at once; the
#: site axis is processed in blocks of this many pairs, and the epoch axis
#: propagated in chunks of as many epoch x satellite pairs, which bounds its
#: working memory whatever the grid, window and constellation sizes.  A
#: kernel call holds no more samples than one site block, so the normal
#: matrices it leaves to LAPACK are bounded with it.
_PAIR_BUDGET = 1 << 18

_GOLDEN_ANGLE_RAD = math.pi * (3.0 - math.sqrt(5.0))


class GeometryError(Exception):
    """Base class for observation-geometry failures."""


class InsufficientGeometryError(GeometryError):
    """Fewer visible satellites than the four the solution needs."""


class SingularGeometryError(GeometryError):
    """Normal matrix numerically singular (condition number too large)."""


class NoCoverageError(GeometryError):
    """No (site, epoch) sample in the run produced a defined PDOP."""


@dataclass(frozen=True)
class TimeWindow(_Record, key="window"):
    """Sampling window: epochs k*step_s for k in [0, duration_s/step_s).

    The duration lies in ``WINDOW_S``, and the step must divide it, at
    most ``MAX_EPOCHS`` times; the end point is excluded.
    """

    duration_s: float = _within(21600.0, *WINDOW_S)
    step_s: float = 120.0

    def _check_across_fields(self) -> None:
        if self.duration_s < self.step_s:
            raise ValueError(
                f"duration_s ({self.duration_s}) must be >= step_s ({self.step_s})"
            )
        ratio = self.duration_s / self.step_s
        if ratio > MAX_EPOCHS:
            raise ValueError(f"duration_s / step_s ({ratio:g} epochs) must be <= {MAX_EPOCHS}")
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"step_s ({self.step_s}) must divide duration_s ({self.duration_s})"
            )

    @property
    def n_epochs(self) -> int:
        return round(self.duration_s / self.step_s)

    def epochs(self) -> np.ndarray:
        return np.arange(self.n_epochs, dtype=float) * self.step_s


@dataclass(frozen=True, eq=False)
class GroundGrid:
    """Weighted set of ground sites used for global statistics.

    Every value is finite and latitudes lie in [-90, 90]; weights are
    strictly positive and sum to one.
    """

    lat_deg: np.ndarray
    lon_deg: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        lat = np.asarray(self.lat_deg, dtype=float)
        lon = np.asarray(self.lon_deg, dtype=float)
        w = np.asarray(self.weight, dtype=float)
        if lat.size < 1:
            raise ValueError("GroundGrid needs at least one site")
        if not (lat.shape == lon.shape == w.shape):
            raise ValueError("lat_deg, lon_deg, weight must have matching shapes")
        for name, values in (("lat_deg", lat), ("lon_deg", lon), ("weight", w)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        if not np.all(np.abs(lat) <= 90.0):
            raise ValueError("lat_deg must lie in [-90, 90]")
        if not np.all(w > 0.0):
            raise ValueError("site weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError(f"site weights must sum to 1 (got {w.sum()!r})")
        object.__setattr__(self, "lat_deg", lat)
        object.__setattr__(self, "lon_deg", lon)
        object.__setattr__(self, "weight", w)

    def __len__(self) -> int:
        return int(self.lat_deg.size)

    @classmethod
    def fibonacci(cls, n_sites: int) -> "GroundGrid":
        """Equal-area Fibonacci-sphere lattice; every site weighs 1/n."""
        if n_sites < 1:
            raise ValueError(f"n_sites ({n_sites}) must be >= 1")
        i = np.arange(n_sites, dtype=float)
        z = 1.0 - (2.0 * i + 1.0) / n_sites
        lat = np.degrees(np.arcsin(z))
        lon = np.degrees((i * _GOLDEN_ANGLE_RAD) % (2.0 * math.pi))
        lon = np.where(lon >= 180.0, lon - 360.0, lon)
        weight = np.full(n_sites, 1.0 / n_sites)
        return cls(lat, lon, weight)

    @classmethod
    def latlon(cls, n_sites: int) -> "GroundGrid":
        """Regular latitude/longitude grid with cos(latitude) area weights.

        The actual site count is the nearest n_lat x (2 n_lat) product to
        the request.
        """
        if n_sites < 1:
            raise ValueError(f"n_sites ({n_sites}) must be >= 1")
        n_lat, n_lon = _latlon_shape(n_sites)
        lat_centers = -90.0 + (np.arange(n_lat) + 0.5) * 180.0 / n_lat
        lon_centers = -180.0 + (np.arange(n_lon) + 0.5) * 360.0 / n_lon
        lat = np.repeat(lat_centers, n_lon)
        lon = np.tile(lon_centers, n_lat)
        weight = np.cos(np.radians(lat))
        weight = weight / weight.sum()
        return cls(lat, lon, weight)


def _latlon_shape(n_sites: int) -> tuple[int, int]:
    """Rows and columns, n_lat x (2 n_lat), of the latitude/longitude grid
    nearest ``n_sites`` sites."""
    n_lat = max(1, round(math.sqrt(n_sites / 2.0)))
    return n_lat, 2 * n_lat


@dataclass(frozen=True)
class DopValues:
    """The five dilution-of-precision figures of one solution geometry."""

    gdop: float
    pdop: float
    hdop: float
    vdop: float
    tdop: float


@dataclass(frozen=True)
class PercentilePdop:
    """Global percentile PDOP plus the defined-sample coverage fraction."""

    value: float | None  # None when no sample is defined
    coverage: float


@dataclass(frozen=True, eq=False)
class PdopSamples:
    """Raw per-(site, epoch) engine output.

    ``pdop`` is NaN where the sample is undefined (fewer than four
    visible satellites, or a singular normal matrix).
    """

    pdop: np.ndarray
    visible_count: np.ndarray

    @property
    def defined(self) -> np.ndarray:
        return np.isfinite(self.pdop)


def _enu_basis(lat_rad: np.ndarray, lon_rad: np.ndarray) -> np.ndarray:
    """The east/north/up basis of each site, component-major: shape
    (3, 3, n), where ``basis[a, c]`` is component c of row a (east, north,
    up) over all n sites, one contiguous array."""
    sin_lat, cos_lat = np.sin(lat_rad), np.cos(lat_rad)
    sin_lon, cos_lon = np.sin(lon_rad), np.cos(lon_rad)
    return np.array([
        [-sin_lon, cos_lon, np.zeros_like(lat_rad)],
        [-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat],
        [cos_lat * cos_lon, cos_lat * sin_lon, sin_lat],
    ])


def dop(los: np.ndarray) -> DopValues:
    """DOP figures of one site's geometry, through the engine's solver.

    Takes the (k, 3) east/north/up unit lines of sight to the visible
    satellites.  Where ``_schur`` clears the sample, Q's diagonal is S's
    minors over det S and, for the clock, det A / det N with
    det N = k det S; elsewhere it is ``_fallback``'s.

    Raises:
        InsufficientGeometryError: fewer than four lines of sight.
        SingularGeometryError: normal-matrix condition number above
            ``CONDITION_LIMIT``.
    """
    rows = np.asarray(los, dtype=float)
    k = len(rows)
    if k < 4:
        raise InsufficientGeometryError(
            f"insufficient geometry: {k} observations, need at least 4"
        )
    g = np.column_stack([-rows, np.ones(k)])
    normal = (g.T @ g)[None]
    count, b, a = normal[:, 3, 3], normal[:, :3, 3].T, normal[:, :3, :3].transpose(1, 2, 0)
    sure, proven, minor, det = _schur(count, b, a)
    if sure[0]:
        q = np.concatenate([*minor, np.linalg.det(normal[:, :3, :3]) / count]) / det
    else:
        good, q = _fallback(normal, proven)
        if not good[0]:
            raise SingularGeometryError(
                f"singular geometry: condition number exceeds {CONDITION_LIMIT:.0e}"
            )
        q = q[0]
    return DopValues(
        gdop=math.sqrt(q[0] + q[1] + q[2] + q[3]),
        pdop=math.sqrt(q[0] + q[1] + q[2]),
        hdop=math.sqrt(q[0] + q[1]),
        vdop=math.sqrt(q[2]),
        tdop=math.sqrt(q[3]),
    )


def pdop_samples(
    spec: WalkerSpec,
    grid: GroundGrid,
    window: TimeWindow,
    mask_deg: float,
    earth: EarthModel,
    *,
    receive: Callable[[], PdopSamples] | None = None,
) -> PdopSamples:
    """PDOP of every (site, epoch) sample for one constellation.

    The solver of ``dop`` over the whole grid and window; undefined
    samples (insufficient or singular geometry) are NaN.
    Epochs are propagated in chunks, and sites taken in blocks, of about
    ``_PAIR_BUDGET`` epoch or site x satellite pairs, so memory does not
    grow with window length or grid size times constellation size.  Each
    kernel call takes one site block over a tile of epochs sized by
    ``_tile_epochs`` and returns every sample of it finished, so nothing is
    held from one call to the next.

    ``receive``, when given, returns the samples of this same call computed
    elsewhere (a forked worker of ``pdop_sweep``), and they are returned
    instead of computed here.
    """
    if not 0.0 <= mask_deg < 90.0:
        raise ValueError(f"mask_deg ({mask_deg}) must lie in [0, 90)")
    if receive is not None:
        return receive()
    elements = walker_constellation(spec, earth)

    lat = np.radians(grid.lat_deg)
    lon = np.radians(grid.lon_deg)
    basis = _enu_basis(lat, lon)  # (3, 3, n)
    mask_rad = math.radians(mask_deg)

    n_sites = len(grid)
    epochs = window.epochs()
    values = np.full((n_sites, epochs.size), np.nan)
    counts = np.zeros((n_sites, epochs.size), dtype=np.int32)
    block = max(1, _PAIR_BUDGET // spec.total_sats)
    tile = _tile_epochs(
        min(block, n_sites), spec.total_sats,
        float(elements.semimajor_km[0]), earth.radius_km, mask_rad,
    )

    for start in range(0, epochs.size, block):
        t = epochs[start : start + block, None]
        ecef = rotate_eci_to_ecef(propagate_arrays(*elements, t, earth), t, earth)
        for first in range(0, len(ecef), tile):
            sats = ecef[first : first + tile]
            cols = slice(start + first, start + first + len(sats))
            for lo in range(0, n_sites, block):
                rows = slice(lo, lo + block)
                count, pdop = _block_pdop(basis[..., rows], sats, earth.radius_km, mask_rad)
                counts[rows, cols] = count.T
                values[rows, cols] = pdop.T
    return PdopSamples(pdop=values, visible_count=counts)


def _reach(r: np.ndarray | float, radius_km: float, mask_rad: float) -> np.ndarray:
    """Central angle within which a satellite at radius r is seen at the
    mask elevation or higher: acos(R cos(mask) / r) - mask."""
    return np.arccos(np.minimum(1.0, radius_km * math.cos(mask_rad) / r)) - mask_rad


def _tile_epochs(
    sites: int, sats: int, semimajor_km: float, radius_km: float, mask_rad: float
) -> int:
    """Epochs per kernel call over blocks of ``sites`` sites.

    A sample keeps the satellites within ``_reach`` of its site, so a
    constellation spread over the sphere leaves it sats * (1 - cos ρ) / 2
    culled pairs on average: the area share of a cap of angular radius ρ.
    The tile takes as many epochs as keep that expectation near
    ``_PAIR_BUDGET // 32`` pairs, so each call's fixed cost of some hundred
    numpy calls is spread over enough pairs while every per-pair array
    (64 KiB at the shipped budget) stays below glibc's 128 KiB mmap
    threshold.  It never holds more samples than one site block, which
    keeps every per-sample array within the block's bound.
    """
    most = max(1, _PAIR_BUDGET // sats) // sites
    expected = sites * sats * (1.0 - math.cos(_reach(semimajor_km, radius_km, mask_rad))) / 2.0
    if expected * most <= _PAIR_BUDGET // 32:
        return most
    return max(1, int(_PAIR_BUDGET // 32 / expected))


def _block_pdop(
    basis: np.ndarray, ecef: np.ndarray, radius_km: float, mask_rad: float
) -> tuple[np.ndarray, np.ndarray]:
    """Visible counts and PDOP of one block of sites over a tile of epochs.

    Takes the block's component-major ENU basis (3, 3, m) and the
    satellite positions of the tile's epochs (k, n, 3).  A satellite at
    radius r is seen at elevation e or higher exactly when its central
    angle from the site is at most ``_reach``, i.e. when up . sat clears a
    per-satellite bound; one matmul per epoch of the satellite positions
    with the site up-vectors culls the rest, so the dense test never holds
    more than one epoch's site x satellite pairs.  The survivors come out
    of each epoch's flat index in satellite-major order, epoch after epoch,
    and each per-pair quantity is one flat array per component, gathered
    from a component-major copy of the tile's positions and updated in
    place.  The exact elevation test then runs on the up component.  The
    cull's only slack is a millimetre, so nearly always every culled pair
    passes and the pair arrays are compressed only when one does not; east
    and north are built after that, for the visible pairs only.  The norm
    and the ENU dot products sum in the order ``np.linalg.norm`` and
    ``einsum`` take over (P, 3) rows; east drops the product with its z
    component, which ``_enu_basis`` holds as an exact zero, and that can
    change only the sign of a zero no sum sees.  ``bincount`` adds each
    sample's pairs in input order, which keeps its satellites in ascending
    order, so the samples are bit-identical to a site-major engine's
    whatever the tile; the sample digest in tests/test_geometry.py pins
    that order.  Rows stay in ENU rather than
    ECEF: PDOP is rotation-invariant only in exact arithmetic, and a
    sample whose four satellites are barely independent (PDOP ~1e5)
    magnifies the rounding of a change of frame far past 1e-10.
    Well-conditioned samples, nearly all of them, take PDOP in closed form
    from the per-sample sums; the rest go to ``_fallback`` in the same call,
    which makes no LAPACK call when there are none.

    Returns:
        (count, pdop): the visible count and PDOP of each (epoch, site)
        sample of the tile, shape (k, m), PDOP NaN where undefined.
    """
    m = basis.shape[-1]
    tile, n = ecef.shape[:2]
    r = np.linalg.norm(ecef, axis=-1)
    # A millimetre of slack, so rounding never culls a pair the exact test keeps.
    bound = r * np.cos(_reach(r, radius_km, mask_rad)) - 1e-6
    sat, site = np.divmod(np.concatenate([
        np.flatnonzero(sats @ basis[2] >= sat_bound[:, None]) + i * n * m
        for i, (sats, sat_bound) in enumerate(zip(ecef, bound))
    ]), m)
    sample = sat // n * m + site

    positions = ecef.reshape(-1, 3).T.copy()  # sat indexes its columns
    site_up = [basis[2, c][site] for c in range(3)]
    unit = [positions[c][sat] for c in range(3)]
    del sat
    for c in range(3):
        unit[c] -= radius_km * site_up[c]
    norm = np.sqrt((unit[0] * unit[0] + unit[1] * unit[1]) + unit[2] * unit[2])
    for c in range(3):
        unit[c] /= norm
    del norm
    up = _dot(site_up, unit)
    del site_up
    vis = up >= math.sin(mask_rad)
    if not vis.all():
        site, sample, up = site[vis], sample[vis], up[vis]
        unit = [u[vis] for u in unit]
    # (east, north, up) of the visible pairs: satellite-major within each
    # epoch, so each sample's satellites stay in input order
    east = basis[0, 0][site] * unit[0] + basis[0, 1][site] * unit[1]
    e = [east, _dot([basis[1, c][site] for c in range(3)], unit), up]
    del unit, site

    # Per-sample sums of the geometry rows [-e, -n, -u, 1], for the samples
    # with the four satellites a solution needs: the count k, b = -sum e and
    # A = sum e e^T, so that the normal matrix is N = [[A, b], [b^T, k]].
    size = tile * m
    count = np.bincount(sample, minlength=size)
    pdop = np.full(size, np.nan)
    enough = np.flatnonzero(count >= 4)
    k = count[enough].astype(float)
    b = np.stack([-np.bincount(sample, e[i], minlength=size)[enough] for i in range(3)])
    a = np.empty((3, 3, enough.size))
    for i in range(3):
        for j in range(i, 3):
            a[i, j] = a[j, i] = np.bincount(sample, e[i] * e[j], minlength=size)[enough]

    sure, proven, minor, det = _schur(k, b, a)
    pdop[enough[sure]] = np.sqrt((minor[0] + minor[1] + minor[2])[sure] / det[sure])

    rest = np.flatnonzero(~sure)
    if rest.size:
        normal = np.empty((rest.size, 4, 4))
        normal[:, :3, :3] = a[:, :, rest].transpose(2, 0, 1)
        normal[:, :3, 3] = normal[:, 3, :3] = b[:, rest].T
        normal[:, 3, 3] = k[rest]
        good, q = _fallback(normal, proven[rest])
        pdop[enough[rest[good]]] = np.sqrt(q[:, 0] + q[:, 1] + q[:, 2])
    return count.reshape(tile, m), pdop.reshape(tile, m)


def _dot(x: list[np.ndarray], y: list[np.ndarray]) -> np.ndarray:
    """Dot products of component-major 3-vectors, summed in the order
    ``einsum("pab,pb->pa")`` takes: (x0 y0 + x2 y2) + x1 y1."""
    return (x[0] * y[0] + x[2] * y[2]) + x[1] * y[1]


def _schur(
    k: np.ndarray, b: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], np.ndarray]:
    """The closed-form step: which samples are provably well-conditioned.

    Takes the blocks of normal matrices N = [[A, b], [b^T, k]] with the
    sample axis last (k: (n,), b: (3, n), A: (3, 3, n)).  For symmetric
    PSD N, cond(N) <= tr(N)^4 / det(N), and det(N) = k det S with
    S = A - b b^T / k the Schur complement of k; the position block of
    inv(N) is inv(S), so Q_ee, Q_nn and Q_uu are S's principal 2x2 minors
    over det S.

    Returns:
        (sure, proven, minor, det): the masks of samples whose bound is
        within ``_SURE_CONDITION`` and within ``_PROVEN_CONDITION``, and
        S's three minors and determinant.
    """
    s = a - b[:, None] * b[None, :] / k
    minor = [s[i, i] * s[j, j] - s[i, j] ** 2 for i, j in ((1, 2), (0, 2), (0, 1))]
    det = (
        s[0, 0] * minor[0]
        - s[0, 1] * (s[0, 1] * s[2, 2] - s[1, 2] * s[0, 2])
        + s[0, 2] * (s[0, 1] * s[1, 2] - s[1, 1] * s[0, 2])
    )
    bound = (a[0, 0] + a[1, 1] + a[2, 2] + k) ** 4
    return (bound <= _SURE_CONDITION * k * det, bound <= _PROVEN_CONDITION * k * det,
            minor, det)


def _fallback(normal: np.ndarray, proven: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LAPACK step, for the normal matrices the closed form cannot
    clear in one kernel call, or for ``dop``'s one matrix.  The matrices
    ``_schur`` proved defined go straight to the inverse; the rest take an
    eigenvalue condition test first, which keeps undefined masks and the
    values of nearly singular samples independent of the closed form.  The
    inverse of each matrix is the same whichever test admitted it, and
    LAPACK solves each matrix of a stack on its own, so how the samples are
    split between calls changes no value.

    Returns:
        (good, q): the mask of matrices proven defined or whose condition
        number is within ``CONDITION_LIMIT``, and the diagonal of inv(N)
        of those, shape (good.sum(), 4).
    """
    good = proven.copy()
    doubt = np.flatnonzero(~proven)
    if doubt.size:
        eig = np.linalg.eigvalsh(normal[doubt])  # ascending; N is symmetric PSD
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(eig[:, 0] > 0.0, eig[:, -1] / eig[:, 0], np.inf)
        good[doubt] = cond <= CONDITION_LIMIT
    return good, np.linalg.inv(normal[good]).diagonal(axis1=1, axis2=2)


def weighted_percentile(
    pdop: np.ndarray, site_weight: np.ndarray, percentile: float
) -> float:
    """Weighted percentile of the defined samples of a (sites, epochs)
    matrix, with linear interpolation between order statistics.

    NaN marks an undefined sample, which is skipped; every sample of a row
    takes that row's site weight.  Defined values must be finite, weights
    finite and strictly positive.  Reduces exactly to numpy's linear
    method for equal weights; ties in value break by flat sample index, so
    the result is that of the defined samples in row-major order.  The flat
    matrix is sorted once, on a key that reads NaN as +inf: numpy sorts an
    array that holds no NaN on its vectorised path, and one that holds any
    several times slower.  The first n entries in key order are then the n
    defined samples, and infinities, if any, sit at the two ends of that
    block.  Only tied values can tell a stable sort from another, so the
    stable one runs only when the default sort leaves two equal defined
    values side by side.
    """
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile ({percentile}) must lie in (0, 100]")
    m = np.asarray(pdop, dtype=float)
    w = np.asarray(site_weight, dtype=float)
    if m.ndim != 2 or w.shape != m.shape[:1]:
        raise ValueError("pdop must be a matrix with one row per site weight")
    if not np.all((w > 0.0) & np.isfinite(w)):
        raise ValueError("weights must be finite and strictly positive")
    flat = m.ravel()
    n = flat.size - int(np.count_nonzero(np.isnan(flat)))  # the defined count
    if n == 0:
        raise ValueError("cannot take a percentile of zero defined samples")
    order, v = _sort_defined(flat, n, None)
    if math.isinf(v[0]) or math.isinf(v[-1]):
        raise ValueError("values must be finite or NaN")
    if n == 1:
        return float(v[0])
    if (v[1:] == v[:-1]).any():
        del order, v
        order, v = _sort_defined(flat, n, "stable")
    order //= m.shape[1]  # each sample's site row
    w = w[order[:n]]
    del order
    cum = np.cumsum(w)
    # Position of each order statistic on [0, 1]; equal weights give
    # i/(n-1): (cum - w) / (cum[-1] - w[-1]), built in cum.
    total = cum[-1] - w[-1]
    cum -= w
    cum /= total
    return float(np.interp(percentile / 100.0, cum, v))


def _sort_defined(
    flat: np.ndarray, n: int, kind: str | None
) -> tuple[np.ndarray, np.ndarray]:
    """The argsort of ``flat`` with NaN read as +inf, and the first n values
    in that order: ``weighted_percentile``'s sort of its n defined samples.
    With every sample defined, ``flat`` is its own key and is not copied."""
    key = flat if n == flat.size else np.where(np.isnan(flat), np.inf, flat)
    order = np.argsort(key, kind=kind)
    return order, key[order[:n]]


def percentile_pdop(
    spec: WalkerSpec,
    grid: GroundGrid,
    window: TimeWindow,
    mask_deg: float,
    percentile: float,
    earth: EarthModel,
    aggregation: str,
    *,
    receive: Callable[[], PdopSamples] | None = None,
) -> PercentilePdop:
    """Global percentile PDOP of one constellation over a grid and window.

    Pooled aggregation takes the site-weighted percentile over
    every defined (site, epoch) sample, from ``weighted_percentile`` on the
    sample matrix and the site weights, with no masked copy; "worst_site"
    takes the per-site percentile over time and returns the worst site's
    value.  Coverage is the plain fraction of samples with a defined PDOP;
    with none, the value is None, as ``pdop_field`` gives NaN for such a
    site.
    ``receive`` goes to ``pdop_samples``.
    """
    if aggregation not in ("pooled", "worst_site"):
        raise ValueError(
            f"aggregation ({aggregation!r}) must be 'pooled' or 'worst_site'"
        )
    samples = pdop_samples(spec, grid, window, mask_deg, earth, receive=receive)
    n_defined = int(np.count_nonzero(samples.defined))
    coverage = n_defined / samples.pdop.size
    if not n_defined:
        return PercentilePdop(value=None, coverage=0.0)
    if aggregation == "pooled":
        value = weighted_percentile(samples.pdop, grid.weight, percentile)
        return PercentilePdop(value=value, coverage=coverage)
    worst = float(np.nanmax(_site_percentiles(samples.pdop, percentile)))
    return PercentilePdop(value=worst, coverage=coverage)


def _site_percentiles(pdop: np.ndarray, percentile: float) -> np.ndarray:
    """Each row's percentile over its defined samples; NaN for empty rows.

    The linear method ``weighted_percentile`` takes on one row with equal
    weights, all rows at once: each row sorted with NaN last, interpolated
    at (n_i - 1) * percentile / 100 over its n_i defined samples.
    """
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile ({percentile}) must lie in (0, 100]")
    ordered = np.sort(pdop, axis=1)
    n = np.isfinite(pdop).sum(axis=1)
    last = np.maximum(n - 1, 0)
    pos = last * (percentile / 100.0)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, last)
    v_lo = np.take_along_axis(ordered, lo[:, None], axis=1)[:, 0]
    v_hi = np.take_along_axis(ordered, hi[:, None], axis=1)[:, 0]
    return np.where(n > 0, v_lo + (pos - lo) * (v_hi - v_lo), np.nan)


def pdop_field(
    spec: WalkerSpec,
    grid: GroundGrid,
    window: TimeWindow,
    mask_deg: float,
    percentile: float,
    earth: EarthModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-site percentile PDOP over the window.

    Returns:
        (values, coverage): arrays over sites; values are NaN for sites
        with no defined sample, coverage is each site's defined fraction.
    """
    samples = pdop_samples(spec, grid, window, mask_deg, earth)
    coverage = samples.defined.mean(axis=1)
    return _site_percentiles(samples.pdop, percentile), coverage
