"""Parameter sweeps over one axis, with CSV and SVG output.

Gaussian sweeps plot the rate carried by the alignment structure,
normalized by log2 SNR1; the constant per-level decoding penalty vanishes
under that normalization in the high-SNR reading the curves illustrate.
The single-instance report (`gaussian`) shows both the structure rate and
the penalized rate.  With `asymptotic` set, rows instead report the
deterministic rate of the corresponding integer instance normalized by
its direct gain.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType
from typing import IO, NamedTuple

from .bounds import gaussian_upper_bounds, upper_bounds
from .errors import ParameterError
from .gaussian import GaussianParams, correspondence, gaussian_rate, to_fraction
from .ldm import ChannelParams
from .scheme import r_achievable

DET_AXES = ("n11", "n21", "n2")
GAUSS_AXES = ("beta1", "beta2")

MAX_SWEEP_ROWS = 100_000
DEFAULT_LOG_SNR1 = Fraction(40)  # also the default of ``wth gaussian --log-snr1``


class SweepSpec(NamedTuple):
    axis: str
    start: Fraction
    stop: Fraction
    step: Fraction
    fixed: Mapping[str, Fraction] = MappingProxyType({})  # read-only, so safe to share
    log_snr1: Fraction | None = None  # None: not given (see ``run_sweep``)
    const_c: Fraction | None = None
    asymptotic: bool = False

    def grid(self) -> list[Fraction]:
        """start, start + step, ... up to stop, each read by ``to_fraction``."""
        start, stop, step = to_fraction(self.start), to_fraction(self.stop), to_fraction(self.step)
        if step <= 0:
            raise ParameterError("sweep step must be positive")
        if start > stop:
            raise ParameterError("sweep start must not exceed stop")
        count = (stop - start) // step + 1
        if count > MAX_SWEEP_ROWS:
            raise ParameterError(f"sweep has {count} rows, above the cap of {MAX_SWEEP_ROWS}")
        (a, da), (b, db) = start.as_integer_ratio(), step.as_integer_ratio()
        return [Fraction(a * db + k * b * da, da * db) for k in range(count)]


class SweepRow(NamedTuple):
    axis_value: Fraction
    r_ach: Fraction
    r_private: Fraction
    r_common: Fraction
    ub1: Fraction
    ub2: Fraction
    ub3: Fraction
    min_ub: Fraction
    normalized_ach: Fraction
    normalized_ub: Fraction
    case_tag: str


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One row per grid value of ``spec.axis``.

    ``spec.fixed`` holds exactly the other axes of the swept family: the
    two other gains of a deterministic sweep, the other beta of a Gaussian
    one.  ``log_snr1`` and ``const_c`` default to None, "not given": a
    Gaussian sweep reads None as ``DEFAULT_LOG_SNR1`` and 0, and a
    deterministic sweep that gives either, or sets ``asymptotic``, raises
    ParameterError.  Every number of the spec (start, stop, step, the
    fixed values, ``log_snr1`` and ``const_c``) is read once, by
    ``to_fraction``, so it may be an int, float, str or Fraction.

    Cells that depend only on the integer gain triple are computed once
    per run of consecutive rows with that triple, so their cost scales with
    the distinct triples, not the rows.  They are the bounds, ``min_ub``
    and ``normalized_ub``, and on deterministic and asymptotic rows every
    cell but ``axis_value``.  On either beta axis the triple never
    decreases as the beta grows, so equal triples are consecutive.
    Finite-SNR Gaussian rows still call ``gaussian_rate`` row by row.
    """
    gaussian = spec.axis in GAUSS_AXES
    if not gaussian:
        if spec.axis not in DET_AXES:
            raise ParameterError(f"unknown sweep axis {spec.axis!r}")
        for name, given in (("log_snr1", spec.log_snr1 is not None),
                            ("const_c", spec.const_c is not None),
                            ("asymptotic", spec.asymptotic)):
            if given:
                raise ParameterError(f"{name} applies only to a sweep over beta1 or beta2")
    wanted = set(GAUSS_AXES if gaussian else DET_AXES) - {spec.axis}
    for name in sorted(wanted ^ set(spec.fixed)):
        verb = "needs" if name in wanted else "takes no"
        raise ParameterError(f"sweep over {spec.axis} {verb} fixed {name}")
    fixed = {name: to_fraction(x) for name, x in spec.fixed.items()}
    log_snr1 = DEFAULT_LOG_SNR1 if spec.log_snr1 is None else to_fraction(spec.log_snr1)
    const_c = 0 if spec.const_c is None else to_fraction(spec.const_c)
    per_row = gaussian and not spec.asymptotic  # rates from gaussian_rate, row by row
    norm = log_snr1.as_integer_ratio()
    rows, p = [], None
    for v in spec.grid():
        params = {**fixed, spec.axis: v}
        last = p
        if gaussian:
            g = GaussianParams(log_snr1, params["beta1"], params["beta2"])
            p = correspondence(g)
        else:
            for name, x in params.items():
                if x.denominator != 1:
                    raise ParameterError(f"{name} must be an integer, got {x}")
            p = ChannelParams(**{name: int(x) for name, x in params.items()})
        if p != last:
            ub = gaussian_upper_bounds(p, const_c) if gaussian else upper_bounds(p)
            min_ub = ub.min_ub
            if per_row:
                normalized_ub = _normalized(min_ub, *norm)
            else:
                br = r_achievable(p)
                r_ach, r_private, r_common = map(Fraction, (br.r_ach, br.r_private, br.r_common))
                cells = (r_ach, r_private, r_common, *ub, min_ub,
                         _normalized(r_ach, p.n11, 1), _normalized(min_ub, p.n11, 1),
                         br.case_tag.value)
        if per_row:
            br = gaussian_rate(g)
            cells = (br.r_gross, br.r_private, br.r_common, *ub, min_ub,
                     _normalized(br.r_gross, *norm), normalized_ub, br.case_tag.value)
        rows.append(SweepRow(v, *cells))
    return rows


def _normalized(x: Fraction, n: int, d: int) -> Fraction:
    """x / (n / d), and 0 for a zero normalizer."""
    return Fraction(x.numerator * d, x.denominator * n) if n else Fraction(0)


def format_number(x: Fraction | int) -> str:
    """Integers bare; everything else rounded half-even to six decimal places."""
    n, d = x.numerator, x.denominator
    q, r = divmod(abs(n) * 10**6, d)
    q += 2 * r > d or 2 * r == d and q & 1  # up past half, or to even at half
    whole, frac = divmod(q, 10**6)
    try:
        whole = str(whole)
    except ValueError:  # str() refuses ints longer than sys.get_int_max_str_digits()
        whole = str(Decimal(whole))
    return ("-" if n < 0 else "") + whole + (f".{frac:06d}" if d > 1 else "")


def write_csv(rows: Iterable[SweepRow], fh: IO[str]) -> None:
    """Header and one line per row; no field ever needs quoting.  A cell that is
    the very object the row above holds in its column reuses that row's text."""
    fh.write(",".join(SweepRow._fields) + "\n")
    last = texts = (None,) * 10  # no cell is None
    for r in rows:
        texts = [t if x is y else format_number(x) for x, y, t in zip(r[:-1], last, texts)]
        fh.write(",".join([*texts, r.case_tag]) + "\n")
        last = r


def _svg_path(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in points)


def write_svg(rows: Iterable[SweepRow], fh: IO[str], axis_label: str) -> None:
    """Minimal static line plot: normalized achievable and converse curves."""
    width, height = 720, 460
    ml, mr, mt, mb = 70, 24, 24, 56
    plot_w, plot_h = width - ml - mr, height - mt - mb
    try:
        points = [(float(r.axis_value), float(r.normalized_ach), float(r.normalized_ub))
                  for r in rows]
    except OverflowError:
        raise ParameterError("sweep values beyond the float range cannot be plotted; "
                             "write CSV instead") from None
    if not points:
        raise ParameterError("an SVG plot needs at least one row")
    xs, ach, ubs = zip(*points)
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    y_hi = max(1.0, max(ach, default=1.0), max(ubs, default=1.0)) * 1.05
    to_px = lambda x, y: (ml + (x - x_lo) / x_span * plot_w, mt + (1 - y / y_hi) * plot_h)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(6):
        fx, fy = x_lo + x_span * i / 5, y_hi * i / 5
        (px, _), (_, py) = to_px(fx, 0), to_px(x_lo, fy)
        out += [
            f'<line x1="{px:.2f}" y1="{mt}" x2="{px:.2f}" y2="{mt + plot_h}" '
            'stroke="#dddddd"/>',
            f'<text x="{px:.2f}" y="{mt + plot_h + 18}" font-size="12" '
            f'text-anchor="middle">{fx:.2f}</text>',
            f'<line x1="{ml}" y1="{py:.2f}" x2="{ml + plot_w}" y2="{py:.2f}" '
            'stroke="#dddddd"/>',
            f'<text x="{ml - 8}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end">{fy:.2f}</text>',
        ]
    lx, ly = ml + plot_w - 200, mt + 14
    out += [
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
        f'<polyline fill="none" stroke="#d62728" stroke-width="1.5" '
        f'stroke-dasharray="6,3" points="{_svg_path([to_px(x, y) for x, y in zip(xs, ubs)])}"/>',
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
        f'points="{_svg_path([to_px(x, y) for x, y in zip(xs, ach)])}"/>',
        f'<text x="{ml + plot_w / 2:.2f}" y="{height - 16}" font-size="14" '
        f'text-anchor="middle">{axis_label}</text>',
        f'<text x="18" y="{mt + plot_h / 2:.2f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + plot_h / 2:.2f})">normalized rate</text>',
        f'<line x1="{lx}" y1="{ly}" x2="{lx + 28}" y2="{ly}" stroke="#1f77b4" '
        'stroke-width="1.5"/>',
        f'<text x="{lx + 34}" y="{ly + 4}" font-size="12">achievable</text>',
        f'<line x1="{lx + 110}" y1="{ly}" x2="{lx + 138}" y2="{ly}" stroke="#d62728" '
        'stroke-width="1.5" stroke-dasharray="6,3"/>',
        f'<text x="{lx + 144}" y="{ly + 4}" font-size="12">upper bound</text>',
        "</svg>",
    ]
    fh.write("\n".join(out) + "\n")
