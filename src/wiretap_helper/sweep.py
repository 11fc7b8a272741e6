"""Parameter sweeps over one axis, with CSV and SVG output.

Gaussian sweeps plot the rate carried by the alignment structure,
normalized by log2 SNR1; the constant per-level decoding penalty vanishes
under that normalization in the high-SNR reading the curves illustrate.
The single-instance report (`rates`) shows both the structure rate and
the penalized rate.  With `asymptotic` set, rows instead report the
deterministic rate of the corresponding integer instance normalized by
its direct gain.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import IO

from .bounds import UpperBounds, gaussian_upper_bounds, upper_bounds
from .errors import ParameterError
from .gaussian import GaussianParams, correspondence, gaussian_rate
from .ldm import ChannelParams
from .scheme import r_achievable

DET_AXES = ("n11", "n21", "n2")
GAUSS_AXES = ("beta1", "beta2")

MAX_SWEEP_ROWS = 100_000

CSV_COLUMNS = (
    "axis_value", "r_ach", "r_private", "r_common",
    "ub1", "ub2", "ub3", "min_ub",
    "normalized_ach", "normalized_ub", "case_tag",
)


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    start: Fraction
    stop: Fraction
    step: Fraction
    fixed: dict[str, Fraction] = field(default_factory=dict)
    log_snr1: Fraction = Fraction(40)
    const_c: Fraction = Fraction(0)
    asymptotic: bool = False

    def grid(self) -> list[Fraction]:
        if self.step <= 0:
            raise ParameterError("sweep step must be positive")
        if self.start > self.stop:
            raise ParameterError("sweep start must not exceed stop")
        count = (self.stop - self.start) // self.step + 1
        if count > MAX_SWEEP_ROWS:
            raise ParameterError(f"sweep has {count} rows, above the cap of {MAX_SWEEP_ROWS}")
        return [self.start + k * self.step for k in range(count)]


@dataclass(frozen=True)
class SweepRow:
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


def _row(axis_value: Fraction, rates, ub: UpperBounds, norm_den: Fraction) -> SweepRow:
    r_ach, r_priv, r_comm, tag = rates
    if norm_den > 0:
        norm_ach = Fraction(r_ach) / norm_den
        norm_ub = ub.min_ub / norm_den
    else:
        norm_ach = norm_ub = Fraction(0)
    return SweepRow(
        axis_value=axis_value,
        r_ach=Fraction(r_ach), r_private=Fraction(r_priv), r_common=Fraction(r_comm),
        ub1=ub.ub1, ub2=ub.ub2, ub3=ub.ub3, min_ub=ub.min_ub,
        normalized_ach=norm_ach, normalized_ub=norm_ub,
        case_tag=tag.value,
    )


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    values = spec.grid()
    rows = []
    if spec.axis in GAUSS_AXES:
        other = "beta2" if spec.axis == "beta1" else "beta1"
        if other not in spec.fixed:
            raise ParameterError(f"sweep over {spec.axis} needs a fixed {other}")
        for v in values:
            betas = {spec.axis: v, other: spec.fixed[other]}
            g = GaussianParams(spec.log_snr1, betas["beta1"], betas["beta2"])
            cp = correspondence(g)
            ub = gaussian_upper_bounds(cp, spec.const_c)
            if spec.asymptotic:
                det = r_achievable(cp)
                rates = (det.r_ach, det.r_private, det.r_common, det.case_tag)
                rows.append(_row(v, rates, ub, Fraction(cp.n11)))
            else:
                gb = gaussian_rate(g)
                rates = (gb.r_gross, gb.r_private, gb.r_common, gb.case_tag)
                rows.append(_row(v, rates, ub, spec.log_snr1))
    elif spec.axis in DET_AXES:
        missing = [a for a in DET_AXES if a != spec.axis and a not in spec.fixed]
        if missing:
            raise ParameterError(f"sweep over {spec.axis} needs fixed {missing}")
        for v in values:
            params = {spec.axis: v}
            params.update({a: spec.fixed[a] for a in DET_AXES if a != spec.axis})
            ints = {}
            for name, val in params.items():
                if val.denominator != 1 or val < 0:
                    raise ParameterError(
                        f"{name} grid values must be nonnegative integers, got {val}"
                    )
                ints[name] = int(val)
            p = ChannelParams(**ints)
            det = r_achievable(p)
            ub = upper_bounds(p)
            rates = (det.r_ach, det.r_private, det.r_common, det.case_tag)
            rows.append(_row(v, rates, ub, Fraction(p.n11)))
    else:
        raise ParameterError(f"unknown sweep axis {spec.axis!r}")
    return rows


def format_number(x: Fraction) -> str:
    """Integers bare; everything else with exactly six decimal places."""
    if x.denominator == 1:
        return str(x.numerator)
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(x.numerator) / Decimal(x.denominator)
        return str(d.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN))


def write_csv(rows: list[SweepRow], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow(
            [format_number(getattr(r, c)) for c in CSV_COLUMNS[:-1]] + [r.case_tag]
        )


def _svg_path(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in points)


def write_svg(rows: list[SweepRow], fh: IO[str], axis_label: str) -> None:
    """Minimal static line plot: normalized achievable and converse curves."""
    width, height = 720, 460
    ml, mr, mt, mb = 70, 24, 24, 56
    plot_w, plot_h = width - ml - mr, height - mt - mb
    xs = [float(r.axis_value) for r in rows]
    ach = [float(r.normalized_ach) for r in rows]
    ubs = [float(r.normalized_ub) for r in rows]
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
        fx = x_lo + x_span * i / 5
        px, _ = to_px(fx, 0)
        out.append(
            f'<line x1="{px:.2f}" y1="{mt}" x2="{px:.2f}" y2="{mt + plot_h}" '
            'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{mt + plot_h + 18}" font-size="12" '
            f'text-anchor="middle">{fx:.2f}</text>'
        )
        fy = y_hi * i / 5
        _, py = to_px(x_lo, fy)
        out.append(
            f'<line x1="{ml}" y1="{py:.2f}" x2="{ml + plot_w}" y2="{py:.2f}" '
            'stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end">{fy:.2f}</text>'
        )
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>'
    )
    out.append(
        f'<polyline fill="none" stroke="#d62728" stroke-width="1.5" '
        f'stroke-dasharray="6,3" points="{_svg_path([to_px(x, y) for x, y in zip(xs, ubs)])}"/>'
    )
    out.append(
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
        f'points="{_svg_path([to_px(x, y) for x, y in zip(xs, ach)])}"/>'
    )
    out.append(
        f'<text x="{ml + plot_w / 2:.2f}" y="{height - 16}" font-size="14" '
        f'text-anchor="middle">{axis_label}</text>'
    )
    out.append(
        f'<text x="18" y="{mt + plot_h / 2:.2f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + plot_h / 2:.2f})">normalized rate</text>'
    )
    lx, ly = ml + plot_w - 200, mt + 14
    out.append(
        f'<line x1="{lx}" y1="{ly}" x2="{lx + 28}" y2="{ly}" stroke="#1f77b4" '
        'stroke-width="1.5"/>'
    )
    out.append(f'<text x="{lx + 34}" y="{ly + 4}" font-size="12">achievable</text>')
    out.append(
        f'<line x1="{lx + 110}" y1="{ly}" x2="{lx + 138}" y2="{ly}" stroke="#d62728" '
        'stroke-width="1.5" stroke-dasharray="6,3"/>'
    )
    out.append(f'<text x="{lx + 144}" y="{ly + 4}" font-size="12">upper bound</text>')
    out.append("</svg>")
    fh.write("\n".join(out) + "\n")
