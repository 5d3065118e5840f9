"""Tiny self-contained SVG emitters (no plotting dependency).

CSV output is always the ground truth; these plots are convenience views
of the log Z curve and the log-weight histogram.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT, MARGIN = 640, 420, 55


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def _frame(title, xlabel, ylabel, xlo, xhi, ylo, yhi):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{MARGIN}" y1="{HEIGHT-MARGIN}" x2="{WIDTH-MARGIN}" '
        f'y2="{HEIGHT-MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT-MARGIN}" '
        f'stroke="black"/>',
        f'<text x="{WIDTH/2}" y="{HEIGHT-12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="15" y="{HEIGHT/2}" text-anchor="middle" '
        f'transform="rotate(-90 15 {HEIGHT/2})">{ylabel}</text>',
        f'<text x="{MARGIN}" y="{HEIGHT-MARGIN+16}">{xlo:.3g}</text>',
        f'<text x="{WIDTH-MARGIN}" y="{HEIGHT-MARGIN+16}" text-anchor="end">{xhi:.3g}</text>',
        f'<text x="{MARGIN-4}" y="{HEIGHT-MARGIN}" text-anchor="end">{ylo:.3g}</text>',
        f'<text x="{MARGIN-4}" y="{MARGIN+4}" text-anchor="end">{yhi:.3g}</text>',
    ]
    return parts


def logz_curve_svg(curves, logz_true=None):
    """``curves``: {label: [(m, logZ, sd), ...]} with m on a log axis."""
    title = "log Z estimate vs samples"
    pts = [
        (math.log10(m), z, sd)
        for curve in curves.values()
        for m, z, sd in curve
        if math.isfinite(z)
    ]
    if not pts:
        return "\n".join(_frame(title, "", "", 0, 1, 0, 1)) + "</svg>\n"
    xs = [p[0] for p in pts]
    ys = [p[1] - (p[2] if math.isfinite(p[2]) else 0) for p in pts]
    ys += [p[1] + (p[2] if math.isfinite(p[2]) else 0) for p in pts]
    if logz_true is not None:
        ys.append(logz_true)
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    pad = 0.05 * (yhi - ylo or 1.0)
    ylo, yhi = ylo - pad, yhi + pad
    parts = _frame(title, "log10(samples)", "log Z", xlo, xhi, ylo, yhi)
    colors = ["steelblue", "firebrick", "seagreen", "darkorange"]
    if logz_true is not None:
        [y] = _scale([logz_true], ylo, yhi, HEIGHT - MARGIN, MARGIN)
        parts.append(
            f'<line x1="{MARGIN}" y1="{y:.1f}" x2="{WIDTH-MARGIN}" y2="{y:.1f}" '
            f'stroke="gray" stroke-dasharray="4 3"/>'
        )
    for ci, (label, curve) in enumerate(curves.items()):
        color = colors[ci % len(colors)]
        good = [(m, z, sd) for m, z, sd in curve if math.isfinite(z)]
        px = _scale([math.log10(m) for m, _, _ in good], xlo, xhi, MARGIN, WIDTH - MARGIN)
        py = _scale([z for _, z, _ in good], ylo, yhi, HEIGHT - MARGIN, MARGIN)
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(px, py))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for (m, z, sd), x in zip(good, px):
            if math.isfinite(sd):
                [y0] = _scale([z - sd], ylo, yhi, HEIGHT - MARGIN, MARGIN)
                [y1] = _scale([z + sd], ylo, yhi, HEIGHT - MARGIN, MARGIN)
                parts.append(
                    f'<line x1="{x:.1f}" y1="{y0:.1f}" x2="{x:.1f}" y2="{y1:.1f}" '
                    f'stroke="{color}"/>'
                )
        parts.append(
            f'<text x="{WIDTH-MARGIN-5}" y="{MARGIN+15+15*ci}" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def histogram_svg(values, bins=60, title="log importance weights"):
    values = [v for v in values if math.isfinite(v)]
    if not values:
        return "\n".join(_frame(title, "", "count", 0, 1, 0, 1)) + "</svg>\n"
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    counts = [0] * bins
    for v in values:
        idx = min(int((v - lo) / (hi - lo) * bins), bins - 1)
        counts[idx] += 1
    cmax = max(counts)
    parts = _frame(title, "log weight", "count", lo, hi, 0, cmax)
    bw = (WIDTH - 2 * MARGIN) / bins
    for i, c in enumerate(counts):
        if c == 0:
            continue
        h = c / cmax * (HEIGHT - 2 * MARGIN)
        x = MARGIN + i * bw
        y = HEIGHT - MARGIN - h
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bw:.1f}" height="{h:.1f}" '
            f'fill="steelblue" data-bin-lo="{lo + i*(hi-lo)/bins:.6g}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
