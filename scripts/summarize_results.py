#!/usr/bin/env python3
"""Summarize results/*.json into the EXPERIMENTS.md recorded-results block.

Usage: python3 scripts/summarize_results.py [results_dir]

Prints a markdown summary; use `--write` to splice it between the
`<!-- results-summary:begin -->` / `<!-- results-summary:end -->` markers of
EXPERIMENTS.md.
"""

import json
import math
import sys
from pathlib import Path


def geomean(xs):
    xs = [max(x, 1e-12) for x in xs]
    if not xs:
        return float("nan")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def load(results_dir, name):
    path = results_dir / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def by_engine(runs):
    out = {}
    for r in runs:
        out.setdefault(r["engine"], {})[r["benchmark"]] = r
    return out


def summarize(results_dir: Path) -> str:
    lines = ["## Recorded results (auto-generated)", ""]

    t2 = load(results_dir, "table2")
    if t2:
        eng = by_engine(t2["runs"])
        dac = eng.get("dacpara", {})
        for other_name in ["abc-rewrite", "iccad18"]:
            other = eng.get(other_name, {})
            common = sorted(set(dac) & set(other))
            if not common:
                continue
            tr = geomean([other[b]["time_s"] / max(dac[b]["time_s"], 1e-9) for b in common])
            ar = geomean(
                [
                    max(other[b]["area_reduction"], 1) / max(dac[b]["area_reduction"], 1)
                    for b in common
                ]
            )
            lines.append(
                f"* **Table 2** {other_name} vs DACPara: time ratio {tr:.2f}x, "
                f"area-reduction ratio {ar:.4f} (paper: ABC 34.36x/1.0018, "
                f"ICCAD'18 1.96x/1.0056 — time ratios are core-count-bound, "
                f"see the scaling caveats)"
            )
        verdicts = [r.get("verdict") for r in t2["runs"]]
        counts = {v: verdicts.count(v) for v in ["proven", "undecided", "sim-only"]}
        unrecorded = len(verdicts) - sum(counts.values())
        line = (
            f"* **Table 2** equivalence checks over {len(verdicts)} runs: "
            f"{counts['proven']} proven, {counts['undecided']} undecided, "
            f"{counts['sim-only']} sim-only"
        )
        if unrecorded:
            line += f", {unrecorded} unverified (recorded before verdicts were kept)"
        lines.append(line + "; a disproved check aborts the harness")

    t3 = load(results_dir, "table3")
    if t3:
        eng = by_engine(t3["runs"])
        p2 = eng.get("dacpara", {})
        for name in ["dac22-static", "tcad23-static", "iccad18"]:
            other = eng.get(name, {})
            common = sorted(set(p2) & set(other))
            if not common:
                continue
            ar = geomean(
                [
                    max(other[b]["area_reduction"], 1) / max(p2[b]["area_reduction"], 1)
                    for b in common
                ]
            )
            lines.append(
                f"* **Table 3** {name} area-reduction ratio vs DACPara-P2: {ar:.4f} "
                f"(paper: DAC'22 0.9873, TCAD'23 0.9885 — i.e. the static methods "
                f"reduce ~1.1% less)"
            )

    f2 = load(results_dir, "fig2")
    if f2:
        eng = {}
        for r in f2["runs"]:
            eng.setdefault(r["engine"], []).append(r)
        for name, rs in sorted(eng.items()):
            multi = [r for r in rs if r["aborts"] + r["conflicts"] > 0]
            w = max((r["wasted_fraction"] for r in rs), default=0.0)
            lines.append(
                f"* **Fig. 2** {name}: max wasted-work fraction {w * 100:.2f}% "
                f"({len(multi)}/{len(rs)} runs saw conflicts)"
            )

    f3 = load(results_dir, "fig3")
    if f3:
        reval = sum(r["revalidated"] for r in f3["runs"])
        stale = sum(r["stale_skipped"] for r in f3["runs"])
        repl = sum(r["replacements"] for r in f3["runs"])
        lines.append(
            f"* **Fig. 3** across the suite: {repl} replacements committed, "
            f"{reval} stored cuts revalidated by re-enumeration, {stale} stale "
            f"results skipped (missed opportunities)"
        )

    ab = load(results_dir, "ablations")
    if ab:
        lines.append("* **Ablations**: see `results/ablations.md`.")

    sp = load(results_dir, "speedup")
    if sp:
        lines.append("* **Speedup sweep**: see `results/speedup.md`.")

    lines.append("")
    return "\n".join(lines)


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    results_dir = Path(args[0]) if args else Path("results")
    text = summarize(results_dir)
    if "--write" in sys.argv:
        exp = Path("EXPERIMENTS.md")
        content = exp.read_text()
        begin = "<!-- results-summary:begin -->"
        end = "<!-- results-summary:end -->"
        pre, rest = content.split(begin, 1)
        _, post = rest.split(end, 1)
        exp.write_text(pre + begin + "\n" + text + end + post)
        print("EXPERIMENTS.md updated")
    else:
        print(text)


if __name__ == "__main__":
    main()
