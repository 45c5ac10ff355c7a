"""Compare two sweep summaries, flagging results from different environments.

    python3 perfbench/compare.py BASE.json NEW.json

For every workload and end-to-end metric it prints the change, signed so that
positive is worse, against the metric's bound.  When the two files come from
one ``sweep.py --base`` run (the same ``pair_id``), the change is the median
over seeds of NEW/BASE - 1, each seed's two runs having been made back to
back, and ``wins`` is the share of seeds where NEW was better.  Otherwise it
is the ratio of the two medians, and host drift between the sweeps counts as
change.  A change beyond the bound reads ``WORSE``; where the base's own
spread already exceeds the bound it reads ``unresolved`` instead of ``ok``.
Exit status: 0 when nothing is worse, 1 when something is, 2 when the
environment headers differ (numpy >= 2.3 alone changes this code's speed by
more than 10x, so such timings do not compare).
"""

from __future__ import annotations

import json
import statistics
import sys

# Header fields that name the code measured rather than where it ran.
CODE_FIELDS = {"rfw_commit", "rfw_source_sha256"}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    base, new = (json.load(open(path)) for path in argv)
    differ = {k for k in set(base["env"]) | set(new["env"])
              if k not in CODE_FIELDS and base["env"].get(k) != new["env"].get(k)}
    for k in sorted(differ):
        print(f"ENVIRONMENT DIFFERS: {k}: {base['env'].get(k)!r} vs {new['env'].get(k)!r}")
    paired = base.get("pair_id") is not None and base.get("pair_id") == new.get("pair_id")
    print("paired: judged seed by seed" if paired else
          "not paired: drift of the host between the two sweeps counts as change")
    worse = False
    for name, metrics in base["end_to_end"].items():
        for metric, b in metrics.items():
            n = new["end_to_end"].get(name, {}).get(metric)
            if n is None:
                print(f"{name:<7} {metric:<12} missing from {argv[1]}")
                continue
            if paired:
                ratios = [y / x for x, y in zip(b["values"], n["values"])]
                change = statistics.median(ratios) - 1
                wins = f"  wins {sum(r < 1 for r in ratios)}/{len(ratios)}"
            else:
                change, wins = n["median"] / b["median"] - 1, ""
            verdict = ("WORSE" if change > b["bound"] else
                       "unresolved" if b["spread"] > b["bound"] else "ok")
            worse |= verdict == "WORSE"
            print(f"{name:<7} {metric:<12} {b['median']:.4f} -> {n['median']:.4f} "
                  f"{b['unit']:<3} {change:+.2%} (bound {b['bound']:.0%}){wins}  {verdict}")
    return 2 if differ else 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
