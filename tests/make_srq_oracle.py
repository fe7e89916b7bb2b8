"""Write tests/data/srq_oracle.json: upper-alpha studentized range
quantiles from scipy, the oracle for ``stats.studentized_range_quantile``.

    python3 tests/make_srq_oracle.py

Takes a few minutes: each point is a scipy ``ppf`` over a 2-D ``nquad``.
"""

import json
import math
from pathlib import Path

import scipy
from scipy.stats import studentized_range

ALPHAS = (0.01, 0.05, 0.10)
KS = tuple(range(2, 21))
DFS = (5, 10, 30, 120, 2500, 9600, 10000, 99999, 100000, math.inf)

OUT = Path(__file__).resolve().parent / "data" / "srq_oracle.json"


def main():
    rows = []
    for df in DFS:
        for alpha in ALPHAS:
            for k in KS:
                q = float(studentized_range.ppf(1.0 - alpha, k, df))
                point = [alpha, k, "inf" if math.isinf(df) else df, q]
                rows.append(json.dumps(point))
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(
        f'{{"scipy": "{scipy.__version__}",\n'
        ' "columns": ["alpha", "k", "df", "q"],\n'
        ' "points": [\n' + ",\n".join(rows) + "\n]}\n")
    print(f"wrote {len(rows)} points to {OUT}")


if __name__ == "__main__":
    main()
