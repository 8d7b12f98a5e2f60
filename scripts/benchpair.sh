#!/bin/sh
# benchpair.sh <revA> <revB> <pkg> <bench regex> [rounds]
#
# Paired comparison of Go benchmarks between two revisions. Each revision
# is checked out into its own temporary git worktree and its test binary is
# built once (go test -c -trimpath, so one revision gives one binary). The binaries then run in ABBA order — round 1
# A then B, round 2 B then A, and so on — each once per round from its
# package directory with -test.run '^$' -test.count 1 -test.benchmem, so a
# change in the machine's speed mid-run hits both sides alike. Both run at
# the shell's GOMAXPROCS. For every benchmark and unit it
# prints each round's ratio B/A, the median ratio, "B faster in k of n" and
# the verdict: "faster" (or "slower") when B is better (worse) in at least
# nine rounds of ten and its median is better (worse) than A's by more than
# the distance between A's quartiles, else "no change". A unit that is a
# rate (MB/s, pts/ms: anything per unit of time) is better higher; every
# other unit (ns/op, B/op, allocs/op, ns/particle) is better lower.
#
# The worktrees are removed on exit. Each round's values and each summary
# go to one JSONL file, $BENCHPAIR_OUT (default benchpair.jsonl).
#
# Example, a revision against itself (must read "no change"):
#   scripts/benchpair.sh HEAD HEAD ./internal/particles 'Marshal32k$' 10
set -eu

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
	echo "usage: $0 <revA> <revB> <pkg> <bench regex> [rounds]" >&2
	exit 2
fi
revA=$1 revB=$2 pkg=$3 regex=$4 rounds=${5:-10}
out=$(realpath -m "${BENCHPAIR_OUT:-benchpair.jsonl}")
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	for side in A B; do
		[ -d "$tmp/$side" ] && git -C "$root" worktree remove --force "$tmp/$side"
	done
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

for side in A B; do
	eval "rev=\$rev$side"
	git -C "$root" worktree add --quiet --detach "$tmp/$side" "$rev"
	# -trimpath: the worktree's path would otherwise end up in the binary,
	# and code placed at other addresses can time differently.
	(cd "$tmp/$side" && go test -c -trimpath -o "$tmp/$side.test" "$pkg")
done

# One line per benchmark result: "<round> <side> <go bench output line>".
round=1
while [ "$round" -le "$rounds" ]; do
	order="A B"
	[ $((round % 2)) -eq 0 ] && order="B A"
	for side in $order; do
		(cd "$tmp/$side/$pkg" && "$tmp/$side.test" -test.run '^$' -test.bench "$regex" \
			-test.count 1 -test.benchmem -test.timeout 10m) |
			sed -n "s/^\(Benchmark[^ 	]*\)/$round $side \1/p" >>"$tmp/runs"
	done
	round=$((round + 1))
done
[ -s "$tmp/runs" ] || { echo "no benchmark matched $regex in $pkg" >&2; exit 1; }

python3 - "$tmp/runs" "$out" "$revA" "$revB" "$pkg" <<'EOF'
import json, statistics, sys

runs, out, rev_a, rev_b, pkg = sys.argv[1:]
vals = {}  # (bench, unit) -> {round: {side: value}}
for line in open(runs):
    f = line.split()
    rnd, side, bench = int(f[0]), f[1], f[2]
    for v, unit in zip(f[4::2], f[5::2]):  # f[3] is the iteration count
        vals.setdefault((bench, unit), {}).setdefault(rnd, {})[side] = float(v)

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q[0], q[2]

with open(out, "w") as w:
    for (bench, unit), by_round in vals.items():
        higher = unit.split("/")[-1] in ("s", "ms", "us", "ns")
        pairs = [(r, p["A"], p["B"]) for r, p in sorted(by_round.items()) if "A" in p and "B" in p]
        ratios = [b / a if a else (1.0 if b == a else float("inf")) for _, a, b in pairs]
        for (r, a, b), ratio in zip(pairs, ratios):
            w.write(json.dumps({"bench": bench, "unit": unit, "round": r, "a": a, "b": b, "ratio": ratio}) + "\n")
        a_vals, b_vals = [a for _, a, _ in pairs], [b for _, _, b in pairs]
        better = sum(b > a if higher else b < a for _, a, b in pairs)
        worse = sum(b < a if higher else b > a for _, a, b in pairs)
        n, need = len(pairs), -(-9 * len(pairs) // 10)
        q1, q3 = quartiles(a_vals)
        gap = statistics.median(b_vals) - statistics.median(a_vals)
        if not higher:
            gap = -gap
        verdict = "no change"
        if better >= need and gap > q3 - q1:
            verdict = "faster"
        elif worse >= need and -gap > q3 - q1:
            verdict = "slower"
        med = statistics.median(ratios)
        w.write(json.dumps({"bench": bench, "unit": unit, "a_rev": rev_a, "b_rev": rev_b, "pkg": pkg,
                            "rounds": n, "median_ratio": med, "b_better": better, "verdict": verdict}) + "\n")
        print(f"{bench} {unit} ({'higher' if higher else 'lower'} is better)")
        print("  ratios B/A:", " ".join(f"{x:.3f}" for x in ratios))
        print(f"  median ratio {med:.3f}; B faster in {better} of {n}; A IQR {q3 - q1:.4g}: {verdict}")
print(f"wrote {out}")
EOF
