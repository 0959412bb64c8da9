#!/usr/bin/env python3
"""Layout-randomized A/B of two git revisions on one perfbench workload.

    python3 bench/layout_ab.py --base REV --change REV --workload W \
        [--pads 0,15,31,47,1087,1103,2095,3103] [--rounds 4] \
        [--seconds 10] [--seed 42] [--out BENCH_layout.json --label NAME]

Run from the repository root. Code placement alone moves the simulator
workloads by several percent: relinking a binary with a never-executed
function in front of its code shifts every function after it, and with it
the branch-predictor and cache-set aliasing the hot loops see. A single
build therefore measures one draw of that factor. This script treats layout
as a random factor (Mytkowicz et al., ASPLOS 2009; Curtsinger & Berger,
ASPLOS 2013):

1. Builds, per revision (a commit, or a tree such as `git write-tree`
   prints for staged changes): `git archive` it into
   .bench_build/layout_ab/<tree>/src and build perfbench there once. For
   each pad N, write a never-executed function holding `asm(".skip N")` at
   the head of that copy's perfbench/main.cpp, relink, and keep the binary
   (pad 0 is the unpadded build). The repository's own perfbench/ is never
   touched, and binaries are reused by later invocations. A pad of N > 0
   bytes shifts the code after it by 16 * ceil((N + 1) / 16) bytes (its
   return instruction, then alignment to 16), so the default pads shift it
   by 0, 16, 32, 48, 1088, 1104, 2096 and 3104 bytes: each 16-byte class
   mod 64 twice, so placement inside a cache line or a 32-byte fetch
   window is sampled, not only placement mod 4096. Each layout's hot
   functions are listed with their offsets mod 64, read with `nm`.
2. Runs every (revision, pad) binary once per round, in interleaved,
   rotating order: within a round the two revisions alternate which runs
   first at each pad, and each round starts one layout later. Every run
   must report "correct": true with "failed": 0, or the script stops.
   Each binary runs in its own revision's source copy, so it checks its
   results against that revision's golden corpus.
3. Reports, per end-to-end metric: each layout's median over rounds per
   side, the matched-pad relative difference change/base - 1, the median of
   those differences over layouts, a bootstrap 95% interval that resamples
   layouts, and how many layouts moved each way. A gain counts only when
   its interval excludes 0.

The report is printed and, with --out, stored in that JSON file under
--label (other labels already in the file are kept). Calibrate with an A/A
run (--base and --change naming one revision): every interval should contain
0. Builds use at most 4 parallel compile jobs, and every process the
script starts has exited when it returns.
"""
import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys

METRICS = ("setup_s", "pass_s", "op_p50_us", "op_tail_us", "peak_rss_mb")
DEFAULT_PADS = "0,15,31,47,1087,1103,2095,3103"
# Functions whose placement the report lists per layout (substrings of
# their demangled names).
HOT_FUNCTIONS = ("MemoryController::scan_sorted(", "OoOCore::walk_det(",
                 "CmpSystem::run_partition(", "MemoryController::tick(")
BOOTSTRAP = 10000
RUN_TIMEOUT_S = 600
ROOT = os.path.join(".bench_build", "layout_ab")
JOBS = str(min(4, os.cpu_count() or 1))


def fail(msg):
    print(f"layout_ab.py: {msg}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    proc = subprocess.run(["git", *args], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"git {' '.join(args)} failed")
    return proc.stdout.strip()


def pad_source(n):
    """A never-executed function of n bytes, placed before all other code."""
    return ("// layout_ab.py pad: never called; shifts the code after it.\n"
            'extern "C" void bwpart_layout_pad() '
            f'{{ asm volatile(".skip {n}"); }}\n')


def build_revision(tree, pads):
    """Returns {pad: binary path} for `tree`, building what is missing."""
    top = os.path.join(ROOT, tree)
    src = os.path.join(top, "src")
    bins = {p: os.path.abspath(os.path.join(top, "bin", f"perfbench_pad{p}"))
            for p in pads}
    if all(os.path.isfile(b) for b in bins.values()):
        return bins
    if not os.path.isdir(src):
        os.makedirs(src)
        archive = subprocess.Popen(["git", "archive", tree],
                                   stdout=subprocess.PIPE)
        unpack = subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or unpack.returncode != 0:
            shutil.rmtree(top, ignore_errors=True)
            fail(f"cannot unpack {tree}")
    build = os.path.join(top, "build")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(src, "perfbench"), "-B", build]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail(f"cmake configure failed for {tree}")
    main_cpp = os.path.join(src, "perfbench", "main.cpp")
    pristine = main_cpp + ".orig"
    if not os.path.isfile(pristine):
        shutil.copyfile(main_cpp, pristine)
    with open(pristine) as f:
        original = f.read()
    os.makedirs(os.path.join(top, "bin"), exist_ok=True)
    for p in pads:
        if os.path.isfile(bins[p]):
            continue
        with open(main_cpp, "w") as f:
            f.write((pad_source(p) if p > 0 else "") + original)
        cmd = ["cmake", "--build", build, "--target", "bwpart_perfbench",
               "-j", JOBS]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail(f"build failed for {tree} pad {p}")
        shutil.copyfile(os.path.join(build, "bwpart_perfbench"), bins[p])
        os.chmod(bins[p], 0o755)
    return bins


def hot_offsets(binary):
    """{function: address mod 64} for HOT_FUNCTIONS, read with `nm -C`."""
    proc = subprocess.run(["nm", "-C", "--defined-only", binary],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"nm failed on {binary}")
    offsets = {}
    for line in proc.stdout.splitlines():
        addr, kind, name = (line.split(" ", 2) + ["", ""])[:3]
        for f in HOT_FUNCTIONS:
            if kind in ("T", "t") and f in name and f not in offsets:
                offsets[f] = int(addr, 16) % 64
    return offsets


def run_once(binary, opt, scratch):
    args = [binary, "--workload", opt.workload, "--seed", str(opt.seed),
            "--seconds", str(opt.seconds), "--trace", "0",
            "--scratch", scratch]
    # perfbench reads the golden corpus relative to its working directory:
    # run each binary in its own revision's source copy, so a change that
    # regenerates the corpus is checked against its own.
    src = os.path.join(os.path.dirname(os.path.dirname(binary)), "src")
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=src)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(args)}")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"exit {proc.returncode}: {' '.join(args)}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out.get("correct") is not True or out.get("failed") != 0:
        fail(f"incorrect run ({out.get('failed')} failed): {' '.join(args)}")
    values = {m: out["metrics"][m]["value"] for m in METRICS if m != "setup_s"}
    values["setup_s"] = out["setup_s"]
    return values


def schedule(pads, rounds):
    """Interleaved, rotating order: [(round, side, pad), ...]."""
    order = []
    k = len(pads)
    for r in range(rounds):
        for i in range(k):
            j = (i + r) % k
            # Each pad alternates which side runs first, round by round.
            sides = ("base", "change") if (j + r) % 2 == 0 else ("change",
                                                                  "base")
            order += [(r, s, pads[j]) for s in sides]
    return order


def summarize(runs, pads, rng):
    report = {}
    for m in METRICS:
        per_pad = {}
        for p in pads:
            b = statistics.median(x["values"][m] for x in runs
                                  if x["pad"] == p and x["side"] == "base")
            c = statistics.median(x["values"][m] for x in runs
                                  if x["pad"] == p and x["side"] == "change")
            per_pad[p] = {"base": b, "change": c,
                          "rel_diff": c / b - 1.0 if b else 0.0}
        diffs = [per_pad[p]["rel_diff"] for p in pads]
        boots = sorted(statistics.median(rng.choices(diffs, k=len(diffs)))
                       for _ in range(BOOTSTRAP))
        lo = boots[int(0.025 * BOOTSTRAP)]
        hi = boots[int(0.975 * BOOTSTRAP) - 1]
        report[m] = {
            "median_rel_diff": statistics.median(diffs),
            "ci95": [lo, hi],
            "excludes_zero": lo > 0.0 or hi < 0.0,
            "layouts_lower": sum(d < 0.0 for d in diffs),
            "layouts_higher": sum(d > 0.0 for d in diffs),
            "per_pad": {str(p): per_pad[p] for p in pads},
        }
    return report


def main():
    for need in ("CMakeLists.txt", "perfbench", "BENCHMARK.json"):
        if not os.path.exists(need):
            fail(f"run from the repository root: {need} is missing")
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pads", default=DEFAULT_PADS)
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out")
    ap.add_argument("--label", default="ab")
    opt = ap.parse_args()
    pads = [int(p) for p in opt.pads.split(",")]
    if len(set(pads)) != len(pads) or min(pads) < 0 or len(pads) < 8:
        # A bootstrap over fewer layouts gives intervals too narrow to trust
        # (two layouts of one revision can already exclude 0).
        fail("--pads must be at least 8 distinct non-negative byte counts")
    if opt.rounds < 1 or opt.seconds < 1:
        fail("--rounds and --seconds must be >= 1")

    trees = {s: git("rev-parse", "--verify", f"{r}^{{tree}}")
             for s, r in (("base", opt.base), ("change", opt.change))}
    # An A/A run builds once: the second call finds every binary in place.
    bins = {s: build_revision(t, pads) for s, t in trees.items()}
    layouts = {s: {str(p): hot_offsets(b) for p, b in bins[s].items()}
               for s in bins}
    for s in bins:
        for p in pads:
            cells = "  ".join(f"{f.split('::')[1].split('(')[0]} {o:2}"
                              for f, o in layouts[s][str(p)].items())
            print(f"{s:6} pad {p:5} offsets mod 64: {cells}", file=sys.stderr)

    scratch = os.path.abspath(os.path.join(ROOT, "scratch"))
    runs = []
    order = schedule(pads, opt.rounds)
    for n, (r, side, p) in enumerate(order, 1):
        values = run_once(bins[side][p], opt, scratch)
        runs.append({"round": r, "side": side, "pad": p, "values": values})
        print(f"[{n}/{len(order)}] round {r} {side:6} pad {p:5} "
              f"pass_s {values['pass_s']:.4f}", file=sys.stderr)

    result = {
        "workload": opt.workload,
        "seed": opt.seed,
        "seconds": opt.seconds,
        "rounds": opt.rounds,
        "pads": pads,
        "base": {"rev": opt.base, "tree": trees["base"],
                 "src_tree": git("rev-parse", f"{trees['base']}:src")},
        "change": {"rev": opt.change, "tree": trees["change"],
                   "src_tree": git("rev-parse", f"{trees['change']}:src")},
        "hot_offsets_mod64": layouts,
        "metrics": summarize(runs, pads, random.Random(opt.seed)),
        "runs": runs,
    }
    for m, s in result["metrics"].items():
        print(f"{m:12} median {100 * s['median_rel_diff']:+6.2f}%  "
              f"95% CI [{100 * s['ci95'][0]:+6.2f}%, "
              f"{100 * s['ci95'][1]:+6.2f}%]  layouts lower/higher "
              f"{s['layouts_lower']}/{s['layouts_higher']}"
              f"{'  (excludes 0)' if s['excludes_zero'] else ''}")
    if opt.out:
        doc = {}
        if os.path.isfile(opt.out):
            with open(opt.out) as f:
                doc = json.load(f)
        doc[opt.label] = result
        with open(opt.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
