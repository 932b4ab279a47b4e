"""popflow benchmark: one workload per process, driven through `popflow.cli.main`.

    python3 bench/run.py --workload {label,train,study} --seed N --seconds S --trace {0,1}

Each run builds its inputs with the program (set-up, repeated and timed),
then repeats whole rounds of the workload's `popflow` commands for at least
`--seconds` seconds (and at least two rounds), checks the outputs against
independent computations (bench/checks.py) and against each other (every
round and every set-up must write identical files), and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}. An operation is one
`popflow` command of the timed body; it fails when it exits non-zero.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
follows each round with the same round traced (bench/spans.py) and reports
the per-layer metrics of the traced rounds; set-up is traced too. Spans go to
bench/out/trace-<workload>.json.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# fixed before numpy loads OpenBLAS, and printed with the results
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CASE = SRC / "popflow" / "cases" / "case14.json"
OUT = HERE / "out"

SETUP_REPEATS = 3
MIN_ROUNDS = 2
DOC_SEED = 11  # the README's sampling.seed
GROUP, RHO = "area_loads", 0.6
CONFIG = {
    "case": str(CASE),
    # the acceptance network and its 30:400 epoch mix, scaled down to keep a
    # round short; patience above the cap fixes the work
    "train": {"hidden_sizes": [48, 96, 64], "epochs_unsup": 12, "epochs_sup": 160,
              "batch_size": 500, "patience": 1000, "corruption_level": 0.1,
              "corruption_level_finetune": 0.0, "eta_sup": 3e-4, "seed": 7},
    "sampling": {"correlation": {GROUP: [[1.0, RHO], [RHO, 1.0]]}},
    "report": {"bins": 50},
}
# Rounds last one to three seconds, so that the median of a run's rounds spans
# the machine's speed swings, which last several seconds.
LABEL_ROWS = 600         # rows per `gen-data` round
CHECK_ROWS = 20          # label rows re-solved independently
TRAIN_ROWS = 1200        # labelled rows `train` reads (two batches fit, 200 validate)
STUDY_TRAIN_ROWS = 1000  # labelled rows behind the study's checkpoint
POPF_SAMPLES = 50_000    # MCS samples per `popf --samples` call
POPF_SEEDS = 4           # `popf --samples` calls per round
COMPARE_MCS = 200        # seed-matched samples of `compare`


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "popflow" / "__init__.py").is_file():
    fail(f"no popflow sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from popflow import cli  # noqa: E402
from popflow.grid import load_case  # noqa: E402

IMPORT_S = time.perf_counter() - T0  # the benchmark's own modules below are not set-up

import checks  # noqa: E402
import spans  # noqa: E402


# ---------------------------------------------------------------------------
# running popflow


class Call:
    def __init__(self, argv, rc, seconds, stdout, stderr):
        self.argv, self.rc, self.seconds = argv, rc, seconds
        self.stdout, self.stderr = stdout, stderr

    @property
    def kind(self):
        return "converge" if "--converge" in self.argv else self.argv[0]


def invoke(argv, tracer=None) -> Call:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc, record = tracer.span(f"cli.{argv[0]}", cli.main, argv)
                record["attrs"]["converge"] = "--converge" in argv
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an operation that crashes counts as failed
            rc = f"{type(exc).__name__}: {exc}"
    return Call(argv, rc, time.perf_counter() - start, out.getvalue(), err.getvalue())


def must(call: Call) -> Call:
    if call.rc != 0:
        fail(f"set-up command {call.argv} failed ({call.rc}): {call.stderr.strip()}")
    return call


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up k writes under setup<k>/, round r under r<r>/."""

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.cfg = work / "config.json"

    def write_config(self, sampling):
        cfg = copy.deepcopy(CONFIG)
        cfg["output_dir"] = str(self.work)
        cfg["sampling"].update(sampling)
        self.cfg.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")

    def popflow(self, sub, *extra, **sets):
        argv = [sub, "-c", str(self.cfg), *extra]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        return argv

    def setup(self, k):
        load_case(CASE)

    training_samples = None


class Label(Workload):
    """`gen-data`: oracle labelling of LABEL_ROWS rows at sampling.seed = --seed."""

    def setup(self, k):
        super().setup(k)
        self.write_config({"n_train": LABEL_ROWS, "seed": self.seed})

    def calls(self, r):
        return [self.popflow("gen-data", dataset_dir=self.work / f"r{r}" / "dataset")]

    def rows_per_s(self, calls):
        return LABEL_ROWS / calls[0].seconds

    def check(self, calls):
        case = checks.Case(CASE)
        ds = self.work / "r0" / "dataset"
        x, y = checks.read_tsv(ds / "X.tsv"), checks.read_tsv(ds / "Y.tsv")
        samples = checks.read_tsv(ds / "samples.tsv")
        rows = np.random.default_rng(self.seed).choice(len(y), CHECK_ROWS, replace=False)
        return (checks.check_features(case, x, samples) + checks.check_cost(case, y)
                + checks.check_power_flow(case, y, samples, rows)
                + checks.check_dispatch(case, y, samples, rows)
                + checks.check_sampler(case, samples, GROUP, RHO))


class Train(Workload):
    """`train` on TRAIN_ROWS rows labelled in set-up at sampling.seed = --seed."""

    def setup(self, k):
        super().setup(k)
        self.write_config({"n_train": TRAIN_ROWS, "seed": self.seed})
        must(invoke(self.popflow("gen-data", dataset_dir=self.work / f"setup{k}" / "dataset")))

    def calls(self, r):
        return [self.popflow("train", dataset_dir=self.work / "setup0" / "dataset",
                             checkpoint=self.work / f"r{r}" / "model.ckpt")]

    def rows_per_s(self, calls):
        t = CONFIG["train"]
        fit_rows = TRAIN_ROWS - TRAIN_ROWS // 6
        passes = len(t["hidden_sizes"]) * t["epochs_unsup"] + t["epochs_sup"]
        return fit_rows * passes / calls[0].seconds

    def check(self, calls):
        return checks.check_history(self.work / "r0" / "model.history.tsv",
                                    CONFIG["train"]["epochs_sup"])


class Study(Workload):
    """Online POPF from a checkpoint trained in set-up on the documented seed:
    POPF_SEEDS `popf --samples` studies and one `popf --converge` at seeds
    drawn from --seed, then one `compare` at the documented seed."""

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.popf_seeds = [1000 * seed + k for k in range(1, POPF_SEEDS + 1)]
        self.converge_seed = 1000 * seed + POPF_SEEDS + 1
        self.ckpt = work / "setup0" / "model.ckpt"

    def setup(self, k):
        super().setup(k)
        self.write_config({"n_train": STUDY_TRAIN_ROWS, "n_mcs": COMPARE_MCS, "seed": DOC_SEED})
        base = self.work / f"setup{k}"
        must(invoke(self.popflow("gen-data", dataset_dir=base / "dataset")))
        must(invoke(self.popflow("train", dataset_dir=base / "dataset",
                                 checkpoint=base / "model.ckpt")))
        self.training_samples = checks.read_tsv(base / "dataset" / "samples.tsv")

    def calls(self, r):
        out = self.work / f"r{r}"
        argvs = [self.popflow("popf", "--samples", str(POPF_SAMPLES), checkpoint=self.ckpt,
                              output_dir=out / f"popf-{s}", **{"sampling.seed": s})
                 for s in self.popf_seeds]
        argvs.append(self.popflow("popf", "--converge", checkpoint=self.ckpt,
                                  output_dir=out / "converge",
                                  **{"sampling.seed": self.converge_seed}))
        argvs.append(self.popflow("compare", checkpoint=self.ckpt, output_dir=out / "compare"))
        return argvs

    def rows_per_s(self, calls):
        popf = [c for c in calls if c.kind == "popf"]
        return len(popf) * POPF_SAMPLES / sum(c.seconds for c in popf)

    def check(self, calls):
        case = checks.Case(CASE)
        model = checks.read_checkpoint(self.ckpt)
        groups = CONFIG["sampling"]["correlation"]
        out = self.work / "r0"
        failures = []
        for s in self.popf_seeds:
            values = checks.surrogate(model, checks.features(
                case, checks.draw_samples(case, POPF_SAMPLES, s, groups)))
            failures += checks.check_stats(out / f"popf-{s}" / "popf_stats.tsv", values)
        values = checks.surrogate(model, checks.features(
            case, checks.draw_samples(case, checks.CV_CAP, self.converge_seed, groups)))
        stdout = next(c.stdout for c in calls if c.kind == "converge")
        count_failures = checks.check_converge(stdout, values)
        failures += count_failures
        if not count_failures:
            used = checks.consumed_samples(stdout)
            failures += checks.check_stats(out / "converge" / "popf_stats.tsv", values[:used])
        for d in sorted(out.iterdir()):
            failures += checks.check_densities(d)
        return failures + checks.check_report(out / "compare" / "report.json")


WORKLOADS = {"label": Label, "train": Train, "study": Study}


# ---------------------------------------------------------------------------
# measurement


def run_round(wl, r, tracer=None):
    t = time.perf_counter()
    calls = [invoke(argv, tracer) for argv in wl.calls(r)]
    return time.perf_counter() - t, calls


def run_rounds(wl, seconds, tracer=None):
    """Whole rounds until `seconds` have passed, at least MIN_ROUNDS.

    With a tracer, each untraced round is followed by the same round traced,
    so that machine drift falls on both halves alike.
    """
    rounds, traced = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(run_round(wl, len(rounds) + len(traced)))
        if tracer is not None:
            tracer.round = len(rounds) + len(traced)
            tracer.install()
            try:
                traced.append(run_round(wl, tracer.round, tracer))
            finally:
                tracer.uninstall()
    return rounds, traced


def determinism(work: Path, prefix: str) -> list:
    dirs = sorted(p for p in work.iterdir() if p.is_dir() and p.name.startswith(prefix))
    if not dirs:
        return []
    ref = checks.tree_digests(dirs[0])
    out = []
    for d in dirs[1:]:
        got = checks.tree_digests(d)
        diff = sorted(k for k in ref.keys() | got.keys() if ref.get(k) != got.get(k))
        if diff:
            out.append(f"{d.name} differs from {dirs[0].name} in {', '.join(diff)}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work, args.seed)

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_times = []
    for k in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup(k)
        setup_times.append(time.perf_counter() - t)
    if tracer:
        tracer.uninstall()
        tracer.phase = "traced"
    rounds, traced = run_rounds(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    round_s = [t for t, _ in rounds]

    calls = [c for _, cs in rounds + traced for c in cs]
    failed = [c for c in calls if c.rc != 0]
    for c in failed:
        print(f"# failed: popflow {' '.join(c.argv)}: {c.rc} {c.stderr.strip()}", file=sys.stderr)
    problems = determinism(work, "setup") + determinism(work, "r")
    try:
        problems += wl.check(rounds[0][1])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"output could not be checked: {type(exc).__name__}: {exc}")
    for p in problems:
        print(f"# check failed: {p}", file=sys.stderr)

    if tracer:
        overhead = statistics.median(t for t, _ in traced) - statistics.median(round_s)
        values = spans.layer_metrics(tracer, len(traced), wl.training_samples, overhead)
        tracer.write(OUT / f"trace-{args.workload}.json", values)
    else:
        values = {
            "setup_s": IMPORT_S + statistics.median(setup_times),
            "run_s": statistics.median(round_s),
            "rows_per_s": statistics.median(wl.rows_per_s(cs) for _, cs in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
    print(f"# workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} "
          f"calls/round={len(rounds[0][1])} traced_rounds={len(traced)}")
    print(f"# set-up s: {' '.join(f'{t:.3f}' for t in setup_times)} (+{IMPORT_S:.3f} imports)")
    print(f"# round s: {' '.join(f'{t:.3f}' for t in round_s)}")
    for name, v in values.items():
        print(f"# {name} = {v:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
