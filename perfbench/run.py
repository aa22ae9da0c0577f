"""Train-score-inspect benchmark for seqattn.

    python3 perfbench/run.py --workload train-cooc --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is imported from ./src,
and everything the run writes goes under perfbench/out/. One run is one
workload in a fresh process with one BLAS thread. It does three kinds of
operation on inputs it generates from the seed:

* train: ``seqattn train``, one command per generated corpus;
* score: forward-only passes over a held-out set with the first command's
  checkpoint, reloaded and checked against its report first;
* heatmap: a closed loop of ``seqattn heatmap`` calls on that checkpoint,
  each issued when the previous one has returned.

Each training command is followed by an equal share of the scoring
passes and heatmap calls, so that all three sample the same stretch of
time (see ``Run.execute``).

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the per-layer split of the same work instead
(see probe.py). Either way it also holds the operations attempted
(training commands, scoring passes and heatmap calls), those that failed,
and whether every output check passed.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

from probe import PER_LAYER, Probe, clock
from workloads import WORKLOADS, Workload, dev_indices, label_mapping

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

END_TO_END = {
    "setup_s": "s",
    "train_seqs_per_s": "1/s",
    "s_to_target": "s",
    "score_seqs_per_s": "1/s",
    "heatmap_ms_p50": "ms",
    "heatmap_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
SCORE_BATCH = 64  # held-out sets are whole multiples of it
WINDOW = 5  # training steps per timed block: the lookahead period k


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith("_s") else "ms"


def fingerprint() -> dict:
    """What the timings depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def program_src() -> Path | None:
    """Put the checkout's src/ on the import path; None if it is missing."""
    src = ROOT / "src"
    if not (src / "seqattn" / "__init__.py").is_file():
        print(f"error: no seqattn sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    return src


def epochs_to_target(accs: list[float], target: float, chance: float) -> float | None:
    """Epochs of training until dev accuracy first reaches ``target``, read
    linearly between the two evaluations that straddle it (chance level
    before the first epoch). None if it is never reached."""
    prev = chance
    for epoch, acc in enumerate(accs):
        if acc >= target:
            return epoch + (target - prev) / (acc - prev)
        prev = acc
    return None


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def p90(values: list[float]) -> float:
    """Nearest rank: with n >= 100 samples at least ten lie above it."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def step_windows(epoch_steps: list[list[float]]) -> list[float]:
    """Durations of consecutive WINDOW-step blocks within each epoch. Every
    block holds the same work, one lookahead sync included, which single
    steps do not."""
    return [sum(steps[j:j + WINDOW]) for steps in epoch_steps
            for j in range(0, len(steps) - WINDOW + 1, WINDOW)]


def import_seconds(src: Path, times: int = 5) -> float:
    """Median CPU time of a fresh interpreter that loads the program."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    samples = []
    for _ in range(times):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "import seqattn.cli"], env=env, check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        samples.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return statistics.median(samples)


def epochs_without_seconds(path: Path) -> list[dict]:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        rec.pop("seconds", None)
    return records


class Run:
    def __init__(self, wl: Workload, seed: int, seconds: int, traced: bool, work: Path):
        import seqattn.cli
        import seqattn.model

        self.cli_main = seqattn.cli.main
        self.sm = seqattn.model
        self.wl, self.seed, self.traced = wl, seed, traced
        self.n_cmd, self.n_pass, self.n_heat = wl.scaled(seconds)
        self.work = work
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.failures: list[str] = []  # operations that failed
        self.problems: list[str] = []  # output checks that failed
        self.commands: list[dict] = []
        self.score_times: list[float] = []
        self.latencies: list[float] = []
        self.diagnostics: dict = {}

    def trainer_seed(self, i: int) -> int:
        return self.seed * 100 + i

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def call(self, argv: list[str]) -> int:
        """One program operation; any non-zero exit or escaped exception
        counts as failed."""
        self.attempted += 1
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = self.cli_main(argv)
            except Exception:  # an uncaught program fault is a failed operation
                rc = -1
                err.write(traceback.format_exc())
        if rc != 0:
            self.failures.append(f"seqattn {argv[0]} exited {rc}: {err.getvalue().strip()[-300:]}")
        return rc

    # -- training ---------------------------------------------------------------

    def training_file(self, i: int) -> tuple[Path, list]:
        records = self.wl.records(np.random.default_rng([self.seed, i, 0]), self.wl.n_train)
        path = self.work / f"train{i}{self.wl.suffix}"
        self.wl.write(path, records)
        return path, records

    def train_command(self, probe: Probe, i: int, data: Path, records: list, out: Path) -> dict | None:
        probe.begin_command()
        first_epoch = len(probe.epoch_steps)
        probe.phase = "train"
        argv = self.wl.train_argv(data, self.trainer_seed(i), out)
        started = clock()
        rc = self.call(argv)
        probe.phase = "setup"
        if rc != 0:
            return None
        epochs = probe.epoch_steps[first_epoch:]
        accs = [r["value"] for r in epochs_without_seconds(out / "epochs.jsonl")
                if r["split"] == "dev" and r["metric"] == "accuracy"]
        if not self.check(len(epochs) == len(accs) == self.wl.epochs,
                          f"command {i}: {len(epochs)} timed epochs, {len(accs)} evaluated"):
            return None
        dense = self.dense(records, label_mapping(self.wl.labels(records)))
        dev = dev_indices(dense, self.trainer_seed(i))
        return {
            "setup_s": probe.first_step_at - started,
            "train_s": sum(map(sum, epochs)),
            "seqs": (len(records) - len(dev)) * len(epochs),
            "steps": sum(map(len, epochs)),
            "chance": float(np.bincount(dense[dev]).max() / len(dev)),
            "dev_accuracy": accs,
        }

    def next_command(self, probe: Probe, i: int) -> None:
        """Train on corpus i; only the first command's files are kept."""
        data, records = self.training_file(i)
        out = self.work / f"run{i}"
        result = self.train_command(probe, i, data, records, out)
        self.commands.append(result or {"failed": True})
        if i == 0:
            self.data0, self.records0 = data, records
        else:
            data.unlink()
            shutil.rmtree(out, ignore_errors=True)

    # -- scoring ----------------------------------------------------------------

    def dense(self, records: list, mapping: dict[int, int]) -> np.ndarray:
        return np.array([mapping[label] for label in self.wl.labels(records)])

    def encode(self, model, records: list, dense: np.ndarray):
        if self.wl.precomputed:
            seqs = [(values.astype(np.float64), int(d)) for (values, _), d in zip(records, dense)]
            return self.sm.encode_embeddings(seqs, self.wl.max_len)
        from seqattn.data import LabeledCorpus

        corpus = LabeledCorpus(records=[(text, int(d)) for (_, text), d in zip(records, dense)],
                               num_classes=2)
        return self.sm.encode_texts(corpus, model.vocab, self.wl.max_len)

    def predict(self, model, batch, size: int, times: list | None = None) -> np.ndarray:
        """Forward-only predictions in batches of ``size``; the forward time
        of each batch is appended to ``times``."""
        from seqattn.tensor import no_grad

        preds = []
        with no_grad():
            for lo in range(0, len(batch), size):
                part = self.sm.take(batch, np.arange(lo, min(lo + size, len(batch))))
                started = clock()
                logits, _ = model.forward(part)
                if times is not None:
                    times.append(clock() - started)
                preds.append(logits.data.argmax(axis=1))
        return np.concatenate(preds)

    def prepare_scoring(self) -> None:
        """Reload the first checkpoint, check it against its report, and
        encode the held-out set."""
        wl, records = self.wl, self.records0
        out = self.work / "run0"
        self.model = self.sm.load_checkpoint(out / "checkpoint.npz")
        mapping = label_mapping(wl.labels(records))
        dense = self.dense(records, mapping)

        # the reloaded checkpoint reproduces its report on the best fold's dev split
        report = json.loads((out / "report.json").read_text())
        best = max(report["folds"], key=lambda f: f[report["metric_name"]])
        dev = dev_indices(dense, self.trainer_seed(0))
        dev_batch = self.encode(self.model, [records[j] for j in dev], dense[dev])
        dev_acc = float(np.mean(self.predict(self.model, dev_batch, len(dev)) == dense[dev]))
        self.check(dev_acc == best["accuracy"],
                   f"reloaded checkpoint scores {dev_acc} on the dev split, report says {best['accuracy']}")

        self.held = wl.records(np.random.default_rng([self.seed, 0, 1]), wl.n_heldout)
        if wl.precomputed:
            from seqattn.backbone import load_precomputed

            path = self.work / f"heldout{wl.suffix}"
            wl.write(path, self.held)
            loaded = load_precomputed(path)
            self.check(len(loaded) == len(self.held) and all(
                lab == l2 and np.array_equal(arr, v2.astype(np.float64))
                for (arr, lab), (v2, l2) in zip(loaded, self.held)),
                "SAMEMB1 records did not load back as the float32 values written")
        self.held_dense = self.dense(self.held, mapping)
        self.held_batch = self.encode(self.model, self.held, self.held_dense)
        self.first_preds = None

    def score_pass(self) -> None:
        self.attempted += 1
        preds = self.predict(self.model, self.held_batch, SCORE_BATCH, self.score_times)
        if self.first_preds is None:
            self.first_preds = preds
            accuracy = float(np.mean(preds == self.held_dense))
            self.check(accuracy >= self.wl.target,
                       f"held-out accuracy {accuracy:.4f} below the target {self.wl.target}")
        else:
            self.check(np.array_equal(preds, self.first_preds), "a scoring pass changed predictions")

    # -- heatmaps ---------------------------------------------------------------

    def heatmap_call(self, c: int) -> None:
        wl = self.wl
        checkpoint = self.work / "run0" / "checkpoint.npz"
        prefix = self.work / "heatmap"
        if wl.precomputed:
            index = c % len(self.records0)
            argv = ["heatmap", "--checkpoint", str(checkpoint), "--data", str(self.data0),
                    "--index", str(index), "--out", str(prefix)]
        else:
            text = self.held[c % len(self.held)][1]
            argv = ["heatmap", "--checkpoint", str(checkpoint), "--text", text, "--out", str(prefix)]
        started = clock()
        rc = self.call(argv)
        self.latencies.append(clock() - started)
        if rc != 0:
            return
        payload = json.loads(prefix.with_suffix(".json").read_text())
        tw, fw = payload["token_weights"], payload["feature_weights"]
        if wl.precomputed:
            length = len(self.records0[index][0])
            self.check(len(tw) == min(length, wl.max_len),
                       f"heatmap {c}: {len(tw)} token weights for a record of {length}")
        else:
            self.check(payload["tokens"] == text.split()[: wl.max_len],
                       f"heatmap {c}: tokens differ from the input words")
        self.check(min(tw) >= 0.0 and abs(sum(tw) - 1.0) <= 1e-9,
                   f"heatmap {c}: token weights sum to {sum(tw)!r}")
        self.check(all(0.0 <= f <= 1.0 - wl.delta for f in fw),
                   f"heatmap {c}: a feature weight lies outside [0, 1 - delta]")

    # -- whole run --------------------------------------------------------------

    def execute(self, src: Path) -> dict:
        """Run every operation; returns the metrics of the run's kind."""
        probe = Probe()
        if self.traced:
            probe.install_layers()
        probe.install_clock()
        # On the reference machine (a 2-vCPU virtual machine shared with
        # other tenants) the CPU alternates between a fast and a slow state
        # every few seconds. Spreading scoring and heatmaps over the whole
        # run, between training commands, makes every metric see the same mix.
        passes = np.array_split(np.arange(self.n_pass), self.n_cmd)
        calls = np.array_split(np.arange(self.n_heat), self.n_cmd)
        try:
            for i in range(self.n_cmd):
                self.next_command(probe, i)
                if i == 0:
                    if "failed" in self.commands[0]:
                        self.check(False, "the first training command failed; nothing to score")
                        return {}
                    self.prepare_scoring()
                probe.phase = "score"
                for _ in passes[i]:
                    self.score_pass()
                probe.phase = "heatmap"
                for c in calls[i]:
                    self.heatmap_call(int(c))
        finally:
            probe.uninstall()
        done = [c for c in self.commands if "failed" not in c]
        windows = step_windows(probe.epoch_steps)
        self.diagnostics = {
            "window_s_quartiles": quartiles(windows),
            "score_batch_s_quartiles": quartiles(self.score_times),
            "heatmap_s_quartiles": quartiles(self.latencies),
            "windows": len(windows),
            "score_batches": len(self.score_times),
            "heatmap_calls": len(self.latencies),
        }

        if self.traced:
            # the first command again, untraced and as warm as the traced
            # ones: the reference for the overhead and for epochs.jsonl
            ref_probe = Probe()
            ref_probe.install_clock()
            try:
                ref = self.train_command(ref_probe, 0, self.data0, self.records0, self.work / "ref")
            finally:
                ref_probe.uninstall()
            overhead = math.nan
            if ref is not None:
                self.check(epochs_without_seconds(self.work / "ref" / "epochs.jsonl")
                           == epochs_without_seconds(self.work / "run0" / "epochs.jsonl"),
                           "traced and untraced epochs.jsonl differ beyond 'seconds'")
                overhead = (statistics.median(windows)
                            / statistics.median(step_windows(ref_probe.epoch_steps)) - 1.0) * 100.0
            return probe.per_layer(len(done), self.n_heat, overhead)

        # Timings read the 75th percentile of many equal blocks of work: the
        # slow state usually holds more than a quarter of a run, so p75 reads
        # it steadily where a mean follows the mix of the two states.
        window_s = quartiles(windows)[2]
        seqs_per_step = sum(c["seqs"] for c in done) / sum(c["steps"] for c in done)
        steps_per_epoch = sum(c["steps"] for c in done) / (len(done) * self.wl.epochs)
        # Epochs to target on the run's mean dev-accuracy curve, which is
        # steadier than any one command's; never reached counts all epochs.
        curve = np.mean([c["dev_accuracy"] for c in done], axis=0).tolist()
        chance = statistics.fmean(c["chance"] for c in done)
        epochs = epochs_to_target(curve, self.wl.target, chance) or float(self.wl.epochs)
        self.diagnostics["mean_dev_accuracy"] = curve
        return {
            "setup_s": import_seconds(src) + statistics.median(c["setup_s"] for c in done),
            "train_seqs_per_s": seqs_per_step * WINDOW / window_s,
            "s_to_target": epochs * steps_per_epoch * window_s / WINDOW,
            "score_seqs_per_s": SCORE_BATCH / quartiles(self.score_times)[2],
            "heatmap_ms_p50": statistics.median(self.latencies) * 1e3,
            "heatmap_ms_p90": p90(self.latencies) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = program_src()
    if src is None:
        return 2
    env = fingerprint()
    print("env " + json.dumps(env, sort_keys=True))

    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT / name)
    values = run.execute(src)
    names, unit_of = (PER_LAYER, layer_unit) if args.trace else (list(END_TO_END), END_TO_END.get)
    values = {metric: values.get(metric, math.nan) for metric in names}
    correct = not run.problems and all(math.isfinite(v) for v in values.values())
    metrics = {metric: {"value": v if math.isfinite(v) else None, "unit": unit_of(metric)}
               for metric, v in values.items()}
    for line in run.failures:
        print(f"failed: {line}")
    for line in run.problems:
        print(f"check failed: {line}")
    for metric, v in values.items():
        print(f"{metric} = {v:.6g} {unit_of(metric)}")
    print(f"operations: {run.attempted} attempted, {len(run.failures)} failed")

    result = {"correct": correct, "attempted": run.attempted, "failed": len(run.failures),
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "commands": run.commands,
              "diagnostics": run.diagnostics, **result}
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
