"""The three benchmark workloads: input generation, calls and output checks.

Each workload is a closed loop of rounds. A round is the workload's unit of
work: one `gcmkit rank` call for the rank workloads, and one
`gcmkit downscale train` call per architecture for `downscale-train`.
Every call goes through the public entry point `gcmkit.cli.main(argv)`.

Why each workload exists is written down in perfbench/README.md.
"""

import csv
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import List, Tuple

ARCHS = ("cnn_lstm", "convlstm", "vit", "geostanet")

# Epochs per downscale call. One epoch keeps a round of four calls near
# 8 s, so a 40 s run still holds four or five rounds to take a median of.
DOWNSCALE_EPOCHS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "rank" or "downscale"
    nlat: int = 0
    nlon: int = 0
    nt: int = 0
    full_scale: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rank-mem",
            "in-memory rank at 40x40x730 with regrid, a tasmax/tasmin pair and a trained weight net; "
            "the pooled metric path does most of the work",
            "rank", nlat=40, nlon=40, nt=730,
        ),
        Workload(
            "rank-stream",
            "--full-scale rank at 48x48x730 on pre-regridded models; "
            "the streaming reader and StreamingPool do most of the work in bounded memory",
            "rank", nlat=48, nlon=48, nt=730, full_scale=True,
        ),
        Workload(
            "downscale-train",
            "downscale train of each of the four architectures on the bundled 160/40 split; "
            "tensorcore forward, backward and Adam do most of the work",
            "downscale",
        ),
    )
}


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# -- input generation (runs in its own process) ----------------------------


def generate(workload: Workload, seed: int, out_dir: str) -> None:
    """Write the workload's inputs under out_dir, a path relative to the
    checkout root, so configs and their hashes do not depend on where the
    checkout lives."""
    os.makedirs(out_dir, exist_ok=True)
    if workload.kind == "rank":
        _generate_rank(workload, seed, out_dir)
    else:
        _generate_downscale(seed, out_dir)


def _generate_rank(workload: Workload, seed: int, out_dir: str) -> None:
    import numpy as np

    from gcmkit import gcf
    from gcmkit.fixtures import BIASED_MODEL, make_ranking_fixture
    from gcmkit.geogrid import DataCube, regrid_bilinear

    paths = make_ranking_fixture(out_dir, seed=seed, nlat=workload.nlat, nlon=workload.nlon, nt=workload.nt)
    with open(paths["config"]) as fh:
        config = json.load(fh)
    if workload.full_scale:
        # --full-scale needs single cubes on the reference grid
        obs = gcf.read_cube(paths["obs"])
        for entry in config["models"]:
            cube = gcf.read_cube(entry["path"])
            regridded = entry["path"] + "_regridded"
            gcf.write_cube(regrid_bilinear(cube, obs.lat, obs.lon), regridded)
            shutil.rmtree(entry["path"])
            entry["path"] = regridded
    else:
        # the warm-bias model arrives as a tasmax/tasmin pair, so diurnal
        # range derivation runs at load
        entry = next(e for e in config["models"] if e["label"] == BIASED_MODEL)
        dtr = gcf.read_cube(entry["path"])
        nt, ny, nx = dtr.shape
        ramp = 2.0 * np.sin(np.arange(nt) * (2.0 * np.pi / 365.0))[:, None, None]
        tasmin = np.broadcast_to(5.0 + ramp, (nt, ny, nx))
        for var, data in (("tasmin", tasmin), ("tasmax", tasmin + dtr.data)):
            path = entry["path"] + "_" + var
            gcf.write_cube(DataCube(dtr.lat, dtr.lon, dtr.time, dtr.calendar, var, data), path)
            entry[var] = path
        shutil.rmtree(entry.pop("path"))
    with open(paths["config"], "w") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _generate_downscale(seed: int, out_dir: str) -> None:
    """The program trains on its bundled split; the benchmark materialises
    that split once to record its digest, and derives the model seed."""
    import numpy as np

    from gcmkit.downscale import benchmark_sets

    train_set, test_set = benchmark_sets()
    h = hashlib.sha256()
    for ds in (train_set, test_set):
        h.update(np.ascontiguousarray(ds.inputs).tobytes())
        h.update(np.ascontiguousarray(ds.targets).tobytes())
    plan = {"model_seed": seed, "epochs": DOWNSCALE_EPOCHS, "archs": list(ARCHS),
            "train_windows": len(train_set), "test_windows": len(test_set), "split_sha256": h.hexdigest()}
    with open(os.path.join(out_dir, "plan.json"), "w") as fh:
        json.dump(plan, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- calls and checks (run in the timed process) ---------------------------


def round_calls(workload: Workload, inputs_dir: str, out_root: str, index: int) -> List[Tuple[str, List[str]]]:
    """(label, argv) for each CLI call of round `index`."""
    if workload.kind == "rank":
        argv = ["rank", "--config", os.path.join(inputs_dir, "config.json"), "--out", out_root,
                "--name", f"rank-{index}", "--jobs", "1"]
        if workload.full_scale:
            argv.append("--full-scale")
        return [("rank", argv)]
    with open(os.path.join(inputs_dir, "plan.json")) as fh:
        plan = json.load(fh)
    return [
        (arch, ["downscale", "train", "--arch", arch, "--epochs", str(plan["epochs"]),
                "--seed", str(plan["model_seed"]), "--out", out_root, "--name", f"{arch}-{index}"])
        for arch in plan["archs"]
    ]


def run_dir_of(argv: List[str]) -> str:
    return os.path.join(argv[argv.index("--out") + 1], argv[argv.index("--name") + 1])


def check_outputs(workload: Workload, run_dir: str) -> List[str]:
    """Problems with one call's outputs; an empty list means correct."""
    problems = []
    if workload.kind == "rank":
        from gcmkit.fixtures import GOOD_MODEL

        with open(os.path.join(run_dir, "ranking.csv")) as fh:
            rows = list(csv.DictReader(fh))
        contexts = {row["context"] for row in rows}
        winners = {row["context"]: row["model"] for row in rows if row["rank"] == "1"}
        lost = sorted(c for c in contexts if winners.get(c) != GOOD_MODEL)
        if not contexts or lost:
            problems.append(f"{GOOD_MODEL} not ranked first in {lost or 'any context'}")
        return problems
    for name in sorted(os.listdir(run_dir)):
        if name.endswith("_train_log.csv") or name == "downscale_report.csv":
            with open(os.path.join(run_dir, name)) as fh:
                for row in csv.DictReader(fh):
                    for key, value in row.items():
                        if value and _is_number(value) and not math.isfinite(float(value)):
                            problems.append(f"non-finite {key} in {name}")
    if not os.path.isfile(os.path.join(run_dir, "downscale_report.csv")):
        problems.append("no downscale_report.csv")
    return problems


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def output_digest(run_dir: str) -> str:
    """sha256 of the run's manifest.json, which hashes every artifact."""
    with open(os.path.join(run_dir, "manifest.json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
