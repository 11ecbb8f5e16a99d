#!/usr/bin/env python
"""Calibration harness: report every paper-target metric of the simulated
hardware in one run. Used while tuning the constants in
repro/hardware/{gpus,calibration}.py and repro/sim/dataparallel.py.

Targets (paper):
  Fig2: P3 ~10x faster than P2, ~4x than G4; P2 ~1.5x slower than G3 (heavy-op avg)
  Fig3: G4 cheapest for most ops; P3 cheapest for pooling (~20%); G4 margin ~16%
  Fig5: p95 of heavy-op normalized std < 0.1
  Fig6: Inception-v1 reductions ~35.8/46.6/53.6% (k=2/3/4, avg over GPUs)
  IV-A: AlexNet k=1 comm fraction ~30%
  Fig8 (k=4): P3 cuts time ~72/63/48% vs P2/G3/G4; G4 cheapest; G4 time ~2.3x P3
  Fig9 ($3/hr): G4 optimal for alexnet+resnet101; P3 for inception_v3+vgg_19
  Fig11: 1-GPU G4 cheapest (AWS prices) for inception_v3
  Fig12: 1-GPU P2 cheapest (market prices)
"""
import argparse
from collections import defaultdict

from repro.artifacts.workspace import active_workspace
from repro.core.classify import classify_operations
from repro.models import TEST_MODELS, TRAIN_MODELS, build_model
from repro.sim import comm_overhead_base_us, run_iterations
from repro.workloads import IMAGENET_EPOCH, IMAGENET_6400, TrainingJob
from repro.cloud import ON_DEMAND, MARKET_RATIO
from repro.graph.ops import op_def

N = 60


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    ws = active_workspace()
    profiles = ws.profiles(list(TRAIN_MODELS), ["V100", "K80", "T4", "M60"], N)

    def measure(model, gpu_key, num_gpus, job, pricing=ON_DEMAND):
        """Workspace-cached ground truth at the calibration seed (training seed
        context, matching what the fit sees), so re-running the harness while
        tuning constants only recomputes what a calibration bump invalidates."""
        return ws.observed_training(
            model, gpu_key, num_gpus, job, N, seed_context="", pricing=pricing
        )

    classification = classify_operations(profiles)
    heavy = classification.heavy
    print(f"heavy op types ({len(heavy)}):", ", ".join(sorted(heavy)))

    means = {g: profiles.for_gpu(g).gpu_records().mean_us_by_op_type() for g in ("V100", "K80", "T4", "M60")}
    ratios = defaultdict(list)
    for op in sorted(heavy):
        if all(op in means[g] for g in means):
            ratios["P2/P3"].append(means["K80"][op] / means["V100"][op])
            ratios["G4/P3"].append(means["T4"][op] / means["V100"][op])
            ratios["P2/G3"].append(means["K80"][op] / means["M60"][op])
    for k, v in ratios.items():
        print(f"Fig2 {k}: mean {sum(v)/len(v):.2f} (range {min(v):.2f}-{max(v):.2f})")

    prices = {g: ON_DEMAND.instance(g, 1).usd_per_hr for g in ("V100", "K80", "T4", "M60")}
    g4_wins, p3_wins = [], []
    for op in sorted(heavy):
        if not all(op in means[g] for g in means):
            continue
        costs = {g: means[g][op] * prices[g] for g in means}
        winner = min(costs, key=costs.get)
        cat = op_def(op).category
        margin = sorted(costs.values())[1] / min(costs.values()) - 1
        (p3_wins if winner == "V100" else g4_wins if winner == "T4" else []).append(op)
        print(f"Fig3 {op:38s} winner={winner:5s} margin={margin:5.1%} cat={cat.value}")
    print(f"Fig3 winners: G4={len(g4_wins)}, P3={len(p3_wins)} ({', '.join(p3_wins)})")

    gpu_records = profiles.gpu_records()
    nstd = sorted(gpu_records.normalized_std()[gpu_records.op_type_mask(heavy)].tolist())
    print(f"Fig5 p95 normalized std (heavy): {nstd[int(0.95*len(nstd))]:.3f}")

    print("Fig6 scaling (inception_v1, D=6400):")
    job6 = TrainingJob(IMAGENET_6400, batch_size=32)
    for k in (2, 3, 4):
        reds = []
        for g in ("V100", "K80", "T4", "M60"):
            t1 = measure("inception_v1", g, 1, job6).total_us
            tk = measure("inception_v1", g, k, job6).total_us
            reds.append(1 - tk / t1)
        print(f"  k={k}: avg reduction {sum(reds)/len(reds):.1%} ({['%.0f%%' % (100*r) for r in reds]})")

    ga = build_model("alexnet")
    for g in ("V100", "K80", "T4", "M60"):
        W = run_iterations(ga, g, N).compute_us
        S = comm_overhead_base_us(g, 1, ga.num_parameters, ga.num_variables)
        print(f"AlexNet comm fraction {g}: {S/(S+W):.1%}")

    print("Fig8 (k=4, ImageNet epoch):")
    for name in TEST_MODELS:
        res = {g: measure(name, g, 4, IMAGENET_EPOCH) for g in ("V100", "K80", "T4", "M60")}
        t = {g: r.total_us for g, r in res.items()}
        c = {g: r.cost_dollars for g, r in res.items()}
        print(f"  {name:14s} P3 cuts vs P2/G3/G4: "
              f"{1-t['V100']/t['K80']:.0%}/{1-t['V100']/t['M60']:.0%}/{1-t['V100']/t['T4']:.0%} "
              f"G4time/P3time={t['T4']/t['V100']:.2f} cheapest-cost={min(c, key=c.get)} "
              f"costs V100=${c['V100']:.0f} T4=${c['T4']:.0f}")

    print("Fig9 ($3/hr): configs P2k3,G3k3,G4k3,P3k1 — per-sample time (ms)")
    cfgs = [("K80", 3), ("M60", 3), ("T4", 3), ("V100", 1)]
    for name in TEST_MODELS:
        per = {}
        for g, k in cfgs:
            m = measure(name, g, k, IMAGENET_EPOCH)
            per[f"{g}x{k}"] = m.per_iteration_us / (k * 32) / 1e3
        best = min(per, key=per.get)
        print(f"  {name:14s} best={best:8s} " + " ".join(f"{c}={v:.2f}" for c, v in per.items()))

    print("Fig10 (resnet_101, all configs): cost & time")
    feas = []
    for g in ("V100", "K80", "T4", "M60"):
        for k in (1, 2, 3, 4):
            m = measure("resnet_101", g, k, IMAGENET_EPOCH)
            feas.append((m.cost_dollars, m.total_hours, f"{g}x{k}"))
    for cost, hours, cfg in sorted(feas):
        print(f"  {cfg:8s} ${cost:6.2f}  {hours:6.2f} h")

    for pricing, tag in ((ON_DEMAND, "Fig11 aws"), (MARKET_RATIO, "Fig12 market")):
        costs = {}
        for g in ("V100", "K80", "T4", "M60"):
            for k in (1, 2, 3, 4):
                m = measure("inception_v3", g, k, IMAGENET_EPOCH, pricing=pricing)
                costs[f"{g}x{k}"] = m.cost_dollars
        best = min(costs, key=costs.get)
        print(f"{tag}: cheapest={best} " + " ".join(f"{c}=${v:.1f}" for c, v in sorted(costs.items())))


if __name__ == "__main__":
    main()
