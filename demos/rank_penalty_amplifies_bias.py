"""Amplifying a bias on purpose to expose it.

Adds the decorrelation penalty to supervised training with increasing
weight and watches what happens on a 99%-biased ColorPoints set: accuracy
on bias-aligned samples stays flat while bias-conflicting accuracy
collapses, and the model's training mistakes line up with exactly the
conflicting samples. That error set is what the debiasing stage upweights.
"""

from dataclasses import replace

from rankdebias.data import GenConfig, gen_colorpoints, make_unbiased_testset
from rankdebias.pipeline import (ErrorSet, ExperimentConfig, erm_train,
                                 error_set_quality, evaluate)

CLASSES = 5
DIM = 2 + CLASSES
SEED = 0


def main():
    ds = gen_colorpoints(GenConfig(n=6000, classes=CLASSES, bias_ratio=0.99,
                                   input_dim=DIM, seed=100))
    source = gen_colorpoints(GenConfig(n=3000, classes=CLASSES, bias_ratio=1.0,
                                       input_dim=DIM, seed=900))
    test = make_unbiased_testset(source, seed=901)
    cfg = ExperimentConfig(epochs=40, warmup_epochs=4, base_lr=1e-3,
                           weight_decay=1e-3, hidden_dims=(256, 256),
                           latent_dim=64, seed=SEED)

    print(f"{'lambda_reg':>10} {'conflict':>9} {'aligned':>8} {'eff_rank':>9} "
          f"{'err precision':>14} {'err recall':>11}")
    for lam in (0.0, 0.1, 1.0):
        model, log = erm_train(ds, replace(cfg, lambda_reg=lam))
        report = evaluate(model, test)
        errors = ErrorSet.misses(model.predict(ds.inputs), ds.y)
        precision, recall = error_set_quality(errors, ds)
        print(f"{lam:>10g} {report.bias_conflict_acc:>8.1f}% "
              f"{report.bias_aligned_acc:>7.1f}% {log[-1]['eff_rank']:>9.3f} "
              f"{precision:>13.1f}% {recall:>10.1f}%")
    print("\nhigher lambda_reg: aligned accuracy holds, conflict accuracy "
          "falls, and the error set covers more of the conflicting samples; "
          "push the weight too far and aligned errors start to dilute the "
          "set (precision drops)")


if __name__ == "__main__":
    main()
