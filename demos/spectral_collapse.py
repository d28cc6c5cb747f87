"""How bias strength flattens representations.

Trains a plain classifier on ColorPoints at increasing bias ratios and
prints the effective rank of the penultimate representations next to the
unbiased test accuracy. The stronger the spurious correlation, the fewer
directions the network keeps, and the worse it transfers. Runs in a few
minutes on one core.
"""

from dataclasses import replace

from rankdebias.data import GenConfig, gen_colorpoints, make_unbiased_testset
from rankdebias.nn import apply
from rankdebias.pipeline import ExperimentConfig, erm_train, evaluate
from rankdebias.spectral import normalized_spectrum, svd_values

RATIOS = [0.95, 0.98, 0.99, 0.995]
CLASSES = 10
DIM = 2 + CLASSES  # arc coords + bias block, no distractor padding
SEED = 0


def make_dataset(r):
    return gen_colorpoints(GenConfig(n=10000, classes=CLASSES, bias_ratio=r,
                                     input_dim=DIM, seed=100))


def make_testset():
    source = gen_colorpoints(GenConfig(n=4000, classes=CLASSES, bias_ratio=1.0,
                                       input_dim=DIM, seed=900))
    return make_unbiased_testset(source, seed=901)


def rank_trajectory(bias_ratios, make_dataset, test, cfg):
    """Plain supervised training across a family of bias ratios:
    (a row per ratio, the model trained at each ratio).

    make_dataset(r) returns the training set for ratio r, and test is the
    unbiased evaluation set. Each row records the representation rank and
    the unbiased accuracy on test.
    """
    plain = replace(cfg, lambda_reg=0.0)
    rows, models = [], []
    for r in bias_ratios:
        model, _ = erm_train(make_dataset(float(r)), plain)
        report = evaluate(model, test)
        rows.append({"r": float(r), "eff_rank": report.eff_rank,
                     "unbiased_acc": report.unbiased_acc})
        models.append(model)
    return rows, models


def main():
    cfg = ExperimentConfig(epochs=60, warmup_epochs=6, base_lr=1e-3,
                           weight_decay=3e-3, hidden_dims=(256, 256),
                           latent_dim=64, seed=SEED)
    print(f"classifier: {cfg.hidden_dims} -> {cfg.latent_dim}, "
          f"{cfg.epochs} epochs per ratio")
    print(f"{'r':>6} {'eff_rank':>9} {'unbiased_acc':>13}")
    test = make_testset()
    rows, models = rank_trajectory(RATIOS, make_dataset, test, cfg)
    for row in rows:
        print(f"{row['r']:>6} {row['eff_rank']:>9.3f} {row['unbiased_acc']:>12.1f}%")
    drop = 100.0 * (rows[0]["eff_rank"] - rows[-1]["eff_rank"]) / rows[0]["eff_rank"]
    print(f"\nrank shrinks {drop:.1f}% from r={RATIOS[0]} to r={RATIOS[-1]}")

    # the flattening is visible in the spectrum itself: compare how fast
    # the top singular values decay at the two extremes
    for r, model in ((RATIOS[0], models[0]), (RATIOS[-1], models[-1])):
        values = svd_values(apply(model.encoder, test.inputs))
        top = " ".join(f"{v:.3f}" for v in normalized_spectrum(values)[:8])
        print(f"r={r}: top normalized singular values {top}")


if __name__ == "__main__":
    main()
