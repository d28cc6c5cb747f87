"""The full two-stage pipeline, compared against its own ablations.

Stage 1 pretrains two encoders on unlabeled data with a contrastive loss:
a "main" encoder trained plainly and a "biased" encoder trained with the
decorrelation penalty so it leans harder on the shortcut. Stage 2 fits a
linear probe on the frozen biased encoder and collects its mistakes; the
probe can rely only on the shortcut, so its error set covers most of the
bias-conflicting samples. The final head is trained on the frozen main
encoder with that error set upweighted.

Three heads are compared on an unbiased test set:
  plain     no upweighting
  upweight  error set mined from the main encoder itself
  full      error set mined from the biased encoder

The main encoder's own errors make a poor substitute: its rich
representations let the probe fit most conflicting samples during mining,
so they never get upweighted.
"""

from dataclasses import replace

from rankdebias.data import GenConfig, gen_colorpoints, make_unbiased_testset
from rankdebias.pipeline import (ExperimentConfig, debiased_linear_eval,
                                 error_set_quality, evaluate, finetune_semisup,
                                 identify_error_set, pretrain_biased,
                                 pretrain_main)

CLASSES = 5
DIM = 2 + CLASSES
LAMBDA_REG = 0.05  # decorrelation weight for the biased encoder
LAMBDA_UP = 16.0   # upweight factor for mined samples


def main():
    ds = gen_colorpoints(GenConfig(n=10000, classes=CLASSES, bias_ratio=0.99,
                                   noise=0.02, input_dim=DIM, seed=100))
    source = gen_colorpoints(GenConfig(n=4000, classes=CLASSES, bias_ratio=1.0,
                                       noise=0.02, input_dim=DIM, seed=900))
    test = make_unbiased_testset(source, seed=901)
    cfg = ExperimentConfig(epochs=40, warmup_epochs=4, base_lr=1e-3,
                           hidden_dims=(256, 256), latent_dim=64,
                           proj_hidden=128, proj_dim=64, weight_decay=1e-4,
                           seed=0)

    print("stage 1: contrastive pretraining (labels unused)")
    main_enc, main_log = pretrain_main(ds, cfg)
    biased_enc, biased_log = pretrain_biased(ds, replace(cfg, lambda_reg=LAMBDA_REG))
    print(f"  main encoder   eff_rank {main_log[-1]['eff_rank']:.3f}")
    print(f"  biased encoder eff_rank {biased_log[-1]['eff_rank']:.3f} "
          f"(lambda_reg={LAMBDA_REG:g})")

    print("stage 2: error-set mining on frozen encoders")
    E_biased = identify_error_set(biased_enc, ds, cfg)
    E_main = identify_error_set(main_enc, ds, cfg)
    for name, E in (("biased", E_biased), ("main", E_main)):
        p, r = error_set_quality(E, ds)
        print(f"  E from {name:>6} encoder: {len(E):>4} samples, "
              f"precision {p:.1f}%, recall {r:.1f}% of true conflicts")

    print("final heads on the frozen main encoder")
    up_cfg = replace(cfg, lambda_up=LAMBDA_UP)
    heads = {
        "plain": debiased_linear_eval(main_enc, ds, None, replace(cfg, lambda_up=1.0)),
        "upweight": debiased_linear_eval(main_enc, ds, E_main, up_cfg),
        "full": debiased_linear_eval(main_enc, ds, E_biased, up_cfg),
    }
    for name, model in heads.items():
        rep = evaluate(model, test)
        print(f"  {name:>8}: conflict {rep.bias_conflict_acc:5.1f}%  "
              f"aligned {rep.bias_aligned_acc:5.1f}%  "
              f"unbiased {rep.unbiased_acc:5.1f}%")

    print("optional: finetune the whole model on the upweighted loss")
    tuned = evaluate(finetune_semisup(heads["full"], ds, E_biased, up_cfg), test)
    print(f"  finetuned: conflict {tuned.bias_conflict_acc:5.1f}%  "
          f"aligned {tuned.bias_aligned_acc:5.1f}%  "
          f"unbiased {tuned.unbiased_acc:5.1f}%")


if __name__ == "__main__":
    main()
