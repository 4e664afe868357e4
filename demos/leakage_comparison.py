"""Demonstrates why the full-caption objective is 'leaky'.

Builds a corpus whose segments come in groups sharing the same first-half
words, frames, and scene graph but differing in their second halves. Under
the full-caption objective the encoder input fully determines the target, so
training loss can approach zero. Under the split-half objective several
continuations share one input, so the loss carries an irreducible entropy
floor (about ln(group size) nats spread over the second-half tokens).

Trains both objectives briefly and prints the dataset-level losses; the
leaky objective ends lower — which is exactly why it must not be used as a
pretraining signal if you care about transfer rather than memorization.
"""

from modalfuse.backbone import Model, ModelConfig
from modalfuse.experts import StubEncoders
from modalfuse.objectives import TrainConfig, corpus_loss, pretrain_examples, train
from modalfuse.synthetic import make_leakage_corpus

D = 64
# Note the step budget matters: early in training the split-half objective is
# the *easier* one (shorter targets), and only once the model starts
# memorizing does the leaky objective drop below the entropy floor. 500
# steps is past that crossover for this corpus; 200 is not.
STEPS = 500


def main():
    cfg = ModelConfig(d_model=D, n_heads=4, n_encoder_layers=1,
                      n_decoder_layers=1, d_ff=128, max_target_len=64)
    enc = StubEncoders(d=D, seed=0)
    corpus = make_leakage_corpus(n_segments=128, seed=0)
    n_groups = len({seg.video_id for seg, _ in corpus})
    print(f"{len(corpus)} segments in {n_groups} groups "
          f"({len(corpus) // n_groups} continuations per shared first half)\n")

    for objective, name in (("full_caption", "full_caption (leaky)"),
                            ("split_half", "split_half (no leak)")):
        examples = pretrain_examples(objective, corpus, enc, max_target_len=64)
        model = Model(cfg, seed=0)
        print(f"training {name} for {STEPS} steps ...")
        train(examples, model, TrainConfig(steps=STEPS, batch_size=16, lr=3e-3))
        final = corpus_loss(model, examples)
        print(f"  final dataset loss: {final:.4f}\n")

    print("the leaky objective converges below the non-leaky one: its target "
          "is a function of its input, so low loss measures memorization, "
          "not modeling.")


if __name__ == "__main__":
    main()
