#!/usr/bin/env bash
# Reruns are byte-identical: acceptance criterion 8 on a small 12-plan grid
# and its printed summary without the timed done lines, on gen-data with and
# without a split, on render with and without a label filter and on an
# attack-role train-classifier with their printed lines, on train-vae with and
# without a reconstruction classifier writing under a new directory, on an
# independent sweep against the grid's networks, on an independent
# multiplicative attack against them with its evaluation, and on a
# poisoning+class sweep configured through vae_ keys, with its per-direction
# evaluation; each sweep's reg 0.01 files equal a single run's. Last, no
# `*.part` file (a write that never reached its rename) is left anywhere in
# the work tree. About 8 s.
#
# Usage: scripts/check_reruns.sh WORK_DIR
#
# WORK_DIR must not exist yet; every file the commands write lands in it.
# The package is imported from this script's own tree, so running the script
# of two checkouts into two work directories and comparing them with
# `diff -r` shows whether a change moved any output byte.
set -eo pipefail
work=${1:?usage: scripts/check_reruns.sh WORK_DIR}
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
mkdir -- "$work"
cd -- "$work"
grid="run-grid --out-dir g --sample-count 60 --width 8 --height 8 --test-count 20 --vae-epochs 2 --attack-epochs 3 --latent-dim 4 --batch-size 16 --seed 1 --data-seed 1 --include-multiplicative"
python -m latentpoison $grid | grep -v '^done:' > g.first.out
mv g g.first
python -m latentpoison $grid | grep -v '^done:' > g.out
diff -r g.first g
diff g.first.out g.out
gen_data() {
  python -m latentpoison gen-data --out-dir d --count 60 --width 8 --height 8 --test-count 20 --seed 1
  python -m latentpoison gen-data --out-dir dw --count 12 --width 12 --height 8 --test-count 0 --seed 2
}
gen_data
mv d d.first
mv dw dw.first
gen_data
diff -r d.first d
diff -r dw.first dw
render_and_classify() {
  python -m latentpoison render --images d/test-images.idx --labels d/test-labels.idx --count 6 --columns 3 --out rc/all.pgm
  python -m latentpoison render --images d/test-images.idx --labels d/test-labels.idx --count 4 --columns 2 --label 1 --out rc/ones.pgm
  python -m latentpoison train-classifier --images d/train-images.idx --labels d/train-labels.idx --role attack --epochs 2 --batch-size 16 --out rc/attack_classifier.ckpt
}
render_and_classify > rc.first.out
mv rc rc.first
render_and_classify > rc.out
diff -r rc.first rc
diff rc.first.out rc.out
nets=g/independent_additive_l2
train_vaes() {
  vae="train-vae --images d/train-images.idx --labels d/train-labels.idx --epochs 2 --batch-size 16 --latent-dim 4"
  python -m latentpoison $vae --out tv/plain/vae.ckpt
  python -m latentpoison $vae --recon-classifier $nets/attack_classifier.ckpt --recon-class-weight 1.0 --out tv/recon/vae.ckpt
}
train_vaes
mv tv tv.first
train_vaes
diff -r tv.first tv
independent="learn-attack --mode independent --images d/train-images.idx --labels d/train-labels.idx --vae $nets/vae.ckpt --classifier $nets/attack_classifier.ckpt --epochs 3 --batch-size 16"
python -m latentpoison $independent --out-dir li --sweep
mv li li.first
python -m latentpoison $independent --out-dir li --sweep
diff -r li.first li
python -m latentpoison $independent --out-dir li.single --reg-weight 0.01
cmp li.single/perturbation.ckpt li/perturbation_reg_0.01.ckpt
multiplicative_and_evaluate() {
  python -m latentpoison $independent --out-dir lm --family multiplicative --random-init
  python -m latentpoison evaluate --vae $nets/vae.ckpt --perturbation lm/perturbation.ckpt --classifier $nets/eval_classifier.ckpt --images d/test-images.idx --labels d/test-labels.idx --out-dir lm/evaluation
}
multiplicative_and_evaluate
mv lm lm.first
multiplicative_and_evaluate
diff -r lm.first lm
printf 'vae_epochs = 2\nvae_latent_dim = 4\nvae_recon_class_weight = 1.0\n' > d/attack.cfg
attack="learn-attack --mode poisoning+class --images d/train-images.idx --labels d/train-labels.idx --config d/attack.cfg --epochs 3 --batch-size 16 --per-direction"
sweep_and_evaluate() {
  python -m latentpoison $attack --out-dir la --sweep
  python -m latentpoison train-classifier --images d/train-images.idx --labels d/train-labels.idx --role eval --epochs 2 --batch-size 16 --out la/eval_classifier.ckpt
  python -m latentpoison evaluate --vae la/vae_reg_0.01.ckpt --perturbation la/perturbation_reg_0.01.ckpt --classifier la/eval_classifier.ckpt --images d/test-images.idx --labels d/test-labels.idx --out-dir la/evaluation
}
sweep_and_evaluate
mv la la.first
sweep_and_evaluate
diff -r la.first la
python -m latentpoison $attack --out-dir la.single --reg-weight 0.01
for name in perturbation vae attack_classifier; do
  cmp "la.single/$name.ckpt" "la/${name}_reg_0.01.ckpt"
done
if find . -name '*.part' | grep .; then
  echo "partial files left behind" >&2
  exit 1
fi
