#!/usr/bin/env bash
# Reruns are byte-identical (acceptance criterion 8): run_all runs every CLI
# command on small inputs, once in WORK_DIR/first and once in WORK_DIR/second:
# a 12-plan grid, gen-data with and without a split, render with and without a
# label filter, an attack-role train-classifier, train-vae with and without a
# reconstruction classifier, an independent sweep and a multiplicative attack
# with its evaluation on the grid's networks, and a poisoning+class sweep
# configured through vae_ keys with its per-direction evaluation. In each tree,
# each sweep's reg 0.01 files must be `cmp`-equal to a single run's. Then the
# two trees must be `diff -r`-equal, so must the commands' printed lines
# (first.out, second.out) without the timed done: lines, and no `*.part` file
# (a write that never reached its rename) may be left. About 11 s.
#
# Usage: scripts/check_reruns.sh WORK_DIR
#
# WORK_DIR must not exist yet; every file the commands write lands in it.
# Both trees use the same relative paths, because each plan echoes its
# out_dir into its files. The package is imported from this script's own
# tree, so running the script of two checkouts into two work directories
# and comparing their first/ trees with `diff -r` shows whether a change
# moved any output byte.
set -eo pipefail
work=${1:?usage: scripts/check_reruns.sh WORK_DIR}
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
lp() { python -m latentpoison "$@"; }
run_all() {
  lp run-grid --out-dir g --sample-count 60 --width 8 --height 8 --test-count 20 --vae-epochs 2 --attack-epochs 3 --latent-dim 4 --batch-size 16 --seed 1 --data-seed 1 --include-multiplicative
  lp gen-data --out-dir d --count 60 --width 8 --height 8 --test-count 20 --seed 1
  lp gen-data --out-dir dw --count 12 --width 12 --height 8 --test-count 0 --seed 2
  lp render --images d/test-images.idx --labels d/test-labels.idx --count 6 --columns 3 --out rc/all.pgm
  lp render --images d/test-images.idx --labels d/test-labels.idx --count 4 --columns 2 --label 1 --out rc/ones.pgm
  lp train-classifier --images d/train-images.idx --labels d/train-labels.idx --role attack --epochs 2 --batch-size 16 --out rc/attack_classifier.ckpt
  nets=g/independent_additive_l2
  vae="train-vae --images d/train-images.idx --labels d/train-labels.idx --epochs 2 --batch-size 16 --latent-dim 4"
  lp $vae --out tv/plain/vae.ckpt
  lp $vae --recon-classifier $nets/attack_classifier.ckpt --recon-class-weight 1.0 --out tv/recon/vae.ckpt
  independent="learn-attack --mode independent --images d/train-images.idx --labels d/train-labels.idx --vae $nets/vae.ckpt --classifier $nets/attack_classifier.ckpt --epochs 3 --batch-size 16"
  lp $independent --out-dir li --sweep
  lp $independent --out-dir li.single --reg-weight 0.01
  cmp li.single/perturbation.ckpt li/perturbation_reg_0.01.ckpt >&2
  lp $independent --out-dir lm --family multiplicative --random-init
  lp evaluate --vae $nets/vae.ckpt --perturbation lm/perturbation.ckpt --classifier $nets/eval_classifier.ckpt --images d/test-images.idx --labels d/test-labels.idx --out-dir lm/evaluation
  printf 'vae_epochs = 2\nvae_latent_dim = 4\nvae_recon_class_weight = 1.0\n' > d/attack.cfg
  attack="learn-attack --mode poisoning+class --images d/train-images.idx --labels d/train-labels.idx --config d/attack.cfg --epochs 3 --batch-size 16 --per-direction"
  lp $attack --out-dir la --sweep
  lp train-classifier --images d/train-images.idx --labels d/train-labels.idx --role eval --epochs 2 --batch-size 16 --out la/eval_classifier.ckpt
  lp evaluate --vae la/vae_reg_0.01.ckpt --perturbation la/perturbation_reg_0.01.ckpt --classifier la/eval_classifier.ckpt --images d/test-images.idx --labels d/test-labels.idx --out-dir la/evaluation
  lp $attack --out-dir la.single --reg-weight 0.01
  for name in perturbation vae attack_classifier; do
    cmp "la.single/$name.ckpt" "la/${name}_reg_0.01.ckpt" >&2
  done
}
mkdir -- "$work"
for tree in first second; do
  mkdir -- "$work/$tree"
  (cd -- "$work/$tree"; run_all) > "$work/$tree.out"
done
diff -r "$work/first" "$work/second"
diff -u --label first.out --label second.out <(grep -v '^done:' "$work/first.out") <(grep -v '^done:' "$work/second.out")
if find "$work" -name '*.part' | grep .; then
  echo "partial files left behind" >&2
  exit 1
fi
