#!/bin/sh
# End-to-end desk run: render data, train all three models, sample with
# guidance, rerank, and score. About ten minutes on one CPU core; every
# artifact lands under demo_out/ and reruns reproduce it byte for byte.
set -e
cd "$(dirname "$0")"
CFG=config_desk.json
OUT=demo_out

ttig make-data --config $CFG --out $OUT/data_train
ttig make-data --config $CFG --out $OUT/data_eval --split eval

ttig train-tokenizer --config $CFG --out $OUT/tok
ttig train-model     --config $CFG --tokenizer $OUT/tok --out $OUT/model
ttig train-reranker  --config $CFG --out $OUT/reranker

PROMPT="a red circle above a blue square"
ttig sample --config $CFG --model $OUT/model --tokenizer $OUT/tok \
            --prompt "$PROMPT" --seed 7 --out $OUT/samples
ttig rerank --dir $OUT/samples --reranker $OUT/reranker

ttig eval-alignment --dir $OUT/samples
ttig eval-fid --real $OUT/data_eval --gen $OUT/samples \
              --features $OUT/reranker
ttig retrieve --config $CFG --reranker $OUT/reranker --caption "$PROMPT" --k 3

echo "artifacts in demos/$OUT; rerun this script to get identical bytes"
