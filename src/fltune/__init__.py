"""Desk-scale transformer encoder lab for feed-forward layer tuning.

Implements hidden-unit expansion of feed-forward sublayers over a frozen
backbone, prompt tuning baselines (input-level and per-layer key/value
prefixes), attention-side expansion, full fine-tuning, and the verification,
training, and persistence machinery around them.
"""

from .adapters import (
    FLAdapter,
    FLLayerParams,
    MAAdapter,
    MAHeadParams,
    ParamRegistry,
    PromptAdapter,
    VerifyReport,
    build_registry,
    count_parameters,
    ffn_fl_concat,
    ffn_fl_split,
    init_fl_adapter,
    init_ma_adapter,
    init_pv1_adapter,
    init_pv2_adapter,
    ma_concat_reference,
    ma_forward,
    tensor_content_hash,
    verify_ma_equivalence,
    verify_prefix_attention_rows,
    verify_theorem1,
    verify_theorem2,
)
from .checkpoint import (
    CheckpointError,
    load_adapter,
    load_backbone,
    load_checkpoint,
    load_tensors,
    load_trainable,
    save_adapter,
    save_backbone,
    save_tensors,
    save_trainable,
)
from .data import (
    Example,
    SyntheticTask,
    generate_task,
    pretrain_backbone,
    write_split_file,
    write_task_files,
)
from .encoder import (
    AttentionLayer,
    EncoderConfig,
    EncoderLayer,
    EncoderWeights,
    FFNLayer,
    attention_forward,
    encoder_forward,
    encoder_forward_batch,
    encoder_hidden,
    encoder_hidden_batch,
    ffn_forward,
    ffn_parameter_share,
    init_encoder,
)
from .tensor import (
    ShapeError,
    Tape,
    Tensor,
    add,
    affine,
    attention_values,
    attention_weights,
    check_gradients,
    concat,
    cross_entropy_mean,
    gather_rows,
    layer_norm,
    matmul,
    relu,
    row_slice,
    scale,
    softmax_rows,
    sum_all,
    transpose,
)
from .training import (
    Adam,
    DivergenceError,
    EvalResult,
    RunMetrics,
    SGD,
    TrainConfig,
    evaluate,
    fewshot_subsample,
    make_adapter,
    smooth_loss,
    span_f1,
    steps_to_threshold,
    train,
)

__version__ = "0.1.0"
