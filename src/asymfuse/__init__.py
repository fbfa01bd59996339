"""asymfuse: asymmetric-convolution fusion of template and search features.

The core idea: convolving the channel concatenation [template; window]
with one kernel equals convolving template and window with the two
kernel halves separately and adding, so the per-window concatenation in
template/search matching can be replaced by two independent convolutions
plus a broadcast add. The package carries both routes (the naive one as
the oracle), the correlation ops the fused form replaces, a small
reverse-mode tape to train through it, and measurement tools.
"""

from .analysis import (
    ChannelDiversity,
    DiscriminabilityReport,
    channel_diversity,
    discriminability,
    find_distractor,
    heatmap_export,
)
from .autograd import Parameter, Tape, backward, finite_diff_grad, sgd_step
from .bench import (
    BenchConfig,
    BenchResult,
    bench_compare,
    naive_scaling_slope,
    write_json,
)
from .errors import NonFiniteMapError
from .fusion import (
    FusionWeights,
    TemplateCache,
    acm_apply_search,
    acm_cache_template,
    acm_forward,
    naive_concat_corr,
)
from .gradcheck import CheckResult, gradient_check_suite
from .nn import (
    BatchNormParams,
    ConvKernel,
    FcLayer,
    batchnorm_infer,
    conv2d_valid,
    depthwise_corr,
    fc_forward,
    global_avg_pool,
    head1x1,
    mlp3_forward,
    xcorr,
)
from .tensor import (
    broadcast_add,
    broadcast_shape,
    cosine_similarity,
    l1_map,
    relu,
    tensor_read,
    tensor_write,
)
from .toytask import (
    GridSample,
    ToyModel,
    ToyTrainConfig,
    ToyTrainResult,
    gen_dataset,
    heldout_set,
    locality_rate,
    toy_evaluate,
    toy_forward,
    toy_train,
)

__version__ = "0.1.0"
