"""asymfuse: asymmetric-convolution fusion of template and search features.

The core idea: convolving the channel concatenation [template; window]
with one kernel equals convolving template and window with the two
kernel halves separately and adding, so the per-window concatenation in
template/search matching can be replaced by two independent convolutions
plus a broadcast add. The package carries both routes (the naive one as
the oracle), the correlation ops the fused form replaces, a small
reverse-mode tape to train through it, and measurement tools.

The measurement tools are submodules that this package does not load:
import them by path (``from asymfuse.bench import bench_compare``, and
likewise ``asymfuse.gradcheck`` and ``asymfuse.analysis``).
"""

from .autograd import Parameter, Tape, backward, finite_diff_grad, sgd_step
from .errors import NonFiniteMapError
from .fusion import (
    FusionWeights,
    TemplateCache,
    acm_apply_search,
    acm_cache_template,
    acm_forward,
    naive_concat_corr,
)
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
