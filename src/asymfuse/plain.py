"""Autograd's forward op names over plain arrays: each is the ``nn``/``tensor`` function
its taped op computes values with, adapted where the signatures differ, so a forward over
an op set gives the same bits here as on a tape. The names are those functions themselves,
so a tracer that wraps them wherever they are looked up sees these calls too."""

from . import nn
from . import tensor as T

add, relu, mean_pool, mlp3 = T.broadcast_add, T.relu, nn.global_avg_pool, nn.mlp3_forward
conv2d, head1x1, depthwise, xcorr = nn.conv2d_valid, nn.head1x1, nn.depthwise_corr, nn.xcorr


def affine(x, w, b):
    return nn.fc_forward(x, (w, b))


def batchnorm(x, gamma, beta, running_mean, running_var):
    return nn.batchnorm_infer(x, nn._batchnorm_fold(gamma, beta, running_mean, running_var))


def reshape(x, shape):
    return x.reshape(shape)
