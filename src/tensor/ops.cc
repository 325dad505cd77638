#include "tensor/ops.h"

#include <cmath>

#include "common/logging.h"

namespace nlidb {
namespace ops {

namespace {

Var NewNode(Tensor value, std::vector<Var> parents,
            std::function<void(AutogradNode&)> backward_fn) {
  auto node = std::make_shared<AutogradNode>();
  node->value = std::move(value);
  node->parents = std::move(parents);
  node->backward_fn = std::move(backward_fn);
  return node;
}

}  // namespace

Var MatMul(const Var& a, const Var& b) {
  Tensor out = nlidb::MatMul(a->value, b->value);
  return NewNode(std::move(out), {a, b}, [](AutogradNode& n) {
    const Var& a = n.parents[0];
    const Var& b = n.parents[1];
    // dA += dOut * B^T ; dB += A^T * dOut
    MatMulTransposeBAccumulate(n.grad, b->value, a->EnsureGrad());
    MatMulTransposeAAccumulate(a->value, n.grad, b->EnsureGrad());
  });
}

Var Add(const Var& a, const Var& b) {
  NLIDB_CHECK(a->value.shape() == b->value.shape()) << "Add shape mismatch";
  Tensor out = a->value;
  out.Add(b->value);
  return NewNode(std::move(out), {a, b}, [](AutogradNode& n) {
    n.parents[0]->EnsureGrad().Add(n.grad);
    n.parents[1]->EnsureGrad().Add(n.grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  NLIDB_CHECK(a->value.shape() == b->value.shape()) << "Sub shape mismatch";
  Tensor out = a->value;
  out.Axpy(-1.0f, b->value);
  return NewNode(std::move(out), {a, b}, [](AutogradNode& n) {
    n.parents[0]->EnsureGrad().Add(n.grad);
    n.parents[1]->EnsureGrad().Axpy(-1.0f, n.grad);
  });
}

Var Mul(const Var& a, const Var& b) {
  NLIDB_CHECK(a->value.shape() == b->value.shape()) << "Mul shape mismatch";
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) out.vec()[i] *= b->value.vec()[i];
  return NewNode(std::move(out), {a, b}, [](AutogradNode& n) {
    Tensor* ga = &n.parents[0]->EnsureGrad();
    Tensor* gb = &n.parents[1]->EnsureGrad();
    const auto& av = n.parents[0]->value.vec();
    const auto& bv = n.parents[1]->value.vec();
    for (size_t i = 0; i < n.grad.size(); ++i) {
      ga->vec()[i] += n.grad.vec()[i] * bv[i];
      gb->vec()[i] += n.grad.vec()[i] * av[i];
    }
  });
}

Var AddRowBroadcast(const Var& a, const Var& bias) {
  const int m = a->value.rows();
  const int nc = a->value.cols();
  NLIDB_CHECK(static_cast<int>(bias->value.size()) == nc)
      << "AddRowBroadcast width mismatch";
  Tensor out = a->value;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < nc; ++j) out(i, j) += bias->value(j);
  }
  return NewNode(std::move(out), {a, bias}, [](AutogradNode& n) {
    n.parents[0]->EnsureGrad().Add(n.grad);
    Tensor& gb = n.parents[1]->EnsureGrad();
    const int m = n.grad.rows();
    const int nc = n.grad.cols();
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < nc; ++j) gb.vec()[j] += n.grad(i, j);
    }
  });
}

Var ScalarMul(const Var& a, float s) {
  Tensor out = a->value;
  out.Scale(s);
  return NewNode(std::move(out), {a}, [s](AutogradNode& n) {
    n.parents[0]->EnsureGrad().Axpy(s, n.grad);
  });
}

Var Sigmoid(const Var& a) {
  Tensor out = a->value;
  for (float& x : out.vec()) x = 1.0f / (1.0f + std::exp(-x));
  return NewNode(std::move(out), {a}, [](AutogradNode& n) {
    Tensor* ga = &n.parents[0]->EnsureGrad();
    for (size_t i = 0; i < n.grad.size(); ++i) {
      const float y = n.value.vec()[i];
      ga->vec()[i] += n.grad.vec()[i] * y * (1.0f - y);
    }
  });
}

Var Tanh(const Var& a) {
  Tensor out = a->value;
  TanhRaw(out.data(), out.data(), static_cast<int>(out.size()));
  return NewNode(std::move(out), {a}, [](AutogradNode& n) {
    Tensor* ga = &n.parents[0]->EnsureGrad();
    for (size_t i = 0; i < n.grad.size(); ++i) {
      const float y = n.value.vec()[i];
      ga->vec()[i] += n.grad.vec()[i] * (1.0f - y * y);
    }
  });
}

Var Relu(const Var& a) {
  Tensor out = a->value;
  for (float& x : out.vec()) x = x > 0.0f ? x : 0.0f;
  return NewNode(std::move(out), {a}, [](AutogradNode& n) {
    Tensor* ga = &n.parents[0]->EnsureGrad();
    for (size_t i = 0; i < n.grad.size(); ++i) {
      if (n.parents[0]->value.vec()[i] > 0.0f) {
        ga->vec()[i] += n.grad.vec()[i];
      }
    }
  });
}

Var Exp(const Var& a) {
  Tensor out = a->value;
  for (float& x : out.vec()) x = std::exp(std::min(x, 20.0f));
  return NewNode(std::move(out), {a}, [](AutogradNode& n) {
    Tensor* ga = &n.parents[0]->EnsureGrad();
    for (size_t i = 0; i < n.grad.size(); ++i) {
      // d/dx exp(min(x,20)) = exp(x) below the clamp, 0 above it.
      if (n.parents[0]->value.vec()[i] < 20.0f) {
        ga->vec()[i] += n.grad.vec()[i] * n.value.vec()[i];
      }
    }
  });
}

Var SoftmaxRows(const Var& a) {
  NLIDB_CHECK(a->value.rank() == 2) << "SoftmaxRows requires rank 2";
  Tensor out = a->value;
  const int m = out.rows();
  const int nc = out.cols();
  for (int i = 0; i < m; ++i) {
    float mx = out(i, 0);
    for (int j = 1; j < nc; ++j) mx = std::max(mx, out(i, j));
    float sum = 0.0f;
    for (int j = 0; j < nc; ++j) {
      out(i, j) = std::exp(out(i, j) - mx);
      sum += out(i, j);
    }
    for (int j = 0; j < nc; ++j) out(i, j) /= sum;
  }
  return NewNode(std::move(out), {a}, [](AutogradNode& n) {
    Tensor* ga = &n.parents[0]->EnsureGrad();
    const int m = n.value.rows();
    const int nc = n.value.cols();
    for (int i = 0; i < m; ++i) {
      float dot = 0.0f;
      for (int j = 0; j < nc; ++j) dot += n.grad(i, j) * n.value(i, j);
      for (int j = 0; j < nc; ++j) {
        (*ga)(i, j) += n.value(i, j) * (n.grad(i, j) - dot);
      }
    }
  });
}

Var Transpose(const Var& a) {
  return NewNode(a->value.Transposed(), {a}, [](AutogradNode& n) {
    n.parents[0]->EnsureGrad().Add(n.grad.Transposed());
  });
}

Var ConcatCols(const std::vector<Var>& parts) {
  NLIDB_CHECK(!parts.empty()) << "ConcatCols of nothing";
  const int m = parts[0]->value.rows();
  int total = 0;
  for (const auto& p : parts) {
    NLIDB_CHECK(p->value.rank() == 2 && p->value.rows() == m)
        << "ConcatCols row mismatch";
    total += p->value.cols();
  }
  Tensor out({m, total});
  int offset = 0;
  for (const auto& p : parts) {
    const int nc = p->value.cols();
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < nc; ++j) out(i, offset + j) = p->value(i, j);
    }
    offset += nc;
  }
  return NewNode(std::move(out), parts, [](AutogradNode& n) {
    const int m = n.grad.rows();
    int offset = 0;
    for (auto& p : n.parents) {
      const int nc = p->value.cols();
      Tensor& gp = p->EnsureGrad();
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < nc; ++j) gp(i, j) += n.grad(i, offset + j);
      }
      offset += nc;
    }
  });
}

Var ConcatRows(const std::vector<Var>& parts) {
  NLIDB_CHECK(!parts.empty()) << "ConcatRows of nothing";
  const int nc = parts[0]->value.cols();
  int total = 0;
  for (const auto& p : parts) {
    NLIDB_CHECK(p->value.rank() == 2 && p->value.cols() == nc)
        << "ConcatRows col mismatch";
    total += p->value.rows();
  }
  Tensor out({total, nc});
  int offset = 0;
  for (const auto& p : parts) {
    for (int i = 0; i < p->value.rows(); ++i) {
      for (int j = 0; j < nc; ++j) out(offset + i, j) = p->value(i, j);
    }
    offset += p->value.rows();
  }
  return NewNode(std::move(out), parts, [](AutogradNode& n) {
    const int nc = n.grad.cols();
    int offset = 0;
    for (auto& p : n.parents) {
      Tensor& gp = p->EnsureGrad();
      for (int i = 0; i < p->value.rows(); ++i) {
        for (int j = 0; j < nc; ++j) gp(i, j) += n.grad(offset + i, j);
      }
      offset += p->value.rows();
    }
  });
}

Var PickRow(const Var& a, int i) {
  NLIDB_CHECK(a->value.rank() == 2 && i >= 0 && i < a->value.rows())
      << "PickRow out of range";
  Tensor out({1, a->value.cols()});
  for (int j = 0; j < a->value.cols(); ++j) out(0, j) = a->value(i, j);
  return NewNode(std::move(out), {a}, [i](AutogradNode& n) {
    Tensor* ga = &n.parents[0]->EnsureGrad();
    for (int j = 0; j < n.grad.cols(); ++j) (*ga)(i, j) += n.grad(0, j);
  });
}

Var SliceCols(const Var& a, int start, int len) {
  NLIDB_CHECK(a->value.rank() == 2 && start >= 0 && len > 0 &&
              start + len <= a->value.cols())
      << "SliceCols out of range";
  const int m = a->value.rows();
  Tensor out({m, len});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < len; ++j) out(i, j) = a->value(i, start + j);
  }
  return NewNode(std::move(out), {a}, [start, len](AutogradNode& n) {
    Tensor* ga = &n.parents[0]->EnsureGrad();
    for (int i = 0; i < n.grad.rows(); ++i) {
      for (int j = 0; j < len; ++j) (*ga)(i, start + j) += n.grad(i, j);
    }
  });
}

Var RowMax(const Var& a) {
  NLIDB_CHECK(a->value.rank() == 2 && a->value.cols() > 0) << "RowMax shape";
  const int m = a->value.rows();
  const int nc = a->value.cols();
  Tensor out({m, 1});
  auto argmax = std::make_shared<std::vector<int>>(m);
  for (int i = 0; i < m; ++i) {
    int best = 0;
    for (int j = 1; j < nc; ++j) {
      if (a->value(i, j) > a->value(i, best)) best = j;
    }
    (*argmax)[i] = best;
    out(i, 0) = a->value(i, best);
  }
  return NewNode(std::move(out), {a}, [argmax](AutogradNode& n) {
    Tensor* ga = &n.parents[0]->EnsureGrad();
    for (int i = 0; i < n.grad.rows(); ++i) {
      (*ga)(i, (*argmax)[i]) += n.grad(i, 0);
    }
  });
}

Var RowMean(const Var& a) {
  NLIDB_CHECK(a->value.rank() == 2 && a->value.cols() > 0) << "RowMean shape";
  const int m = a->value.rows();
  const int nc = a->value.cols();
  const float inv = 1.0f / static_cast<float>(nc);
  Tensor out({m, 1});
  for (int i = 0; i < m; ++i) {
    float s = 0.0f;
    for (int j = 0; j < nc; ++j) s += a->value(i, j);
    out(i, 0) = s * inv;
  }
  return NewNode(std::move(out), {a}, [inv](AutogradNode& n) {
    Tensor* ga = &n.parents[0]->EnsureGrad();
    for (int i = 0; i < n.grad.rows(); ++i) {
      const float g = n.grad(i, 0) * inv;
      for (int j = 0; j < ga->cols(); ++j) (*ga)(i, j) += g;
    }
  });
}

Var SumAll(const Var& a) {
  Tensor out({1});
  out(0) = a->value.Sum();
  return NewNode(std::move(out), {a}, [](AutogradNode& n) {
    Tensor* ga = &n.parents[0]->EnsureGrad();
    const float g = n.grad(0);
    for (float& x : ga->vec()) x += g;
  });
}

Var EmbeddingLookup(const Var& weight, const std::vector<int>& indices) {
  NLIDB_CHECK(weight->value.rank() == 2) << "EmbeddingLookup weight rank";
  const int vocab = weight->value.rows();
  const int d = weight->value.cols();
  Tensor out({static_cast<int>(indices.size()), d});
  for (size_t i = 0; i < indices.size(); ++i) {
    NLIDB_CHECK(indices[i] >= 0 && indices[i] < vocab)
        << "embedding index " << indices[i] << " out of [0," << vocab << ")";
    for (int j = 0; j < d; ++j) out(static_cast<int>(i), j) = weight->value(indices[i], j);
  }
  return NewNode(std::move(out), {weight}, [indices](AutogradNode& n) {
    Tensor* gw = &n.parents[0]->EnsureGrad();
    const int d = n.grad.cols();
    for (size_t i = 0; i < indices.size(); ++i) {
      for (int j = 0; j < d; ++j) {
        (*gw)(indices[i], j) += n.grad(static_cast<int>(i), j);
      }
    }
  });
}

Var Conv1dMean(const Var& input, const Var& weight, const Var& bias, int k) {
  NLIDB_CHECK(input->value.rank() == 2) << "Conv1dMean input rank";
  const int len = input->value.rows();
  const int d_in = input->value.cols();
  NLIDB_CHECK(weight->value.rows() == k * d_in) << "Conv1dMean weight shape";
  const int d_out = weight->value.cols();
  // Zero-pad so that at least one slice exists (paper: "we pad with zeros
  // so that at least one slice is available").
  const int padded_len = std::max(len, k);
  const int num_slices = padded_len - k + 1;
  Tensor out({1, d_out});
  for (int s = 0; s < num_slices; ++s) {
    for (int r = 0; r < k; ++r) {
      const int row = s + r;
      if (row >= len) continue;  // zero padding contributes nothing
      for (int c = 0; c < d_in; ++c) {
        const float x = input->value(row, c);
        if (x == 0.0f) continue;
        const int wrow = r * d_in + c;
        for (int o = 0; o < d_out; ++o) out(0, o) += x * weight->value(wrow, o);
      }
    }
  }
  const float inv = 1.0f / static_cast<float>(num_slices);
  for (int o = 0; o < d_out; ++o) out(0, o) = out(0, o) * inv + bias->value(o);
  return NewNode(
      std::move(out), {input, weight, bias},
      [k, len, d_in, d_out, num_slices, inv](AutogradNode& n) {
        Tensor* gin = &n.parents[0]->EnsureGrad();
        Tensor* gw = &n.parents[1]->EnsureGrad();
        Tensor* gb = &n.parents[2]->EnsureGrad();
        const Tensor& in = n.parents[0]->value;
        const Tensor& w = n.parents[1]->value;
        for (int o = 0; o < d_out; ++o) gb->vec()[o] += n.grad(0, o);
        for (int s = 0; s < num_slices; ++s) {
          for (int r = 0; r < k; ++r) {
            const int row = s + r;
            if (row >= len) continue;
            for (int c = 0; c < d_in; ++c) {
              const int wrow = r * d_in + c;
              float gx = 0.0f;
              for (int o = 0; o < d_out; ++o) {
                const float go = n.grad(0, o) * inv;
                gx += go * w(wrow, o);
                (*gw)(wrow, o) += go * in(row, c);
              }
              (*gin)(row, c) += gx;
            }
          }
        }
      });
}

Var LayerNormRows(const Var& a, const Var& gain, const Var& bias) {
  NLIDB_CHECK(a->value.rank() == 2) << "LayerNormRows rank";
  const int m = a->value.rows();
  const int nc = a->value.cols();
  NLIDB_CHECK(static_cast<int>(gain->value.size()) == nc &&
              static_cast<int>(bias->value.size()) == nc)
      << "LayerNormRows gain/bias width";
  constexpr float kEps = 1e-5f;
  Tensor out({m, nc});
  auto mean = std::make_shared<std::vector<float>>(m);
  auto inv_std = std::make_shared<std::vector<float>>(m);
  for (int i = 0; i < m; ++i) {
    float mu = 0.0f;
    for (int j = 0; j < nc; ++j) mu += a->value(i, j);
    mu /= nc;
    float var = 0.0f;
    for (int j = 0; j < nc; ++j) {
      const float d = a->value(i, j) - mu;
      var += d * d;
    }
    var /= nc;
    (*mean)[i] = mu;
    (*inv_std)[i] = 1.0f / std::sqrt(var + kEps);
    for (int j = 0; j < nc; ++j) {
      out(i, j) = gain->value(j) * (a->value(i, j) - mu) * (*inv_std)[i] +
                  bias->value(j);
    }
  }
  return NewNode(std::move(out), {a, gain, bias},
                 [mean, inv_std](AutogradNode& n) {
    const Var& a = n.parents[0];
    const Var& gain = n.parents[1];
    Tensor* ga = &a->EnsureGrad();
    Tensor* gg = &n.parents[1]->EnsureGrad();
    Tensor* gb = &n.parents[2]->EnsureGrad();
    const int m = n.grad.rows();
    const int nc = n.grad.cols();
    for (int i = 0; i < m; ++i) {
      const float mu = (*mean)[i];
      const float istd = (*inv_std)[i];
      // dL/dxhat_j = g_j * dL/dy_j ; standard layer-norm backward.
      float sum_dxhat = 0.0f;
      float sum_dxhat_xhat = 0.0f;
      for (int j = 0; j < nc; ++j) {
        const float xhat = (a->value(i, j) - mu) * istd;
        const float dy = n.grad(i, j);
        gg->vec()[j] += dy * xhat;
        gb->vec()[j] += dy;
        const float dxhat = dy * gain->value(j);
        sum_dxhat += dxhat;
        sum_dxhat_xhat += dxhat * xhat;
      }
      for (int j = 0; j < nc; ++j) {
        const float xhat = (a->value(i, j) - mu) * istd;
        const float dxhat = n.grad(i, j) * gain->value(j);
        (*ga)(i, j) += istd * (dxhat - (sum_dxhat + xhat * sum_dxhat_xhat) /
                                           static_cast<float>(nc));
      }
    }
  });
}

Var ScatterSumCols(const Var& values, const std::vector<int>& col_indices,
                   int width) {
  NLIDB_CHECK(values->value.rank() == 2 && values->value.rows() == 1)
      << "ScatterSumCols expects [1,n] values";
  NLIDB_CHECK(static_cast<size_t>(values->value.cols()) == col_indices.size())
      << "ScatterSumCols index count mismatch";
  Tensor out({1, width});
  for (size_t j = 0; j < col_indices.size(); ++j) {
    const int idx = col_indices[j];
    NLIDB_CHECK(idx >= 0 && idx < width) << "ScatterSumCols index range";
    out(0, idx) += values->value(0, static_cast<int>(j));
  }
  return NewNode(std::move(out), {values}, [col_indices](AutogradNode& n) {
    Tensor* gv = &n.parents[0]->EnsureGrad();
    for (size_t j = 0; j < col_indices.size(); ++j) {
      (*gv)(0, static_cast<int>(j)) += n.grad(0, col_indices[j]);
    }
  });
}

Var BceWithLogits(const Var& logit, float target) {
  NLIDB_CHECK(logit->value.size() == 1) << "BceWithLogits expects one logit";
  const float x = logit->value.vec()[0];
  // Numerically stable: max(x,0) - x*t + log(1 + exp(-|x|)).
  const float loss = std::max(x, 0.0f) - x * target +
                     std::log1p(std::exp(-std::fabs(x)));
  Tensor out({1});
  out(0) = loss;
  return NewNode(std::move(out), {logit}, [target](AutogradNode& n) {
    Tensor* gl = &n.parents[0]->EnsureGrad();
    const float x = n.parents[0]->value.vec()[0];
    const float sigma = 1.0f / (1.0f + std::exp(-x));
    gl->vec()[0] += n.grad(0) * (sigma - target);
  });
}

Var CrossEntropyWithLogits(const Var& logits, int index) {
  NLIDB_CHECK(logits->value.rank() == 2 && logits->value.rows() == 1)
      << "CrossEntropyWithLogits expects [1,n]";
  const int nc = logits->value.cols();
  NLIDB_CHECK(index >= 0 && index < nc) << "CE index out of range";
  float mx = logits->value(0, 0);
  for (int j = 1; j < nc; ++j) mx = std::max(mx, logits->value(0, j));
  float sum = 0.0f;
  for (int j = 0; j < nc; ++j) sum += std::exp(logits->value(0, j) - mx);
  const float log_z = mx + std::log(sum);
  Tensor out({1});
  out(0) = log_z - logits->value(0, index);
  return NewNode(std::move(out), {logits}, [index, log_z](AutogradNode& n) {
    Tensor* gl = &n.parents[0]->EnsureGrad();
    const int nc = n.parents[0]->value.cols();
    const float g = n.grad(0);
    for (int j = 0; j < nc; ++j) {
      const float p = std::exp(n.parents[0]->value(0, j) - log_z);
      (*gl)(0, j) += g * (p - (j == index ? 1.0f : 0.0f));
    }
  });
}

Var NegLogNormalized(const Var& scores, int index) {
  NLIDB_CHECK(scores->value.rank() == 2 && scores->value.rows() == 1)
      << "NegLogNormalized expects [1,n]";
  const int nc = scores->value.cols();
  NLIDB_CHECK(index >= 0 && index < nc) << "NegLogNormalized index range";
  const float eps = 1e-9f;
  float sum = 0.0f;
  for (int j = 0; j < nc; ++j) sum += scores->value(0, j);
  const float si = scores->value(0, index);
  Tensor out({1});
  out(0) = std::log(sum + eps) - std::log(si + eps);
  return NewNode(std::move(out), {scores}, [index, sum, si, eps](AutogradNode& n) {
    Tensor* gs = &n.parents[0]->EnsureGrad();
    const int nc = n.parents[0]->value.cols();
    const float g = n.grad(0);
    const float inv_sum = 1.0f / (sum + eps);
    for (int j = 0; j < nc; ++j) {
      float d = inv_sum;
      if (j == index) d -= 1.0f / (si + eps);
      (*gs)(0, j) += g * d;
    }
  });
}

}  // namespace ops
}  // namespace nlidb
