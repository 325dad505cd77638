/// Graph-free column-mention scoring and influence (DESIGN.md §6).
///
/// `ColumnMentionClassifier::Pass` re-implements the classifier's
/// autograd graph (`Forward` in column_mention_classifier.cc) as straight
/// code on Workspace buffers, forward and reverse. `Run` encodes the
/// question once (char-CNN, embeddings, stacked LSTM, memory projection),
/// encodes every column, walks columns of equal capped length through
/// the attention bi-LSTM as rows of one state matrix, and runs every
/// feature row through the head in one GEMM. `Differentiate` is the
/// hand-written reverse pass from one column's logit to the question's
/// word-lookup rows and char-CNN outputs; it computes no weight gradient
/// and does not descend into the column's own encoder.
///
/// The contract is bitwise equality with autograd on `Forward`'s graph,
/// which holds because:
///  (a) every elementwise formula of tensor/ops.cc is replicated in its
///      evaluation order, tanh through the same TanhRaw kernel, and each
///      node's gradient starts from zero exactly as AutogradNode::grad;
///  (b) every matrix product runs through the shared deterministic GEMM
///      kernels, whose per-output accumulation order does not depend on
///      how many rows are batched;
///  (c) a node with three or more consumers (the question states s^q,
///      their memory projection, each attention-LSTM hidden state) sums
///      its gradient contributions in the order Backward's reverse
///      topological sort runs those consumers (see ReverseAttention); a
///      node with two consumers gets the same bits in either order, since
///      float addition commutes;
///  (d) this file compiles with -ffp-contract=off like the kernel TUs
///      (src/core/CMakeLists.txt), so no replicated expression is fused
///      into an FMA that autograd never executed.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/column_mention_classifier.h"
#include "tensor/tensor.h"

namespace nlidb {
namespace core {

namespace {

/// ops::Sigmoid formula.
inline float SigmoidF(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// CharCnnEmbedder::Forward of one word (ops::Conv1dMean per width, in
/// its loop order) into out [output_dim], which must be zeroed.
void CharCnnForward(const nn::CharCnnEmbedder& cnn,
                    const std::vector<int>& char_ids, float* out) {
  NLIDB_CHECK(!char_ids.empty()) << "EmbedChars of empty word";
  const Tensor& table = cnn.char_embedding().table()->value;
  const int d_in = cnn.char_dim();
  const int len = static_cast<int>(char_ids.size());
  for (size_t w = 0; w < cnn.widths().size(); ++w) {
    const int k = cnn.widths()[w];
    const Tensor& weight = cnn.conv_weight(static_cast<int>(w))->value;
    const float* bias = cnn.conv_bias(static_cast<int>(w))->value.data();
    const int d_out = weight.cols();
    const int num_slices = std::max(len, k) - k + 1;
    for (int s = 0; s < num_slices; ++s) {
      for (int r = 0; r < k; ++r) {
        const int row = s + r;
        if (row >= len) continue;  // zero padding contributes nothing
        const float* x = table.data() + static_cast<size_t>(char_ids[row]) * d_in;
        for (int c = 0; c < d_in; ++c) {
          if (x[c] == 0.0f) continue;
          const float* wrow =
              weight.data() + static_cast<size_t>(r * d_in + c) * d_out;
          for (int o = 0; o < d_out; ++o) out[o] += x[c] * wrow[o];
        }
      }
    }
    const float inv = 1.0f / static_cast<float>(num_slices);
    for (int o = 0; o < d_out; ++o) out[o] = out[o] * inv + bias[o];
    out += d_out;
  }
}

/// LstmCell::Step for `rows` sequences after the input product: xw is
/// x W_ih [rows, 4h]. Writes the gates after their nonlinearities
/// ([input, forget, cell, output]), c, tanh(c) and h.
void LstmStepForward(const nn::LstmCell& cell, const float* xw,
                     const float* h_prev, const float* c_prev, int rows,
                     float* gates, float* c, float* tc, float* h,
                     Workspace& ws) {
  const int H = cell.hidden_size();
  const size_t width = static_cast<size_t>(rows) * 4 * H;
  {
    Workspace::Scope scope(ws);
    float* hw = ws.Floats(width);
    GemmAccumulateRaw(h_prev, cell.w_hh()->value.data(), hw, rows, H, 4 * H);
    const float* bias = cell.bias()->value.data();
    for (size_t j = 0; j < width; ++j) {
      gates[j] = (xw[j] + hw[j]) + bias[j % (4 * H)];
    }
  }
  for (int r = 0; r < rows; ++r) {
    float* g = gates + static_cast<size_t>(r) * 4 * H;
    for (int j = 0; j < H; ++j) {
      g[j] = SigmoidF(g[j]);
      g[H + j] = SigmoidF(g[H + j]);
      g[3 * H + j] = SigmoidF(g[3 * H + j]);
    }
    TanhRaw(g + 2 * H, g + 2 * H, H);
    const float* cp = c_prev + static_cast<size_t>(r) * H;
    float* cr = c + static_cast<size_t>(r) * H;
    for (int j = 0; j < H; ++j) cr[j] = g[H + j] * cp[j] + g[j] * g[2 * H + j];
  }
  TanhRaw(c, tc, rows * H);
  for (int r = 0; r < rows; ++r) {
    const float* o = gates + static_cast<size_t>(r) * 4 * H + 3 * H;
    for (int j = 0; j < H; ++j) {
      const size_t at = static_cast<size_t>(r) * H + j;
      h[at] = o[j] * tc[at];
    }
  }
}

/// The reverse of one LstmStepForward row. `dh` is the full gradient of
/// h, `dc_next` the later step's contribution to c (null for the last
/// step). Writes the pre-activation gate gradients and this step's
/// contribution to the previous cell state.
void LstmStepReverse(const float* gates, const float* c_prev, const float* tc,
                     const float* dh, const float* dc_next, int H,
                     float* d_gates, float* dc_prev) {
  for (int j = 0; j < H; ++j) {
    const float i = gates[j];
    const float f = gates[H + j];
    const float g = gates[2 * H + j];
    const float o = gates[3 * H + j];
    const float d_o = 0.0f + dh[j] * tc[j];
    const float d_tc = 0.0f + dh[j] * o;
    float dc = 0.0f + d_tc * (1.0f - tc[j] * tc[j]);
    if (dc_next != nullptr) dc += dc_next[j];
    const float d_f = 0.0f + dc * c_prev[j];
    const float d_i = 0.0f + dc * g;
    const float d_g = 0.0f + dc * i;
    d_gates[j] = 0.0f + d_i * i * (1.0f - i);
    d_gates[H + j] = 0.0f + d_f * f * (1.0f - f);
    d_gates[2 * H + j] = 0.0f + d_g * (1.0f - g * g);
    d_gates[3 * H + j] = 0.0f + d_o * o * (1.0f - o);
    dc_prev[j] = dc * f;
  }
}

/// StackedLstm::Forward over seq [n, input] into states [n, h]. With
/// `keep`, each layer's gates, c and tanh(c) buffers stay live and are
/// appended to it; without, every activation is scratch.
void StackedLstmForward(const nn::StackedLstm& lstm, const float* seq, int n,
                        float* states, Workspace& ws,
                        std::vector<float*>* keep) {
  const int H = lstm.hidden_size();
  std::optional<Workspace::Scope> scratch;
  if (keep == nullptr) scratch.emplace(ws);
  const float* zero = ws.Floats(H);
  const float* layer_in = seq;
  for (int l = 0; l < lstm.num_layers(); ++l) {
    const nn::LstmCell& cell = lstm.cell(l);
    float* gates = ws.Floats(static_cast<size_t>(n) * 4 * H);
    float* c = ws.Floats(static_cast<size_t>(n) * H);
    float* tc = ws.Floats(static_cast<size_t>(n) * H);
    float* out = l + 1 == lstm.num_layers()
                     ? states
                     : ws.Floats(static_cast<size_t>(n) * H);
    if (keep != nullptr) keep->insert(keep->end(), {gates, c, tc});
    Workspace::Scope layer_scope(ws);
    // The per-position input affine and input product of rnn.cc, batched
    // over positions; only the recurrent product is sequential.
    float* x = ws.Floats(static_cast<size_t>(n) * H);
    lstm.input_affine(l).Infer(layer_in, n, x);
    float* xw = ws.Floats(static_cast<size_t>(n) * 4 * H);
    GemmAccumulateRaw(x, cell.w_ih()->value.data(), xw, n, H, 4 * H);
    for (int i = 0; i < n; ++i) {
      const size_t at = static_cast<size_t>(i) * H;
      LstmStepForward(cell, xw + 4 * at, i > 0 ? out + at - H : zero,
                      i > 0 ? c + at - H : zero, 1, gates + 4 * at, c + at,
                      tc + at, out + at, ws);
    }
    layer_in = out;
  }
}

}  // namespace

/// One attention-LSTM step of a length group (rows = group members):
/// what the reverse pass reads.
struct ColumnMentionClassifier::Pass::StepTrace {
  float* gates;    // [g, 4h] after the nonlinearities
  float* c;        // [g, h]
  float* tc;       // [g, h] tanh(c)
  float* weights;  // [g, n] attention weights
  float* e_tanh;   // [g, n, h] tanh(W1 s^q + query), per row
};

struct ColumnMentionClassifier::Pass::Column {
  int len = 0;              // min(words, max_column_words)
  float* word = nullptr;    // [words, word_dim] word-lookup rows
  float* states = nullptr;  // [words, h] column-LSTM states
  int argmax = 0;           // offset of its rows in argmax_
  int steps = 0;            // its group's StepTraces: steps + dir * len + t
  int row = 0;              // its row in the group's state matrices
};

ColumnMentionClassifier::Pass::Pass(const ColumnMentionClassifier& classifier)
    : clf_(classifier),
      ws_(Workspace::ThreadLocal()),
      scope_(ws_) {}

ColumnMentionClassifier::Pass::~Pass() = default;

void ColumnMentionClassifier::Pass::EmbedRows(
    const std::vector<std::string>& words, float* emb) const {
  const int wd = clf_.config_.word_dim;
  const int e = wd + clf_.char_embedder_->output_dim();
  const Tensor& table = clf_.word_embedding_->table()->value;
  for (size_t i = 0; i < words.size(); ++i) {
    float* row = emb + i * e;
    std::memcpy(
        row, table.data() + static_cast<size_t>(clf_.vocab_.GetId(words[i])) * wd,
        sizeof(float) * wd);
    CharCnnForward(*clf_.char_embedder_, clf_.char_vocab_.Encode(words[i]),
                   row + wd);
  }
}

Status ColumnMentionClassifier::Pass::Run(
    const std::vector<std::string>& question,
    const std::vector<std::vector<std::string>>& columns) {
  if (question.empty()) {
    return Status::InvalidArgument("cannot embed an empty word sequence");
  }
  for (const auto& column : columns) {
    if (column.empty()) {
      return Status::InvalidArgument("cannot embed an empty word sequence");
    }
  }
  const ModelConfig& config = clf_.config_;
  const int h = config.classifier_hidden;
  const int max_words = config.max_column_words;
  const int feature_width = (2 * h + 2) * max_words;
  const int batch = static_cast<int>(columns.size());
  EncodeQuestion(question);

  // One feature row per column: [fw_t ; bw_t ; max-sim_t ; mean-sim_t]
  // per column-word slot, zero-padded to max_column_words.
  float* features = ws_.Floats(static_cast<size_t>(batch) * feature_width);
  std::vector<std::vector<int>> groups(max_words + 1);
  for (int c = 0; c < batch; ++c) {
    EncodeColumn(columns[c],
                 features + static_cast<size_t>(c) * feature_width);
    groups[columns_.back().len].push_back(c);
  }
  for (int len = 1; len <= max_words; ++len) {
    if (!groups[len].empty()) WalkAttention(len, groups[len], features);
  }
  head_outputs_ = clf_.head_->Infer(features, batch, ws_);
  probs_.resize(batch);
  for (int c = 0; c < batch; ++c) {
    probs_[c] = SigmoidF(head_outputs_.back()[c]);
  }
  const int n = n_;
  d_word_ = ws_.Floats(static_cast<size_t>(n) * config.word_dim);
  d_chars_ = ws_.Floats(static_cast<size_t>(n) *
                        clf_.char_embedder_->output_dim());
  return Status::Ok();
}

void ColumnMentionClassifier::Pass::EncodeQuestion(
    const std::vector<std::string>& question) {
  const int n = n_ = static_cast<int>(question.size());
  const int wd = clf_.config_.word_dim;
  const int e = wd + clf_.char_embedder_->output_dim();
  const int h = clf_.config_.classifier_hidden;
  float* emb = ws_.Floats(static_cast<size_t>(n) * e);
  EmbedRows(question, emb);
  float* q_word_t = ws_.Floats(static_cast<size_t>(wd) * n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < wd; ++j) q_word_t[j * n + i] = emb[i * e + j];
  }
  q_word_t_ = q_word_t;
  float* sq = ws_.Floats(static_cast<size_t>(n) * h);
  StackedLstmForward(*clf_.question_lstm_, emb, n, sq, ws_, &q_lstm_);
  sq_ = sq;
  // The memory side W1 s^q of the attention energies, projected once.
  float* memory_proj = ws_.Floats(static_cast<size_t>(n) * h);
  clf_.attention_->memory_projection().Infer(sq, n, memory_proj);
  memory_proj_ = memory_proj;
}

void ColumnMentionClassifier::Pass::EncodeColumn(
    const std::vector<std::string>& words, float* features) {
  const ModelConfig& config = clf_.config_;
  const int m = static_cast<int>(words.size());
  const int n = n_;
  const int wd = config.word_dim;
  const int e = wd + clf_.char_embedder_->output_dim();
  const int h = config.classifier_hidden;
  Column col;
  col.len = std::min(m, config.max_column_words);
  col.word = ws_.Floats(static_cast<size_t>(m) * wd);
  col.states = ws_.Floats(static_cast<size_t>(m) * h);
  col.argmax = static_cast<int>(argmax_.size());
  Workspace::Scope scratch(ws_);
  float* emb = ws_.Floats(static_cast<size_t>(m) * e);
  EmbedRows(words, emb);
  for (int i = 0; i < m; ++i) {
    std::memcpy(col.word + i * wd, emb + i * e, sizeof(float) * wd);
  }
  // BiDAF-style similarity features: ops::RowMax / ops::RowMean of
  // E_word(column) E_word(question)^T.
  float* sim = ws_.Floats(static_cast<size_t>(m) * n);
  GemmAccumulateRaw(col.word, q_word_t_, sim, m, wd, n);
  const float inv = 1.0f / static_cast<float>(n);
  for (int t = 0; t < m; ++t) {
    const float* row = sim + static_cast<size_t>(t) * n;
    int best = 0;
    float sum = 0.0f;
    for (int j = 1; j < n; ++j) {
      if (row[j] > row[best]) best = j;
    }
    for (int j = 0; j < n; ++j) sum += row[j];
    argmax_.push_back(best);
    if (t < col.len) {
      float* slot = features + t * (2 * h + 2);
      slot[2 * h] = row[best];
      slot[2 * h + 1] = sum * inv;
    }
  }
  StackedLstmForward(*clf_.column_lstm_, emb, m, col.states, ws_, nullptr);
  columns_.push_back(col);
}

void ColumnMentionClassifier::Pass::WalkAttention(const int len,
                                                  const std::vector<int>& group,
                                                  float* features) {
  const ModelConfig& config = clf_.config_;
  const int h = config.classifier_hidden;
  const int n = n_;
  const int g = static_cast<int>(group.size());
  const int feature_width = (2 * h + 2) * config.max_column_words;
  const int first = static_cast<int>(steps_.size());
  for (int i = 0; i < g; ++i) {
    columns_[group[i]].steps = first;
    columns_[group[i]].row = i;
  }
  for (int k = 0; k < 2 * len; ++k) {
    StepTrace tr;
    tr.gates = ws_.Floats(static_cast<size_t>(g) * 4 * h);
    tr.c = ws_.Floats(static_cast<size_t>(g) * h);
    tr.tc = ws_.Floats(static_cast<size_t>(g) * h);
    tr.weights = ws_.Floats(static_cast<size_t>(g) * n);
    tr.e_tanh = ws_.Floats(static_cast<size_t>(g) * n * h);
    steps_.push_back(tr);
  }
  const nn::AdditiveAttention& attention = *clf_.attention_;
  Workspace::Scope scratch(ws_);
  const float* zero = ws_.Floats(static_cast<size_t>(g) * h);
  float* h_state[2] = {ws_.Floats(static_cast<size_t>(g) * h),
                       ws_.Floats(static_cast<size_t>(g) * h)};
  for (int dir = 0; dir < 2; ++dir) {
    const bool forward = dir == 0;
    const nn::LstmCell& cell = forward ? *clf_.fwd_cell_ : *clf_.bwd_cell_;
    const float* h_prev = zero;
    const float* c_prev = zero;
    for (int step = 0; step < len; ++step) {
      const int t = forward ? step : len - 1 - step;
      const StepTrace& tr = steps_[first + dir * len + t];
      float* h_next = h_state[step % 2];
      Workspace::Scope step_scope(ws_);
      // x = [s_t^c ; context], one row per group member.
      float* x = ws_.Floats(static_cast<size_t>(g) * 2 * h);
      float* st = ws_.Floats(static_cast<size_t>(g) * h);
      for (int i = 0; i < g; ++i) {
        std::memcpy(st + i * h, columns_[group[i]].states + t * h,
                    sizeof(float) * h);
      }
      // The query W2 s_t^c + W3 d_{t-1} + b (the paper's e_t equation).
      float* query = ws_.Floats(static_cast<size_t>(g) * h);
      float* hidden_part = ws_.Floats(static_cast<size_t>(g) * h);
      clf_.query_state_proj_->Infer(st, g, query);
      clf_.query_hidden_proj_->Infer(h_prev, g, hidden_part);
      for (int j = 0; j < g * h; ++j) query[j] += hidden_part[j];
      for (int i = 0; i < g; ++i) {
        float* e_tanh = tr.e_tanh + static_cast<size_t>(i) * n * h;
        for (int r = 0; r < n; ++r) {
          for (int j = 0; j < h; ++j) {
            e_tanh[r * h + j] = memory_proj_[r * h + j] + query[i * h + j];
          }
        }
        TanhRaw(e_tanh, e_tanh, n * h);
        attention.score_vector().Infer(e_tanh, n, tr.weights + i * n);
      }
      // ops::SoftmaxRows over each row of energies.
      for (int i = 0; i < g; ++i) {
        float* w = tr.weights + i * n;
        float mx = w[0];
        for (int j = 1; j < n; ++j) mx = std::max(mx, w[j]);
        float sum = 0.0f;
        for (int j = 0; j < n; ++j) {
          w[j] = std::exp(w[j] - mx);
          sum += w[j];
        }
        for (int j = 0; j < n; ++j) w[j] /= sum;
      }
      float* context = ws_.Floats(static_cast<size_t>(g) * h);
      GemmAccumulateRaw(tr.weights, sq_, context, g, n, h);
      for (int i = 0; i < g; ++i) {
        std::memcpy(x + i * 2 * h, st + i * h, sizeof(float) * h);
        std::memcpy(x + i * 2 * h + h, context + i * h, sizeof(float) * h);
      }
      float* xw = ws_.Floats(static_cast<size_t>(g) * 4 * h);
      GemmAccumulateRaw(x, cell.w_ih()->value.data(), xw, g, 2 * h, 4 * h);
      LstmStepForward(cell, xw, h_prev, c_prev, g, tr.gates, tr.c, tr.tc,
                      h_next, ws_);
      for (int i = 0; i < g; ++i) {
        float* slot = features + static_cast<size_t>(group[i]) * feature_width +
                      t * (2 * h + 2) + dir * h;
        std::memcpy(slot, h_next + i * h, sizeof(float) * h);
      }
      h_prev = h_next;
      c_prev = tr.c;
    }
  }
}

ColumnMentionClassifier::Pass::Gradients
ColumnMentionClassifier::Pass::Differentiate(int c) {
  const ModelConfig& config = clf_.config_;
  const Column& col = columns_[c];
  const int n = n_;
  const int h = config.classifier_hidden;
  const int wd = config.word_dim;
  const int co = clf_.char_embedder_->output_dim();
  const int e = wd + co;
  const int slot_width = 2 * h + 2;
  Workspace::Scope scratch(ws_);

  // Head: dz/dz = 1, back through each Linear (and the ReLU between
  // them). Only the first len feature slots reach anything.
  const nn::Mlp& head = *clf_.head_;
  float* d_out = ws_.Floats(1);
  d_out[0] = 1.0f;
  for (int l = head.num_layers() - 1; l >= 0; --l) {
    const nn::Linear& layer = head.layer(l);
    const int width = l == 0 ? col.len * slot_width : layer.in_features();
    float* d_in = ws_.Floats(width);
    GemmTransposeBAccumulateRaw(d_out, layer.weight()->value.data(), d_in, 1,
                                layer.out_features(), width);
    if (l > 0) {
      const float* act = head_outputs_[l - 1] +
                         static_cast<size_t>(c) * layer.in_features();
      for (int j = 0; j < width; ++j) d_in[j] = act[j] > 0.0f ? d_in[j] : 0.0f;
    }
    d_out = d_in;
  }
  const float* d_features = d_out;

  // Attention bi-LSTM, then W1 s^q: the complete gradient of s^q.
  float* d_sq = ws_.Floats(static_cast<size_t>(n) * h);
  ReverseAttention(col, d_features, d_sq);
  float* d_emb = ws_.Floats(static_cast<size_t>(n) * e);
  ReverseQuestion(d_sq, d_emb);

  // The similarity features reach the question's word-lookup rows
  // through E_word(question)^T: ops::RowMax sends each row's gradient to
  // its argmax, ops::RowMean spreads it evenly.
  const float inv = 1.0f / static_cast<float>(n);
  float* d_sim = ws_.Floats(static_cast<size_t>(col.len) * n);
  for (int t = 0; t < col.len; ++t) {
    const float* slot = d_features + t * slot_width;
    float* row = d_sim + static_cast<size_t>(t) * n;
    const float mean_part = (0.0f + slot[2 * h + 1]) * inv;
    for (int j = 0; j < n; ++j) row[j] = 0.0f + mean_part;
    row[argmax_[col.argmax + t]] += 0.0f + slot[2 * h];
  }
  // ops::MatMul's dB = A^T dOut accumulates over the column words in
  // increasing order; rows past len carry zero gradient.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < wd; ++j) {
      float acc = 0.0f;
      for (int t = 0; t < col.len; ++t) {
        acc += d_sim[t * n + i] * col.word[t * wd + j];
      }
      d_word_[i * wd + j] = acc + d_emb[i * e + j];
    }
    std::memcpy(d_chars_ + i * co, d_emb + i * e + wd, sizeof(float) * co);
  }
  return Gradients{d_word_, d_chars_, n, wd, co};
}

void ColumnMentionClassifier::Pass::ReverseAttention(const Column& col,
                                                     const float* d_features,
                                                     float* d_sq) {
  const ModelConfig& config = clf_.config_;
  const int h = config.classifier_hidden;
  const int n = n_;
  const int len = col.len;
  const int slot_width = 2 * h + 2;
  const float* v = clf_.attention_->score_vector().weight()->value.data();
  const float* w3 = clf_.query_hidden_proj_->weight()->value.data();
  float* d_memory = ws_.Floats(static_cast<size_t>(n) * h);
  const float* zero = ws_.Floats(h);
  // Per direction: the later step's contributions to this step's h (via
  // W_hh and via W3) and to its c.
  float* carry_hh[2] = {ws_.Floats(h), ws_.Floats(h)};
  float* carry_w3[2] = {ws_.Floats(h), ws_.Floats(h)};
  float* carry_c[2] = {ws_.Floats(h), ws_.Floats(h)};
  float* d_h = ws_.Floats(h);
  float* d_gates = ws_.Floats(4 * h);
  float* d_context = ws_.Floats(h);
  float* d_weights = ws_.Floats(n);
  float* d_query = ws_.Floats(h);

  auto step = [&](const int dir, const int t) {
    const bool forward = dir == 0;
    const nn::LstmCell& cell = forward ? *clf_.fwd_cell_ : *clf_.bwd_cell_;
    const bool last = forward ? t == len - 1 : t == 0;  // in its direction
    const StepTrace& tr = steps_[col.steps + dir * len + t];
    const StepTrace* prev =
        forward ? (t > 0 ? &steps_[col.steps + t - 1] : nullptr)
                : (t + 1 < len ? &steps_[col.steps + len + t + 1] : nullptr);
    const float* pick = d_features + t * slot_width + dir * h;
    // h's consumers in Backward's order: the forward direction runs the
    // later step (W_hh, then W3) before the feature slot; the backward
    // direction runs the feature slot first.
    for (int j = 0; j < h; ++j) {
      if (last) {
        d_h[j] = 0.0f + pick[j];
      } else if (forward) {
        d_h[j] = ((0.0f + carry_hh[dir][j]) + carry_w3[dir][j]) + pick[j];
      } else {
        d_h[j] = ((0.0f + pick[j]) + carry_hh[dir][j]) + carry_w3[dir][j];
      }
    }
    const int r = col.row;
    const float* gates = tr.gates + static_cast<size_t>(r) * 4 * h;
    LstmStepReverse(gates, prev != nullptr ? prev->c + r * h : zero,
                    tr.tc + r * h, d_h, last ? nullptr : carry_c[dir], h,
                    d_gates, carry_c[dir]);
    std::fill_n(carry_hh[dir], h, 0.0f);
    GemmTransposeBAccumulateRaw(d_gates, cell.w_hh()->value.data(),
                                carry_hh[dir], 1, 4 * h, h);
    // x = [s_t^c ; context]: only the context half leads to the question.
    std::fill_n(d_context, h, 0.0f);
    GemmTransposeBAccumulateRaw(
        d_gates, cell.w_ih()->value.data() + static_cast<size_t>(h) * 4 * h,
        d_context, 1, 4 * h, h);
    const float* weights = tr.weights + static_cast<size_t>(r) * n;
    std::fill_n(d_weights, n, 0.0f);
    GemmTransposeBAccumulateRaw(d_context, sq_, d_weights, 1, h, n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < h; ++j) d_sq[i * h + j] += d_context[j] * weights[i];
    }
    // ops::SoftmaxRows backward, then the energies' tanh and v.
    float dot = 0.0f;
    for (int i = 0; i < n; ++i) dot += d_weights[i] * weights[i];
    const float* e_tanh = tr.e_tanh + static_cast<size_t>(r) * n * h;
    std::fill_n(d_query, h, 0.0f);
    for (int i = 0; i < n; ++i) {
      const float d_energy = 0.0f + weights[i] * (d_weights[i] - dot);
      for (int j = 0; j < h; ++j) {
        const float y = e_tanh[i * h + j];
        const float d_pre = 0.0f + (0.0f + (0.0f + d_energy * v[j])) *
                                       (1.0f - y * y);
        d_memory[i * h + j] += d_pre;
        d_query[j] += d_pre;
      }
    }
    std::fill_n(carry_w3[dir], h, 0.0f);
    GemmTransposeBAccumulateRaw(d_query, w3, carry_w3[dir], 1, h, h);
  };

  // Backward's order over the consumers of s^q and W1 s^q: forward steps
  // len-1 .. 1, then backward-direction steps at positions 0 .. len-1,
  // then forward step 0, then the memory projection itself.
  for (int t = len - 1; t >= 1; --t) step(0, t);
  for (int t = 0; t < len; ++t) step(1, t);
  step(0, 0);
  GemmTransposeBAccumulateRaw(
      d_memory, clf_.attention_->memory_projection().weight()->value.data(),
      d_sq, n, h, h);
}

void ColumnMentionClassifier::Pass::ReverseQuestion(float* d_states,
                                                    float* d_emb) {
  const nn::StackedLstm& lstm = *clf_.question_lstm_;
  const int n = n_;
  const int H = lstm.hidden_size();
  const float* zero = ws_.Floats(H);
  float* carry_h = ws_.Floats(H);
  float* carry_c = ws_.Floats(H);
  float* d_h = ws_.Floats(H);
  for (int l = lstm.num_layers() - 1; l >= 0; --l) {
    const nn::LstmCell& cell = lstm.cell(l);
    const nn::Linear& affine = lstm.input_affine(l);
    const float* gates = q_lstm_[3 * l];
    const float* c = q_lstm_[3 * l + 1];
    const float* tc = q_lstm_[3 * l + 2];
    float* d_gates = ws_.Floats(static_cast<size_t>(n) * 4 * H);
    for (int i = n - 1; i >= 0; --i) {
      const size_t at = static_cast<size_t>(i) * H;
      for (int j = 0; j < H; ++j) {
        d_h[j] = 0.0f + d_states[at + j];
        if (i + 1 < n) d_h[j] += carry_h[j];
      }
      LstmStepReverse(gates + 4 * at, i > 0 ? c + at - H : zero, tc + at, d_h,
                      i + 1 < n ? carry_c : nullptr, H, d_gates + 4 * at,
                      carry_c);
      std::fill_n(carry_h, H, 0.0f);
      GemmTransposeBAccumulateRaw(d_gates + 4 * at, cell.w_hh()->value.data(),
                                  carry_h, 1, 4 * H, H);
    }
    // The input products, batched over positions like the forward.
    float* d_x = ws_.Floats(static_cast<size_t>(n) * H);
    GemmTransposeBAccumulateRaw(d_gates, cell.w_ih()->value.data(), d_x, n,
                                4 * H, H);
    const int in_width = affine.in_features();
    float* d_in = l == 0 ? d_emb : ws_.Floats(static_cast<size_t>(n) * in_width);
    GemmTransposeBAccumulateRaw(d_x, affine.weight()->value.data(), d_in, n, H,
                                in_width);
    d_states = d_in;
  }
}

}  // namespace core
}  // namespace nlidb
