/// Graph-free decoder inference fast path (DESIGN.md §12).
///
/// `FastBeamSearch` re-implements `Seq2SeqTranslator::BeamSearch` without
/// the autodiff tape, as one straight-line function per query: encode,
/// then one decode loop over the beam frontier. Every intermediate lives
/// in the calling thread's Workspace arena, every matrix product is a
/// direct GemmAccumulateRaw call, and the GRU gate products for the whole
/// beam frontier are batched into single [B, 3H] GEMMs. The per-query
/// encoder state (encoder states, projected attention keys, copy-scatter
/// slot table, gathered output columns for the grammar mask) is computed
/// once and reused every step. Nothing is shared across queries: serving
/// workers each run this loop for their own request.
///
/// The contract is bitwise equivalence with the reference implementation:
/// kFastUnmasked reproduces kReference and kFast reproduces
/// kReferenceMasked — same token sequences, same hypothesis scores, same
/// error statuses. That only holds because (a) this TU replicates each
/// elementwise formula of tensor/ops.cc in the reference evaluation order
/// and computes tanh with the same TanhRaw kernel as ops::Tanh,
/// (b) GemmAccumulateRaw shares the deterministic kernels whose per-output
/// accumulation order is independent of batching and threading, and
/// (c) this file compiles with -ffp-contract=off like the kernel TUs, so
/// the compiler cannot fuse the replicated expressions into FMAs the
/// reference path never executed (src/core/CMakeLists.txt pins the flag).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/workspace.h"
#include "core/seq2seq.h"
#include "tensor/tensor.h"

namespace nlidb {
namespace core {

namespace {

/// ops::Sigmoid formula.
inline float SigmoidF(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// ops::Exp formula (clamped).
inline float ClampedExpF(float x) { return std::exp(std::min(x, 20.0f)); }

/// ops::AddRowBroadcast: out[i, :] += bias for every row.
void AddBiasRows(float* out, const float* bias, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    float* row = out + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) row[j] += bias[j];
  }
}

/// GruCell::Step after the two gate GEMMs, batched over `batch` rows:
/// gi/gh are [batch, 3H] with biases already added, h_prev/h_next are
/// [batch, H] and must not overlap. Gate layout [reset, update, new];
/// the h' association (n - z*n) + (z*h) matches rnn.cc exactly. Each
/// row's n-gate arguments are staged in h_next for one TanhRaw call.
void GruElementwise(const float* gi, const float* gh, const float* h_prev,
                    float* h_next, int batch, int H) {
  for (int b = 0; b < batch; ++b) {
    const float* gib = gi + static_cast<size_t>(b) * 3 * H;
    const float* ghb = gh + static_cast<size_t>(b) * 3 * H;
    const float* hp = h_prev + static_cast<size_t>(b) * H;
    float* hn = h_next + static_cast<size_t>(b) * H;
    for (int j = 0; j < H; ++j) {
      const float r = SigmoidF(gib[j] + ghb[j]);
      hn[j] = gib[2 * H + j] + r * ghb[2 * H + j];
    }
    TanhRaw(hn, hn, H);
    for (int j = 0; j < H; ++j) {
      const float z = SigmoidF(gib[H + j] + ghb[H + j]);
      const float n = hn[j];
      hn[j] = (n - z * n) + (z * hp[j]);
    }
  }
}

/// One GRU direction over a precomputed input sequence. `xs` is [n, H]
/// (the per-layer affine output), `states` receives [n, H] hidden states
/// in position order; the pass walks positions first..last by `stride`
/// (+1 forward, -1 backward). gi for every position is batched into one
/// [n, 3H] GEMM up front — only the recurrent gh product is sequential.
void RunGruDirection(const nn::GruCell& cell, const float* xs, int n, int H,
                     int first, int stride, float* states, Workspace& ws) {
  Workspace::Scope scope(ws);
  float* gi_all = ws.Floats(static_cast<size_t>(n) * 3 * H);
  GemmAccumulateRaw(xs, cell.w_ih()->value.data(), gi_all, n, H, 3 * H);
  AddBiasRows(gi_all, cell.b_ih()->value.data(), n, 3 * H);
  float* h = ws.Floats(H);  // zero initial state
  float* gh = ws.Floats(3 * H);
  const float* b_hh = cell.b_hh()->value.data();
  const float* w_hh = cell.w_hh()->value.data();
  for (int s = 0, i = first; s < n; ++s, i += stride) {
    std::fill_n(gh, 3 * H, 0.0f);
    GemmAccumulateRaw(h, w_hh, gh, 1, H, 3 * H);
    AddBiasRows(gh, b_hh, 1, 3 * H);
    float* out = states + static_cast<size_t>(i) * H;
    GruElementwise(gi_all + static_cast<size_t>(i) * 3 * H, gh, h, out, 1, H);
    std::memcpy(h, out, sizeof(float) * H);
  }
}

/// Per-query cached encoder state: everything `DecodeStep` would recompute
/// from the encoder outputs, plus the grammar-mask tables.
struct EncoderCache {
  int n = 0;                    // source length
  std::vector<int> source_ids;  // vocab ids of the source tokens
  float* enc_states = nullptr;  // [n, 2h] bidirectional states
  float* mem_proj = nullptr;    // [n, att] projected attention keys
  float* d0 = nullptr;          // [2h] initial decoder state

  // Grammar-mask extras (empty when masking is off).
  std::vector<int> domain;        // sorted vocab ids the mask can emit
  std::vector<int> slot_of_src;   // domain slot per source position
  std::vector<uint8_t> in_source; // by vocab id
  float* u_sub = nullptr;         // [4h, |domain|] gathered output columns
  float* bias_sub = nullptr;      // [|domain|] gathered output bias
};

}  // namespace

StatusOr<Seq2SeqTranslator::ScoredTokens> Seq2SeqTranslator::FastBeamSearch(
    const std::vector<std::string>& source, int beam_width,
    bool use_grammar_mask, const CancelContext* ctx) const {
  if (source.empty()) {
    return Status::InvalidArgument("cannot decode an empty source sequence");
  }
  if (beam_width > 1) {
    // Injectable exhaustion: lets tests exercise the greedy-fallback path
    // without crafting a model whose beams genuinely all die.
    NLIDB_RETURN_IF_ERROR(NLIDB_FAILPOINT("seq2seq/beam_exhausted"));
  }
  trace::TraceSpan span("seq2seq.translate");
  span.Annotate("beam_width", static_cast<int64_t>(beam_width));

  const int d = config_.word_dim;
  const int h = config_.seq2seq_hidden;
  const int att = h;
  const int h2 = 2 * h;  // decoder hidden size H
  const int h4 = 4 * h;  // [d_i ; beta_i] width
  const int vocab_size = vocab_.size();
  const int n = static_cast<int>(source.size());

  static metrics::Counter& decode_steps =
      metrics::MetricsRegistry::Global().GetCounter("seq2seq.decode_steps");
  static metrics::Counter& copy_steps =
      metrics::MetricsRegistry::Global().GetCounter("seq2seq.copy_steps");
  static metrics::Counter& masked_tokens =
      metrics::MetricsRegistry::Global().GetCounter(
          "seq2seq.grammar_masked_tokens");

  Workspace& ws = Workspace::ThreadLocal();
  Workspace::Scope query_scope(ws);

  // The grammar is built per query (vocabulary classification is O(V) on
  // token strings); an unusable grammar downgrades to unmasked decoding.
  DecodeGrammar grammar(vocab_);
  const bool masked = use_grammar_mask && grammar.usable();

  // ---- Per-query encoder cache -------------------------------------------
  EncoderCache cache;
  cache.n = n;
  {
    trace::TraceSpan encode_span("seq2seq.encode");
    encode_span.Annotate("source_len", static_cast<int64_t>(n));
    cache.source_ids = vocab_.Encode(source);

    // Embedding gather: [n, d].
    const Tensor& table = embedding_->table()->value;
    float* seq = ws.Floats(static_cast<size_t>(n) * d);
    for (int i = 0; i < n; ++i) {
      std::memcpy(seq + static_cast<size_t>(i) * d,
                  table.data() + static_cast<size_t>(cache.source_ids[i]) * d,
                  sizeof(float) * d);
    }

    // Stacked bidirectional GRU, layer by layer. The per-position input
    // affine of rnn.cc is batched into one [n, in]x[in, h] GEMM; forward
    // and backward recurrences stay sequential.
    int in_width = d;
    const float* layer_in = seq;
    float* fw = ws.Floats(static_cast<size_t>(n) * h);
    float* bw = ws.Floats(static_cast<size_t>(n) * h);
    cache.enc_states = ws.Floats(static_cast<size_t>(n) * h2);
    for (int l = 0; l < encoder_->num_layers(); ++l) {
      Workspace::Scope layer_scope(ws);
      const nn::Linear& affine = encoder_->input_affine(l);
      float* xs = ws.Floats(static_cast<size_t>(n) * h);
      GemmAccumulateRaw(layer_in, affine.weight()->value.data(), xs, n,
                        in_width, h);
      AddBiasRows(xs, affine.bias()->value.data(), n, h);
      RunGruDirection(encoder_->forward_cell(l), xs, n, h, 0, 1, fw, ws);
      RunGruDirection(encoder_->backward_cell(l), xs, n, h, n - 1, -1, bw, ws);
      for (int i = 0; i < n; ++i) {
        std::memcpy(cache.enc_states + static_cast<size_t>(i) * h2,
                    fw + static_cast<size_t>(i) * h, sizeof(float) * h);
        std::memcpy(cache.enc_states + static_cast<size_t>(i) * h2 + h,
                    bw + static_cast<size_t>(i) * h, sizeof(float) * h);
      }
      layer_in = cache.enc_states;
      in_width = h2;
    }

    // d0 = tanh(W1 [fw_last ; bw_first] + b1).
    float* cat0 = ws.Floats(h2);
    std::memcpy(cat0, fw + static_cast<size_t>(n - 1) * h, sizeof(float) * h);
    std::memcpy(cat0 + h, bw, sizeof(float) * h);
    cache.d0 = ws.Floats(h2);
    GemmAccumulateRaw(cat0, init_proj_->weight()->value.data(), cache.d0, 1,
                      h2, h2);
    AddBiasRows(cache.d0, init_proj_->bias()->value.data(), 1, h2);
    TanhRaw(cache.d0, cache.d0, h2);

    // Projected attention keys: [n, 2h] x [2h, att].
    cache.mem_proj = ws.Floats(static_cast<size_t>(n) * att);
    GemmAccumulateRaw(cache.enc_states,
                      attention_->memory_projection().weight()->value.data(),
                      cache.mem_proj, n, h2, att);

    if (masked) {
      // Emittable-token domain: structural tokens plus everything the
      // source can supply, in ascending vocab-id order (so masked sums
      // walk ids in the same order as the reference masked path).
      cache.in_source.assign(vocab_size, 0);
      for (int id : cache.source_ids) cache.in_source[id] = 1;
      std::vector<int> slot_of_id(vocab_size, -1);
      for (int id = 0; id < vocab_size; ++id) {
        const DecodeGrammar::TokenClass c = grammar.Classify(id);
        const bool structural = c == DecodeGrammar::TokenClass::kSelect ||
                                c == DecodeGrammar::TokenClass::kWhere ||
                                c == DecodeGrammar::TokenClass::kAnd ||
                                c == DecodeGrammar::TokenClass::kAgg ||
                                c == DecodeGrammar::TokenClass::kOp ||
                                c == DecodeGrammar::TokenClass::kEos ||
                                c == DecodeGrammar::TokenClass::kUnk;
        if (structural || cache.in_source[id]) {
          slot_of_id[id] = static_cast<int>(cache.domain.size());
          cache.domain.push_back(id);
        }
      }
      cache.slot_of_src.resize(n);
      for (int i = 0; i < n; ++i) {
        cache.slot_of_src[i] = slot_of_id[cache.source_ids[i]];
      }
      // Gather U's columns (and bias entries) for the domain once per
      // query: logits over the domain then cost [B, 4h]x[4h, |domain|]
      // instead of [B, 4h]x[4h, kVocabBudget] per step.
      const int ds = static_cast<int>(cache.domain.size());
      const Tensor& u = output_proj_->weight()->value;
      const Tensor& ub = output_proj_->bias()->value;
      cache.u_sub = ws.Floats(static_cast<size_t>(h4) * ds);
      cache.bias_sub = ws.Floats(ds);
      for (int k = 0; k < h4; ++k) {
        const float* urow = u.data() + static_cast<size_t>(k) * kVocabBudget;
        float* srow = cache.u_sub + static_cast<size_t>(k) * ds;
        for (int s = 0; s < ds; ++s) srow[s] = urow[cache.domain[s]];
      }
      for (int s = 0; s < ds; ++s) {
        cache.bias_sub[s] = ub(cache.domain[s]);
      }
    }
  }

  // ---- Batched beam search ------------------------------------------------
  trace::TraceSpan decode_span("seq2seq.decode");

  // Emitted tokens live in one append-only history shared by every
  // hypothesis: a hypothesis holds the index of its last entry, entries
  // link to their parent, and strings are built once for the winner.
  struct TokenEntry {
    int parent;  // previous entry, -1 at the start of the sequence
    int code;    // vocab id, or -1 - source position (<unk> pointer)
  };
  std::vector<TokenEntry> history;

  struct FastBeam {
    int prev_token = text::Vocab::kBos;
    int grammar_state = DecodeGrammar::kStart;
    int slot = 0;  // row in d_prev/beta_prev
    int last = -1;    // history entry of the last emitted token
    int length = 0;   // emitted tokens (eos excluded)
    float log_prob = 0.0f;
    bool finished = false;
  };

  const int W = beam_width;
  const int score_width = masked ? static_cast<int>(cache.domain.size())
                                 : vocab_size;
  const int gemm_width = masked ? score_width : kVocabBudget;
  const int xin = d + h2;  // decoder GRU input width

  // Beam-state ping-pong buffers and per-step scratch, allocated once.
  float* d_prev = ws.Floats(static_cast<size_t>(W) * h2);
  float* beta_prev = ws.Floats(static_cast<size_t>(W) * h2);
  float* d_swap = ws.Floats(static_cast<size_t>(W) * h2);
  float* beta_swap = ws.Floats(static_cast<size_t>(W) * h2);
  float* x = ws.Floats(static_cast<size_t>(W) * xin);
  float* gi = ws.Floats(static_cast<size_t>(W) * 3 * h2);
  float* gh = ws.Floats(static_cast<size_t>(W) * 3 * h2);
  float* d_gather = ws.Floats(static_cast<size_t>(W) * h2);
  float* d_next = ws.Floats(static_cast<size_t>(W) * h2);
  float* query = ws.Floats(static_cast<size_t>(W) * att);
  float* tanh_keys = ws.Floats(static_cast<size_t>(n) * att);
  float* energies = ws.Floats(n);
  float* weights_all = ws.Floats(static_cast<size_t>(W) * n);
  float* beta_next = ws.Floats(static_cast<size_t>(W) * h2);
  float* cat = ws.Floats(static_cast<size_t>(W) * h4);
  float* logits = ws.Floats(static_cast<size_t>(W) * gemm_width);
  float* mass = ws.Floats(score_width);
  float* scores = ws.Floats(static_cast<size_t>(W) * score_width);

  const Tensor& emb_table = embedding_->table()->value;
  const float* dec_w_ih = decoder_cell_->w_ih()->value.data();
  const float* dec_w_hh = decoder_cell_->w_hh()->value.data();
  const float* dec_b_ih = decoder_cell_->b_ih()->value.data();
  const float* dec_b_hh = decoder_cell_->b_hh()->value.data();
  const float* q_w = query_proj_->weight()->value.data();
  const float* v_w = attention_->score_vector().weight()->value.data();
  const float* out_w = output_proj_->weight()->value.data();
  const float* out_b = output_proj_->bias()->value.data();

  FastBeam init;
  std::memcpy(d_prev, cache.d0, sizeof(float) * h2);
  // beta_prev row 0 is already zero (arena buffers are zero-initialized).
  std::vector<FastBeam> beams = {init};
  std::vector<FastBeam> finished;

  struct Candidate {
    int parent_slot = 0;
    FastBeam beam;
  };

  for (int step = 0; step < config_.max_decode_length; ++step) {
    // Decode steps dominate query latency, so the deadline is polled at
    // this granularity (same contract as the reference path).
    NLIDB_RETURN_IF_ERROR(CheckCancel(ctx, "seq2seq.decode"));

    // Live frontier.
    std::vector<int> live;
    for (int b = 0; b < static_cast<int>(beams.size()); ++b) {
      if (!beams[b].finished) live.push_back(b);
    }
    const int B = static_cast<int>(live.size());
    if (B == 0) break;

    // Output-safe early termination. Per-step log-prob increments are
    // log(p + 1e-12f) with p = score/(sum + 1e-9f) <= 1.0f in float
    // (score is one of the summed positive terms and float addition of
    // positives is monotone), so log_prob never increases along a path.
    // A hypothesis finishing later divides by a denominator of at most
    // max_decode_length, and x/len is monotone in len for x <= 0, so
    // log_prob / max_decode_length bounds every descendant's normalized
    // score (float division is monotone, so the bound holds bitwise).
    // When every live hypothesis is strictly below the best finished
    // score, nothing the remaining steps could add survives the strict
    // ">" selection below — the reference loop would do the work and
    // then discard it, so stopping here returns the identical result.
    if (!finished.empty()) {
      float best_norm = -1e30f;
      for (const FastBeam& f : finished) {
        const float denom = static_cast<float>(std::max(1, f.length));
        best_norm = std::max(best_norm, f.log_prob / denom);
      }
      const float len_cap = static_cast<float>(config_.max_decode_length);
      bool viable = false;
      for (const int b : live) {
        if (!(beams[b].log_prob / len_cap < best_norm)) {
          viable = true;
          break;
        }
      }
      if (!viable) break;
    }
    decode_steps.Increment(B);
    if (config_.use_copy_mechanism) copy_steps.Increment(B);

    // Stage [emb(prev) ; beta_prev] and gather d_prev for the frontier.
    for (int r = 0; r < B; ++r) {
      const FastBeam& beam = beams[live[r]];
      std::memcpy(x + static_cast<size_t>(r) * xin,
                  emb_table.data() +
                      static_cast<size_t>(beam.prev_token) * d,
                  sizeof(float) * d);
      std::memcpy(x + static_cast<size_t>(r) * xin + d,
                  beta_prev + static_cast<size_t>(beam.slot) * h2,
                  sizeof(float) * h2);
      std::memcpy(d_gather + static_cast<size_t>(r) * h2,
                  d_prev + static_cast<size_t>(beam.slot) * h2,
                  sizeof(float) * h2);
    }

    // Batched GRU gates for the whole frontier: two [B, 3H] GEMMs.
    std::fill_n(gi, static_cast<size_t>(B) * 3 * h2, 0.0f);
    GemmAccumulateRaw(x, dec_w_ih, gi, B, xin, 3 * h2);
    AddBiasRows(gi, dec_b_ih, B, 3 * h2);
    std::fill_n(gh, static_cast<size_t>(B) * 3 * h2, 0.0f);
    GemmAccumulateRaw(d_gather, dec_w_hh, gh, B, h2, 3 * h2);
    AddBiasRows(gh, dec_b_hh, B, 3 * h2);
    GruElementwise(gi, gh, d_gather, d_next, B, h2);

    // Attention query contribution W3 d_i, batched: [B, 2h] x [2h, att].
    std::fill_n(query, static_cast<size_t>(B) * att, 0.0f);
    GemmAccumulateRaw(d_next, q_w, query, B, h2, att);

    // Attention + context per frontier row (memory rows differ per query,
    // not per beam, but the softmax/argmax are row-local anyway).
    for (int r = 0; r < B; ++r) {
      const float* qrow = query + static_cast<size_t>(r) * att;
      for (int i = 0; i < n; ++i) {
        const float* mrow = cache.mem_proj + static_cast<size_t>(i) * att;
        float* trow = tanh_keys + static_cast<size_t>(i) * att;
        for (int a = 0; a < att; ++a) trow[a] = mrow[a] + qrow[a];
      }
      TanhRaw(tanh_keys, tanh_keys, n * att);
      std::fill_n(energies, n, 0.0f);
      GemmAccumulateRaw(tanh_keys, v_w, energies, n, att, 1);

      // SoftmaxRows over [1, n] (unclamped exp, reference loop order).
      float* wrow = weights_all + static_cast<size_t>(r) * n;
      float mx = energies[0];
      for (int i = 1; i < n; ++i) mx = std::max(mx, energies[i]);
      float wsum = 0.0f;
      for (int i = 0; i < n; ++i) {
        wrow[i] = std::exp(energies[i] - mx);
        wsum += wrow[i];
      }
      for (int i = 0; i < n; ++i) wrow[i] /= wsum;

      // beta_i = weights x enc_states: [1, n] x [n, 2h].
      float* brow = beta_next + static_cast<size_t>(r) * h2;
      std::fill_n(brow, h2, 0.0f);
      GemmAccumulateRaw(wrow, cache.enc_states, brow, 1, n, h2);

      std::memcpy(cat + static_cast<size_t>(r) * h4,
                  d_next + static_cast<size_t>(r) * h2, sizeof(float) * h2);
      std::memcpy(cat + static_cast<size_t>(r) * h4 + h2, brow,
                  sizeof(float) * h2);

      // Output scores: exp(U [d;beta] + b) plus copy mass. The copy mass
      // accumulates in its own zeroed buffer and is added afterwards,
      // replicating ops::Add(Exp(logits), ScatterSumCols(...)) so the
      // float addition association matches the reference bitwise.
      float* lrow = logits + static_cast<size_t>(r) * gemm_width;
      std::fill_n(lrow, gemm_width, 0.0f);
      const float* w_mat = masked ? cache.u_sub : out_w;
      GemmAccumulateRaw(cat + static_cast<size_t>(r) * h4, w_mat, lrow, 1, h4,
                        gemm_width);
      AddBiasRows(lrow, masked ? cache.bias_sub : out_b, 1, score_width);
      float* srow = scores + static_cast<size_t>(r) * score_width;
      if (config_.use_copy_mechanism) {
        std::fill_n(mass, score_width, 0.0f);
        for (int i = 0; i < n; ++i) {
          const int slot = masked ? cache.slot_of_src[i] : cache.source_ids[i];
          mass[slot] += ClampedExpF(energies[i]);
        }
        for (int s = 0; s < score_width; ++s) {
          srow[s] = ClampedExpF(lrow[s]) + mass[s];
        }
      } else {
        for (int s = 0; s < score_width; ++s) srow[s] = ClampedExpF(lrow[s]);
      }
    }

    // Candidate expansion: identical control flow, sums and tie-breaks to
    // the reference (domain slots ascend in vocab-id order, so masked
    // normalization sums walk the same ids in the same order).
    std::vector<Candidate> candidates;
    const int k = std::min(beam_width, vocab_size);
    for (int r = 0; r < B; ++r) {
      const FastBeam& beam = beams[live[r]];
      const float* srow = scores + static_cast<size_t>(r) * score_width;
      float sum = 0.0f;
      std::vector<int> top;
      if (masked) {
        std::vector<int> legal;
        legal.reserve(score_width);
        for (int s = 0; s < score_width; ++s) {
          if (grammar.IsLegal(beam.grammar_state, cache.domain[s],
                              cache.in_source)) {
            legal.push_back(s);
          }
        }
        masked_tokens.Increment(vocab_size - static_cast<int>(legal.size()));
        for (int s : legal) sum += srow[s];
        top = std::move(legal);
        TopKByScore(&top, srow, k);
      } else {
        for (int j = 0; j < vocab_size; ++j) sum += srow[j];
        top = TopKScoreIndices(srow, vocab_size, k);
      }
      for (const int sel : top) {
        const int tok = masked ? cache.domain[sel] : sel;
        if (!masked &&
            (tok == text::Vocab::kPad || tok == text::Vocab::kBos)) {
          continue;
        }
        const float p = srow[sel] / (sum + 1e-9f);
        Candidate c;
        c.parent_slot = r;  // row in d_next/beta_next
        c.beam = beam;
        c.beam.prev_token = tok;
        c.beam.log_prob = beam.log_prob + std::log(p + 1e-12f);
        if (masked) {
          c.beam.grammar_state = grammar.Advance(beam.grammar_state, tok);
        }
        if (tok == text::Vocab::kEos) {
          c.beam.finished = true;
        } else {
          int code = tok;
          if (tok == text::Vocab::kUnk) {
            // Pointer fallback: emit the source token under the attention
            // peak instead of a literal <unk>.
            const float* wrow = weights_all + static_cast<size_t>(r) * n;
            int peak = 0;
            for (int i = 1; i < n; ++i) {
              if (wrow[i] > wrow[peak]) peak = i;
            }
            code = -1 - peak;
          }
          history.push_back({beam.last, code});
          c.beam.last = static_cast<int>(history.size()) - 1;
          ++c.beam.length;
        }
        candidates.push_back(std::move(c));
      }
    }
    if (candidates.empty()) break;
    // stable_sort pins candidate order on log-prob ties to construction
    // order (beam order, then score rank), matching the reference path.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.beam.log_prob > b.beam.log_prob;
                     });
    beams.clear();
    for (Candidate& c : candidates) {
      if (c.beam.finished) {
        finished.push_back(std::move(c.beam));
      } else if (static_cast<int>(beams.size()) < beam_width) {
        const int slot = static_cast<int>(beams.size());
        std::memcpy(d_swap + static_cast<size_t>(slot) * h2,
                    d_next + static_cast<size_t>(c.parent_slot) * h2,
                    sizeof(float) * h2);
        std::memcpy(beta_swap + static_cast<size_t>(slot) * h2,
                    beta_next + static_cast<size_t>(c.parent_slot) * h2,
                    sizeof(float) * h2);
        c.beam.slot = slot;
        beams.push_back(std::move(c.beam));
      }
      if (static_cast<int>(beams.size()) >= beam_width &&
          static_cast<int>(finished.size()) >= beam_width) {
        break;
      }
    }
    std::swap(d_prev, d_swap);
    std::swap(beta_prev, beta_swap);
    if (beams.empty()) break;
  }
  for (FastBeam& b : beams) finished.push_back(std::move(b));
  if (finished.empty()) {
    return Status::Internal("beam search exhausted every hypothesis");
  }
  // Length-normalized selection.
  const FastBeam* best = &finished[0];
  float best_score = -1e30f;
  for (const FastBeam& b : finished) {
    const float denom = static_cast<float>(std::max(1, b.length));
    const float s = b.log_prob / denom;
    if (s > best_score) {
      best_score = s;
      best = &b;
    }
  }
  std::vector<std::string> tokens(best->length);
  for (int e = best->last, pos = best->length - 1; e >= 0;
       e = history[e].parent, --pos) {
    const int code = history[e].code;
    tokens[pos] = code >= 0 ? vocab_.GetToken(code) : source[-1 - code];
  }
  return ScoredTokens{std::move(tokens), best_score};
}

}  // namespace core
}  // namespace nlidb
