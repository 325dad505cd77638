#ifndef NLIDB_CORE_SEQ2SEQ_H_
#define NLIDB_CORE_SEQ2SEQ_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/config.h"
#include "core/decode_grammar.h"
#include "core/translator_interface.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/rnn.h"
#include "text/vocab.h"

namespace nlidb {
namespace core {

/// Which decoder implementation `Decode` runs (DESIGN.md §12).
///
///  * kReference — the original tape-based beam search. The equivalence
///    baseline every other mode is gated against.
///  * kReferenceMasked — reference control flow plus the grammar mask.
///    Exists as the differential-fuzz oracle for kFast; not a serving
///    mode.
///  * kFastUnmasked — graph-free arena/GEMM fast path, bitwise identical
///    to kReference (same sequences, same scores, same errors).
///  * kFast — the serving default: fast path plus grammar-constrained
///    decoding (bitwise identical to kReferenceMasked). Falls back to
///    kFastUnmasked behavior when the vocabulary or annotation options
///    make the mask inapplicable.
enum class DecodeMode { kReference, kReferenceMasked, kFastUnmasked, kFast };

/// In-place top-k selection over `ids` by (scores[id] descending, id
/// ascending) — ties always resolve to the lower index, so selection
/// order is pinned across implementations. Truncates `ids` to
/// min(k, ids.size()) using nth_element + sort of the winning slice
/// instead of a full sort.
void TopKByScore(std::vector<int>* ids, const float* scores, int k);

/// TopKByScore over the identity domain [0, count).
std::vector<int> TopKScoreIndices(const float* scores, int count, int k);

/// The sequence-to-sequence translator of Sec. V: annotated question q^a
/// to annotated SQL s^a.
///
///  * Encoder: stacked bidirectional GRU with per-layer input affines.
///  * Decoder: attentive GRU (Bahdanau attention) whose initial state is
///    tanh(W1 [fw_N; bw_1]).
///  * Copy mechanism: output scores are exp(U [d_i, beta_i]) + M_i with
///    M_i[token] accumulating exp(e_ij) over source positions j holding
///    that token — the paper's additive variant, not softmax-over-vocab.
///  * Tied embeddings between encoder input, decoder input and output.
///  * Annotation symbols (c_i / v_i / g_i) embed as the concatenation of
///    a type vector and an index vector (Sec. VII-A2).
///
/// Inference is beam search (width `config.beam_width`); an emitted <unk>
/// is replaced by the source token under the attention peak (pointer-style
/// fallback for out-of-vocabulary literals).
class Seq2SeqTranslator : public TranslatorInterface {
 public:
  explicit Seq2SeqTranslator(const ModelConfig& config);

  /// Adds tokens of a training corpus to the shared vocabulary.
  /// Annotation symbols receive structured type+index embeddings.
  void AddVocabulary(const std::vector<std::string>& tokens) override;

  /// Teacher-forced loss (mean over target steps) for one pair.
  Var Loss(const std::vector<std::string>& source,
           const std::vector<std::string>& target) const override;

  /// Result of `Decode`: the output tokens, the length-normalized
  /// log-probability of the winning hypothesis, whether the degraded
  /// greedy path produced them (beam search exhausted every hypothesis),
  /// and whether the graph-free fast path served the query.
  struct Decoded {
    std::vector<std::string> tokens;
    float score = 0.0f;
    bool used_greedy_fallback = false;
    bool used_fast_path = false;
  };

  /// Deadline-aware decoding, the query-path entry point. Beam search
  /// (width `config.beam_width`) with graceful degradation: if the beam
  /// exhausts without any finished hypothesis, retries with greedy
  /// decode (recorded in `Decoded::used_greedy_fallback` and the
  /// `seq2seq.greedy_fallbacks` counter) instead of failing the query.
  /// `ctx` (optional) is polled every decode step; expiry surfaces as
  /// DeadlineExceeded. Empty source is InvalidArgument.
  /// Runs the decoder selected by `decode_mode()` (the graph-free fast
  /// path by default; see DecodeMode).
  StatusOr<Decoded> Decode(const std::vector<std::string>& source,
                           const CancelContext* ctx = nullptr) const;

  /// `Decode` with an explicit beam width (bench and eval harnesses);
  /// `beam_width >= 1`.
  StatusOr<Decoded> DecodeWithBeamWidth(const std::vector<std::string>& source,
                                        int beam_width,
                                        const CancelContext* ctx = nullptr) const;

  /// The decoder implementation `Decode` uses; `kFast` from
  /// construction. Tests and benches switch it to compare decoders.
  DecodeMode decode_mode() const {
    return decode_mode_.load(std::memory_order_relaxed);
  }
  void set_decode_mode(DecodeMode mode) {
    decode_mode_.store(mode, std::memory_order_relaxed);
  }
  /// The report spelling of `mode` ("fast", "reference", ...).
  static const char* DecodeModeName(DecodeMode mode);

  /// Beam-search translation of a source sequence. Thin wrapper over
  /// `Decode` satisfying TranslatorInterface; decode errors surface as
  /// an empty token sequence here.
  std::vector<std::string> Translate(
      const std::vector<std::string>& source) const override;

  void CollectParameters(std::vector<Var>* out) const override;

  const text::Vocab& vocab() const { return vocab_; }
  const ModelConfig& config() const { return config_; }

 private:
  /// Rows of the shared embedding / output projection: the vocabulary
  /// cap, shared by the reference and fast decoders.
  static constexpr int kVocabBudget = 1536;

  struct EncoderOutput {
    Var states;       // [n, 2h]
    Var memory_proj;  // attention projection of states
    Var d0;           // initial decoder state [1, 2h]
    std::vector<int> source_ids;
  };
  EncoderOutput Encode(const std::vector<std::string>& source) const;

  struct StepOutput {
    Var state;     // next decoder state
    Var scores;    // [1, V] positive scores (copy-augmented)
    Var energies;  // [1, n] raw attention energies
    Var weights;   // [1, n] attention weights
  };
  StepOutput DecodeStep(const EncoderOutput& enc, const Var& prev_state,
                        int prev_token) const;

  /// A finished search: the winning token sequence plus its
  /// length-normalized log-probability.
  struct ScoredTokens {
    std::vector<std::string> tokens;
    float score = 0.0f;
  };

  /// Dispatches to the decoder implementation selected by decode_mode().
  StatusOr<ScoredTokens> Search(const std::vector<std::string>& source,
                                int beam_width, const CancelContext* ctx) const;

  /// Reference tape-based beam search. `grammar` non-null restricts
  /// scoring/selection to the legal token set (kReferenceMasked).
  StatusOr<ScoredTokens> BeamSearch(const std::vector<std::string>& source,
                                    int beam_width, const CancelContext* ctx,
                                    const DecodeGrammar* grammar) const;

  /// Graph-free inference fast path (core/seq2seq_fast.cc): cached
  /// per-query encoder state, batched beam-frontier GEMMs on arena
  /// buffers, optional grammar mask. Replicates BeamSearch semantics
  /// bitwise (same-masked comparison).
  StatusOr<ScoredTokens> FastBeamSearch(const std::vector<std::string>& source,
                                        int beam_width, bool use_grammar_mask,
                                        const CancelContext* ctx) const;

  /// The grammar mask only applies under the default annotated-question
  /// representation: with column-name appending or header encoding
  /// disabled (ablation configs), legal output tokens need not occur in
  /// q^a and masking could veto correct hypotheses.
  bool GrammarMaskEligible() const {
    return config_.column_name_appending && config_.table_header_encoding;
  }

  ModelConfig config_;
  text::Vocab vocab_;
  std::atomic<DecodeMode> decode_mode_{DecodeMode::kFast};

  std::unique_ptr<nn::Embedding> embedding_;
  std::unique_ptr<nn::StackedBiGru> encoder_;
  std::unique_ptr<nn::Linear> init_proj_;      // W1 for d_0
  std::unique_ptr<nn::GruCell> decoder_cell_;
  std::unique_ptr<nn::AdditiveAttention> attention_;
  std::unique_ptr<nn::Linear> query_proj_;     // W3 d_i
  std::unique_ptr<nn::Linear> output_proj_;    // U
};

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_SEQ2SEQ_H_
