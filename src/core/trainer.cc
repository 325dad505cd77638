#include "core/trainer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace nlidb {
namespace core {

Annotation GoldAnnotation(const data::Example& example) {
  struct Proto {
    MentionPair pair;
    int position;
  };
  std::vector<Proto> protos;
  // Select-column pair (value-less).
  {
    Proto p;
    p.pair.column = example.query.select_column;
    p.pair.column_span = example.select_mention;
    p.position = example.select_mention.empty() ? (1 << 20)
                                                : example.select_mention.begin;
    protos.push_back(std::move(p));
  }
  for (size_t i = 0; i < example.where_mentions.size(); ++i) {
    const data::MentionInfo& m = example.where_mentions[i];
    // A column can appear both as select and condition; conditions own
    // the value, so merge into the existing pair when present.
    Proto* target = nullptr;
    for (auto& p : protos) {
      if (p.pair.column == m.column) target = &p;
    }
    if (target == nullptr) {
      protos.push_back(Proto{MentionPair{}, 1 << 20});
      target = &protos.back();
      target->pair.column = m.column;
    }
    if (m.column_explicit && !m.column_span.empty()) {
      target->pair.column_span = m.column_span;
      target->position = std::min(target->position, m.column_span.begin);
    }
    if (!m.value_span.empty()) {
      target->pair.value_span = m.value_span;
      target->pair.value_text = text::SpanText(example.tokens, m.value_span);
      target->position = std::min(target->position, m.value_span.begin);
    }
  }
  std::sort(protos.begin(), protos.end(),
            [](const Proto& a, const Proto& b) { return a.position < b.position; });
  Annotation annotation;
  for (auto& p : protos) annotation.pairs.push_back(std::move(p.pair));
  return annotation;
}

data::Dataset AugmentDataset(const data::Dataset& base,
                             const data::Dataset& augmentation) {
  data::Dataset merged;
  merged.tables = base.tables;
  for (const auto& table : augmentation.tables) {
    if (std::find(merged.tables.begin(), merged.tables.end(), table) ==
        merged.tables.end()) {
      merged.tables.push_back(table);
    }
  }
  merged.examples = base.examples;
  merged.examples.insert(merged.examples.end(),
                         augmentation.examples.begin(),
                         augmentation.examples.end());
  return merged;
}

namespace {

/// The epoch loop every stage trainer shares: each epoch shuffles
/// `pairs` with `rng`, then takes one clipped Adam step per pair on
/// `loss(pair)` (which may draw from `rng` too). Returns the final
/// epoch's mean loss; 0 when there are no pairs.
template <typename Pair, typename LossFn>
float TrainEpochs(const char* stage, std::vector<Pair>& pairs,
                  std::vector<Var> params, float lr, int epochs,
                  float grad_clip, Rng& rng, int* num_pairs, LossFn loss) {
  if (num_pairs != nullptr) *num_pairs = static_cast<int>(pairs.size());
  if (pairs.empty()) return 0.0f;
  nn::Adam optimizer(std::move(params), lr);
  float final_epoch_loss = 0.0f;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(pairs);
    float total = 0.0f;
    for (const Pair& p : pairs) {
      Var pair_loss = loss(p);
      optimizer.ZeroGrad();
      Backward(pair_loss);
      nn::ClipGradNorm(optimizer.params(), grad_clip);
      optimizer.Step();
      total += pair_loss->value(0);
    }
    final_epoch_loss = total / static_cast<float>(pairs.size());
    NLIDB_LOG(Debug) << stage << " epoch " << epoch << " loss "
                     << final_epoch_loss;
  }
  return final_epoch_loss;
}

/// Randomly degrades a gold annotation to mimic inference-time annotator
/// errors: a pair may lose its column span (becoming implicit), lose its
/// value span (forcing the decoder to emit the literal), or disappear.
/// Training against degraded annotations makes the decoder robust to the
/// exposure gap between gold and predicted annotations.
Annotation DegradeAnnotation(const Annotation& gold, Rng& rng) {
  Annotation out = gold;
  if (out.pairs.empty()) return out;
  const size_t victim = rng.NextUint64(out.pairs.size());
  const float r = rng.NextFloat();
  if (r < 0.45f) {
    out.pairs[victim].column_span = text::Span{};  // implicit mention
  } else if (r < 0.8f) {
    out.pairs[victim].value_span = text::Span{};
    out.pairs[victim].value_text.clear();  // value goes literal
  } else {
    out.pairs.erase(out.pairs.begin() + victim);  // pair fully missed
  }
  return out;
}

}  // namespace

float TrainColumnMentionClassifier(ColumnMentionClassifier& classifier,
                                   const data::Dataset& dataset,
                                   const ModelConfig& config, int* num_pairs) {
  struct Pair {
    const data::Example* example;
    std::vector<std::string> column;
    float label;
  };
  std::vector<Pair> pairs;
  for (const data::Example& ex : dataset.examples) {
    classifier.AddVocabulary(ex.tokens);
    std::vector<bool> referenced(ex.schema().num_columns(), false);
    referenced[ex.query.select_column] = true;
    for (const auto& c : ex.query.conditions) referenced[c.column] = true;
    for (int c = 0; c < ex.schema().num_columns(); ++c) {
      const std::vector<std::string> col_tokens =
          ex.schema().column(c).DisplayTokens();
      classifier.AddVocabulary(col_tokens);
      pairs.push_back({&ex, col_tokens, referenced[c] ? 1.0f : 0.0f});
    }
  }
  Rng rng(config.seed + 11);
  return TrainEpochs(
      "classifier", pairs, classifier.Parameters(), config.classifier_lr,
      config.classifier_epochs, config.grad_clip, rng, num_pairs,
      [&](const Pair& p) {
        // Training pairs are built above and never empty; a Status here
        // is a programming error, so value() (fatal on misuse) is right.
        auto fr = classifier.Forward(p.example->tokens, p.column).value();
        return ops::BceWithLogits(fr.logit, p.label);
      });
}

float TrainValueDetector(ValueDetector& detector, const data::Dataset& dataset,
                         const schema::SchemaRegistry& registry,
                         const ModelConfig& config, int* num_pairs) {
  const text::EmbeddingProvider& provider = detector.provider();
  struct Pair {
    std::vector<float> span_emb;
    std::vector<float> stats_emb;
    float label;
    float weight;
  };
  std::vector<Pair> pairs;
  Rng rng(config.seed + 12);
  for (const data::Example& ex : dataset.examples) {
    const auto& stats = registry.EntryFor(*ex.table).stats;
    for (const data::MentionInfo& m : ex.where_mentions) {
      if (m.value_span.empty()) continue;
      std::vector<std::string> span_tokens(
          ex.tokens.begin() + m.value_span.begin,
          ex.tokens.begin() + m.value_span.end);
      const std::vector<float> span_emb = provider.PhraseVector(span_tokens);
      // Positive, oversampled: ambiguous same-kind columns (actor vs
      // director) must stay above threshold.
      pairs.push_back({span_emb, stats[m.column].embedding, 1.0f, 2.0f});
      // Negative against a random other column.
      if (stats.size() > 1) {
        int other = static_cast<int>(rng.NextUint64(stats.size()));
        if (other == m.column) other = (other + 1) % static_cast<int>(stats.size());
        pairs.push_back({span_emb, stats[other].embedding, 0.0f, 1.0f});
      }
    }
    // Negative spans: non-value candidate spans against a random column.
    const auto candidates = detector.CandidateSpans(ex.tokens);
    for (const auto& span : candidates) {
      bool is_value = false;
      for (const auto& m : ex.where_mentions) {
        if (span.Overlaps(m.value_span)) is_value = true;
      }
      if (is_value || !rng.NextBool(0.25f)) continue;
      std::vector<std::string> span_tokens(ex.tokens.begin() + span.begin,
                                           ex.tokens.begin() + span.end);
      const int col = static_cast<int>(rng.NextUint64(stats.size()));
      pairs.push_back({provider.PhraseVector(span_tokens),
                       stats[col].embedding, 0.0f, 1.0f});
    }
  }
  return TrainEpochs(
      "value detector", pairs, detector.Parameters(), config.value_lr,
      config.value_epochs, config.grad_clip, rng, num_pairs,
      [&](const Pair& p) {
        Var logit =
            detector.ForwardFromVectors(p.span_emb, p.stats_emb).value();
        return ops::ScalarMul(ops::BceWithLogits(logit, p.label), p.weight);
      });
}

float TrainSeq2Seq(TranslatorInterface& translator,
                   const data::Dataset& dataset,
                   const AnnotationOptions& options, const ModelConfig& config,
                   int* num_pairs) {
  struct Pair {
    const data::Example* example;
    Annotation gold;
    std::vector<std::string> source;
    std::vector<std::string> target;
  };
  std::vector<Pair> pairs;
  pairs.reserve(dataset.examples.size());
  for (const data::Example& ex : dataset.examples) {
    Pair p;
    p.example = &ex;
    p.gold = GoldAnnotation(ex);
    p.source = BuildAnnotatedQuestion(ex.tokens, p.gold, ex.schema(), options);
    p.target = BuildAnnotatedSql(ex.query, p.gold, ex.schema(), options);
    translator.AddVocabulary(p.source);
    translator.AddVocabulary(p.target);
    // Degraded variants use g-symbols and literal tokens; make sure the
    // vocabulary has seen them.
    translator.AddVocabulary(BuildAnnotatedSql(ex.query, Annotation{},
                                               ex.schema(), options));
    pairs.push_back(std::move(p));
  }
  Rng rng(config.seed + 13);
  return TrainEpochs(
      "seq2seq", pairs, translator.Parameters(), config.seq2seq_lr,
      config.seq2seq_epochs, config.grad_clip, rng, num_pairs,
      [&](const Pair& p) {
        if (!rng.NextBool(config.annotation_noise_probability)) {
          return translator.Loss(p.source, p.target);
        }
        Annotation degraded = DegradeAnnotation(p.gold, rng);
        return translator.Loss(
            BuildAnnotatedQuestion(p.example->tokens, degraded,
                                   p.example->schema(), options),
            BuildAnnotatedSql(p.example->query, degraded,
                              p.example->schema(), options));
      });
}

}  // namespace core
}  // namespace nlidb
