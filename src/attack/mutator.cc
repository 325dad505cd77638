#include "attack/mutator.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "data/domain.h"
#include "sql/value.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace attack {

namespace {

/// Shifts a gold span after tokens [target.begin, target.end) were
/// replaced by `repl_len` tokens. Spans strictly before the replacement
/// are untouched, spans after slide by the length delta, spans
/// containing the replacement stretch, and spans inside it collapse
/// onto the replacement.
text::Span Shift(text::Span s, text::Span target, int repl_len) {
  const int delta = repl_len - target.length();
  if (s.empty()) return s;
  if (s.end <= target.begin) return s;
  if (s.begin >= target.end) return {s.begin + delta, s.end + delta};
  if (s.begin <= target.begin && s.end >= target.end) {
    return {s.begin, s.end + delta};
  }
  return {target.begin, target.begin + repl_len};
}

/// Every gold span of `ex`, for bulk shifting.
std::vector<text::Span*> AllSpans(data::Example& ex) {
  std::vector<text::Span*> spans;
  spans.push_back(&ex.select_mention);
  for (auto& m : ex.where_mentions) {
    spans.push_back(&m.column_span);
    spans.push_back(&m.value_span);
  }
  return spans;
}

/// Replaces tokens [target.begin, target.end) with `repl`, shifting all
/// gold spans and rebuilding the question text.
void Splice(data::Example& ex, text::Span target,
            const std::vector<std::string>& repl) {
  NLIDB_CHECK(target.begin >= 0 &&
              target.end <= static_cast<int>(ex.tokens.size()))
      << "splice target out of range";
  const int repl_len = static_cast<int>(repl.size());
  for (text::Span* s : AllSpans(ex)) *s = Shift(*s, target, repl_len);
  ex.tokens.erase(ex.tokens.begin() + target.begin,
                  ex.tokens.begin() + target.end);
  ex.tokens.insert(ex.tokens.begin() + target.begin, repl.begin(), repl.end());
  ex.question = Join(ex.tokens, " ");
}

std::vector<std::string> PhraseTokens(const std::string& phrase) {
  std::vector<std::string> words = SplitWhitespace(phrase);
  for (auto& w : words) w = ToLower(w);
  return words;
}

/// Same inflection the generator's morphological style applies: toggle a
/// plural-ish 's' on the last word.
std::string MorphPhrase(const std::string& phrase) {
  std::vector<std::string> words = SplitWhitespace(phrase);
  if (words.empty()) return phrase;
  std::string& last = words.back();
  if (last.size() > 3 && last.back() == 's') {
    last.pop_back();
  } else {
    last += 's';
  }
  return Join(words, " ");
}

/// An explicit column-mention site: the span plus the schema column it
/// names (select mention or an explicit WHERE mention).
struct MentionSite {
  text::Span* span;
  int column;
};

std::vector<MentionSite> ExplicitMentionSites(data::Example& ex) {
  std::vector<MentionSite> sites;
  if (ex.select_explicit && !ex.select_mention.empty()) {
    sites.push_back({&ex.select_mention, ex.query.select_column});
  }
  for (auto& m : ex.where_mentions) {
    if (m.column_explicit && !m.column_span.empty()) {
      sites.push_back({&m.column_span, m.column});
    }
  }
  return sites;
}

bool InsideAnyValueSpan(const data::Example& ex, int index) {
  for (const auto& m : ex.where_mentions) {
    if (m.value_span.Contains(index)) return true;
  }
  return false;
}

uint64_t MixSeed(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 12) + (h >> 4);
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 31;
  return h;
}

const char* const kFillerPrefixes[] = {
    "hey", "please tell me", "i would like to know", "quick question",
    "by the way"};

}  // namespace

const char* MutatorName(MutatorKind kind) {
  switch (kind) {
    case MutatorKind::kSynonymSwap:
      return "synonym_swap";
    case MutatorKind::kMorphInflect:
      return "morph_inflect";
    case MutatorKind::kTokenDrop:
      return "token_drop";
    case MutatorKind::kImplicitColumn:
      return "implicit_column";
    case MutatorKind::kCounterfactualValue:
      return "counterfactual_value";
    case MutatorKind::kFillerNoise:
      return "filler_noise";
    case MutatorKind::kTypoCasing:
      return "typo_casing";
    case MutatorKind::kCount:
      break;
  }
  return "?";
}

const std::vector<MutatorKind>& AllMutators() {
  static const std::vector<MutatorKind> kAll = [] {
    std::vector<MutatorKind> all;
    for (int k = 0; k < kNumMutators; ++k) {
      all.push_back(static_cast<MutatorKind>(k));
    }
    return all;
  }();
  return kAll;
}

MutationEngine::MutationEngine(MutationConfig config)
    : config_(config) {
  auto absorb = [&](const data::DomainSpec& domain) {
    for (const auto& col : domain.columns) {
      auto& phrases = synonyms_[col.name];
      for (const auto& p : col.mention_phrases) {
        if (std::find(phrases.begin(), phrases.end(), p) == phrases.end()) {
          phrases.push_back(p);
        }
      }
    }
  };
  for (const auto& d : data::TrainDomains()) absorb(d);
  for (const auto& d : data::OvernightDomains()) absorb(d);
  absorb(data::PatientsDomain());
}

std::vector<std::string> MutationEngine::SynonymsFor(
    const std::string& column_name) const {
  auto it = synonyms_.find(column_name);
  if (it == synonyms_.end()) return {};
  return it->second;
}

Mutant MutationEngine::Mutate(const data::Example& example, MutatorKind kind,
                              Rng& rng) const {
  Mutant mutant;
  mutant.example = example;
  mutant.kind = kind;
  data::Example& ex = mutant.example;

  switch (kind) {
    case MutatorKind::kSynonymSwap: {
      if (ex.table == nullptr) break;
      std::vector<MentionSite> sites = ExplicitMentionSites(ex);
      if (sites.empty()) break;
      // Start from a random site and take the first one with an
      // alternative phrasing.
      const size_t start = rng.NextUint64(sites.size());
      for (size_t off = 0; off < sites.size(); ++off) {
        const MentionSite& site = sites[(start + off) % sites.size()];
        const std::string current = text::SpanText(ex.tokens, *site.span);
        std::vector<std::string> alts;
        for (const auto& p :
             SynonymsFor(ex.schema().column(site.column).name)) {
          if (ToLower(p) != current) alts.push_back(p);
        }
        if (alts.empty()) continue;
        const std::string& pick = alts[rng.NextUint64(alts.size())];
        Splice(ex, *site.span, PhraseTokens(pick));
        mutant.applied = true;
        break;
      }
      break;
    }

    case MutatorKind::kMorphInflect: {
      std::vector<MentionSite> sites = ExplicitMentionSites(ex);
      if (sites.empty()) break;
      const MentionSite& site = sites[rng.NextUint64(sites.size())];
      const std::string current = text::SpanText(ex.tokens, *site.span);
      Splice(ex, *site.span, PhraseTokens(MorphPhrase(current)));
      mutant.applied = true;
      break;
    }

    case MutatorKind::kTokenDrop: {
      // Underspecification: drop one carrier token — never a value token
      // and never the last token of a mention span (the gold annotation
      // must stay non-degenerate).
      std::vector<int> candidates;
      for (int i = 0; i < static_cast<int>(ex.tokens.size()); ++i) {
        if (ex.tokens[i] == "?") continue;
        if (InsideAnyValueSpan(ex, i)) continue;
        bool shrinks_to_empty = false;
        for (text::Span* s : AllSpans(ex)) {
          if (!s->empty() && s->Contains(i) && s->length() < 2) {
            shrinks_to_empty = true;
            break;
          }
        }
        if (!shrinks_to_empty) candidates.push_back(i);
      }
      if (candidates.empty()) break;
      const int drop = candidates[rng.NextUint64(candidates.size())];
      Splice(ex, text::Span{drop, drop + 1}, {});
      mutant.applied = true;
      break;
    }

    case MutatorKind::kImplicitColumn: {
      // Delete the column wording of one WHERE mention entirely
      // (challenge 3 at attack time).
      std::vector<size_t> candidates;
      for (size_t i = 0; i < ex.where_mentions.size(); ++i) {
        const auto& m = ex.where_mentions[i];
        if (m.column_explicit && !m.column_span.empty() &&
            // A column span overlapping a value span (shared template
            // wording) cannot be deleted without corrupting the value.
            !InsideAnyValueSpan(ex, m.column_span.begin)) {
          candidates.push_back(i);
        }
      }
      if (candidates.empty()) break;
      auto& m = ex.where_mentions[candidates[rng.NextUint64(candidates.size())]];
      Splice(ex, m.column_span, {});
      m.column_span = text::Span{};
      m.column_explicit = false;
      mutant.applied = true;
      break;
    }

    case MutatorKind::kCounterfactualValue: {
      // Swap one condition value for a different value from the same
      // column, in both the question and the gold query: the answer
      // changes by design.
      std::vector<size_t> candidates;
      for (size_t i = 0; i < ex.where_mentions.size(); ++i) {
        if (!ex.where_mentions[i].value_span.empty()) candidates.push_back(i);
      }
      if (candidates.empty() || ex.table == nullptr) break;
      const size_t start = rng.NextUint64(candidates.size());
      for (size_t off = 0; off < candidates.size(); ++off) {
        const size_t ci = candidates[(start + off) % candidates.size()];
        auto& mention = ex.where_mentions[ci];
        sql::Condition& cond = ex.query.conditions[ci];
        std::vector<sql::Value> alts;
        for (const sql::Value& v : ex.table->ColumnValues(cond.column)) {
          if (v == cond.value) continue;
          if (std::find(alts.begin(), alts.end(), v) == alts.end()) {
            alts.push_back(v);
          }
        }
        if (alts.empty()) continue;
        const sql::Value& pick = alts[rng.NextUint64(alts.size())];
        Splice(ex, mention.value_span, PhraseTokens(pick.ToString()));
        cond.value = pick;
        mutant.applied = true;
        break;
      }
      break;
    }

    case MutatorKind::kFillerNoise: {
      const char* prefix =
          kFillerPrefixes[rng.NextUint64(std::size(kFillerPrefixes))];
      Splice(ex, text::Span{0, 0}, PhraseTokens(prefix));
      if (rng.NextBool(0.5f)) {
        // Tail filler goes before the trailing "?" when present.
        int at = static_cast<int>(ex.tokens.size());
        if (at > 0 && ex.tokens[at - 1] == "?") --at;
        Splice(ex, text::Span{at, at}, PhraseTokens("if you can"));
      }
      mutant.applied = true;
      break;
    }

    case MutatorKind::kTypoCasing: {
      std::vector<int> candidates;
      for (int i = 0; i < static_cast<int>(ex.tokens.size()); ++i) {
        if (ex.tokens[i].size() < 3) continue;
        if (InsideAnyValueSpan(ex, i)) continue;
        candidates.push_back(i);
      }
      if (candidates.empty()) break;
      const int at = candidates[rng.NextUint64(candidates.size())];
      std::string word = ex.tokens[at];
      if (rng.NextBool(0.5f)) {
        // Casing flip: SHOUT the token.
        for (char& c : word) {
          if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
        }
        if (word == ex.tokens[at]) word += word.back();  // no letters: dup
      } else {
        // Adjacent-character transposition; degrade to a duplicated
        // character when the pair is identical.
        const size_t p = rng.NextUint64(word.size() - 1);
        if (word[p] != word[p + 1]) {
          std::swap(word[p], word[p + 1]);
        } else {
          word.insert(p, 1, word[p]);
        }
      }
      Splice(ex, text::Span{at, at + 1}, {word});
      mutant.applied = true;
      break;
    }

    case MutatorKind::kCount:
      NLIDB_CHECK(false) << "kCount is not a mutator";
      break;
  }
  return mutant;
}

std::vector<Mutant> MutationEngine::MutateCorpus(
    const data::Dataset& dataset, const std::vector<MutatorKind>& kinds,
    uint64_t salt) const {
  std::vector<Mutant> mutants;
  mutants.reserve(dataset.examples.size() * kinds.size());
  for (size_t i = 0; i < dataset.examples.size(); ++i) {
    for (MutatorKind kind : kinds) {
      uint64_t h = MixSeed(config_.seed, salt);
      h = MixSeed(h, static_cast<uint64_t>(kind) + 1);
      h = MixSeed(h, i + 1);
      Rng rng(h);
      Mutant m = Mutate(dataset.examples[i], kind, rng);
      m.source_index = i;
      mutants.push_back(std::move(m));
    }
  }
  return mutants;
}

data::Dataset MutateDataset(const MutationEngine& engine,
                            const data::Dataset& dataset, MutatorKind kind,
                            uint64_t salt) {
  data::Dataset out;
  out.tables = dataset.tables;
  std::vector<Mutant> mutants =
      engine.MutateCorpus(dataset, {kind}, salt);
  out.examples.reserve(mutants.size());
  for (auto& m : mutants) out.examples.push_back(std::move(m.example));
  return out;
}

}  // namespace attack
}  // namespace nlidb
