// Reproduces Table I: case studies of mention detection by the
// adversarial text method — columns whose question wording has no
// straightforward indicator ("when did" -> date, "where was ... played"
// -> venue/location, "golfer that golfs for" -> nation, implicit
// mentions). For each case the bench prints whether the classifier
// flags the column and which term the adversarial locator pins.

#include "bench/bench_util.h"

#include "common/strings.h"
#include "core/adversarial.h"
#include "core/trainer.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace bench {
namespace {

struct Case {
  const char* column;   // display words, space separated
  const char* question; // Table I question (adapted to corpus vocabulary)
};

int Run() {
  PrintHeader(
      "Table I: mention detection using the adversarial text method\n"
      "(column | detected? | located term | question)");
  BenchEnv env = MakeEnv();
  core::ColumnMentionClassifier classifier(env.config, *env.provider);
  std::printf("[setup] training classifier...\n");
  core::TrainColumnMentionClassifier(classifier, env.splits.train, env.config);
  core::AdversarialLocator locator(env.config);

  const Case cases[] = {
      // Table I rows, phrased over this corpus's vocabulary.
      {"date", "when did the race at the monaco grand prix take place ?"},
      {"location", "where was the meeting held on may 20 ?"},
      {"nation", "who is the golfer that golfs for northern ireland ?"},
      {"points", "what was her final score with the team ferrari ?"},
      // Figure 5's column for good measure.
      {"winning driver", "which driver won the japanese grand prix ?"},
  };
  for (const Case& c : cases) {
    const auto tokens = text::Tokenize(c.question);
    const auto column = SplitWhitespace(c.column);
    const float p = classifier.PredictBatch(tokens, {column}).value()[0];
    std::string term = "-";
    if (p > 0.5f) {
      const text::Span span =
          locator.LocateMention(classifier, tokens, column).value();
      if (!span.empty()) term = text::SpanText(tokens, span);
    }
    std::printf("%-16s | %s (p=%.2f) | %-24s | %s\n", c.column,
                p > 0.5f ? "yes" : "no ", p, term.c_str(), c.question);
  }
  std::printf(
      "\npaper Table I: 'date' detected from 'when did', 'venue' from\n"
      "'where was ... played', 'player' from 'golfer', and the implicitly\n"
      "mentioned 'competition description' from context. Reproduction\n"
      "target: context-dependent columns flagged and localized sensibly.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace nlidb

int main() { return nlidb::bench::Run(); }
