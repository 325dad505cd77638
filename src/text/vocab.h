#ifndef NLIDB_TEXT_VOCAB_H_
#define NLIDB_TEXT_VOCAB_H_

#include <string>
#include <unordered_map>
#include <vector>

namespace nlidb {
namespace text {

/// A token <-> id mapping with reserved special tokens.
///
/// Ids 0..3 are always <pad>, <unk>, <s>, </s>. Unknown tokens map to
/// kUnk on lookup (matching the paper's handling of out-of-vocabulary
/// tokens).
class Vocab {
 public:
  static constexpr int kPad = 0;
  static constexpr int kUnk = 1;
  static constexpr int kBos = 2;
  static constexpr int kEos = 3;

  Vocab();

  /// Adds `token` if absent and returns its id.
  int AddToken(const std::string& token);

  /// Id lookup; returns kUnk when absent.
  int GetId(const std::string& token) const;

  /// True if the token is present.
  bool Contains(const std::string& token) const;

  /// Token for id; requires 0 <= id < size().
  const std::string& GetToken(int id) const;

  /// Converts a token sequence to ids (unknowns -> kUnk).
  std::vector<int> Encode(const std::vector<std::string>& tokens) const;

  /// Converts ids back to tokens.
  std::vector<std::string> Decode(const std::vector<int>& ids) const;

  int size() const { return static_cast<int>(id_to_token_.size()); }

 private:
  std::unordered_map<std::string, int> token_to_id_;
  std::vector<std::string> id_to_token_;
};

/// Character vocabulary: fixed alphabet (a-z, 0-9, '-', '.', punctuation
/// bucket). Ids are stable across runs.
class CharVocab {
 public:
  CharVocab();

  /// Id for a character; unknown characters map to the shared punctuation
  /// bucket id.
  int GetId(char c) const;

  /// Encodes the characters of `word`.
  std::vector<int> Encode(const std::string& word) const;

  int size() const { return size_; }

 private:
  int ids_[256];
  int size_;
};

}  // namespace text
}  // namespace nlidb

#endif  // NLIDB_TEXT_VOCAB_H_
