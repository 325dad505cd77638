#include "text/vocab.h"

#include "common/logging.h"

namespace nlidb {
namespace text {

Vocab::Vocab() {
  for (const char* tok : {"<pad>", "<unk>", "<s>", "</s>"}) {
    token_to_id_.emplace(tok, static_cast<int>(id_to_token_.size()));
    id_to_token_.emplace_back(tok);
  }
}

int Vocab::AddToken(const std::string& token) {
  auto it = token_to_id_.find(token);
  if (it != token_to_id_.end()) return it->second;
  const int id = static_cast<int>(id_to_token_.size());
  token_to_id_.emplace(token, id);
  id_to_token_.push_back(token);
  return id;
}

int Vocab::GetId(const std::string& token) const {
  auto it = token_to_id_.find(token);
  return it == token_to_id_.end() ? kUnk : it->second;
}

bool Vocab::Contains(const std::string& token) const {
  return token_to_id_.count(token) > 0;
}

const std::string& Vocab::GetToken(int id) const {
  NLIDB_CHECK(id >= 0 && id < size()) << "Vocab id out of range: " << id;
  return id_to_token_[id];
}

std::vector<int> Vocab::Encode(const std::vector<std::string>& tokens) const {
  std::vector<int> ids;
  ids.reserve(tokens.size());
  for (const auto& t : tokens) ids.push_back(GetId(t));
  return ids;
}

std::vector<std::string> Vocab::Decode(const std::vector<int>& ids) const {
  std::vector<std::string> tokens;
  tokens.reserve(ids.size());
  for (int id : ids) tokens.push_back(GetToken(id));
  return tokens;
}

CharVocab::CharVocab() {
  // id 0 reserved as the unknown/punctuation bucket.
  for (int& id : ids_) id = 0;
  int next = 1;
  for (char c = 'a'; c <= 'z'; ++c) ids_[static_cast<unsigned char>(c)] = next++;
  for (char c = '0'; c <= '9'; ++c) ids_[static_cast<unsigned char>(c)] = next++;
  ids_[static_cast<unsigned char>('-')] = next++;
  ids_[static_cast<unsigned char>('.')] = next++;
  ids_[static_cast<unsigned char>('_')] = next++;
  size_ = next;
}

int CharVocab::GetId(char c) const { return ids_[static_cast<unsigned char>(c)]; }

std::vector<int> CharVocab::Encode(const std::string& word) const {
  std::vector<int> out;
  out.reserve(word.size());
  for (char c : word) out.push_back(GetId(c));
  if (out.empty()) out.push_back(0);
  return out;
}

}  // namespace text
}  // namespace nlidb
