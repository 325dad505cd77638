#include "schema/registry.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace schema {

namespace {

struct SchemaCounters {
  metrics::Counter& registered;
  metrics::Counter& stats_hits;
  metrics::Counter& stats_computed;
  metrics::Counter& route_queries;
  metrics::Counter& route_fallback_scan;
  metrics::Counter& shortlist_queries;
  metrics::Counter& shortlist_pruned_columns;

  static SchemaCounters& Get() {
    auto& reg = metrics::MetricsRegistry::Global();
    static SchemaCounters c{reg.GetCounter("schema.registered"),
                            reg.GetCounter("schema.stats_hits"),
                            reg.GetCounter("schema.stats_computed"),
                            reg.GetCounter("schema.route_queries"),
                            reg.GetCounter("schema.route_fallback_scan"),
                            reg.GetCounter("schema.shortlist_queries"),
                            reg.GetCounter("schema.shortlist_pruned_columns")};
    return c;
  }
};

/// Max ranked tables `Resolve` carries in `Resolution.candidates` for a
/// routed request.
constexpr int kRouteLimit = 5;

/// Rows per table sampled into the routing token index. Bounds index
/// build cost per registered table.
constexpr int kMaxIndexRows = 32;

/// Question tokens that carry content: not stop words (which covers
/// punctuation too). These drive routing and shortlist scoring; function
/// words would only add noise shared by every table.
std::vector<std::string> ContentTokens(const std::vector<std::string>& tokens) {
  std::vector<std::string> content;
  content.reserve(tokens.size());
  for (const std::string& t : tokens) {
    if (!text::IsStopWord(t)) content.push_back(t);
  }
  return content;
}

/// Index tokens of one table: its name, every column's display tokens,
/// and the cell tokens of the first `max_rows` rows — deduplicated,
/// stop words skipped.
std::vector<std::string> IndexTokens(const sql::Table& table, int max_rows) {
  std::vector<std::string> out;
  auto add = [&out](const std::string& token) {
    if (token.empty() || text::IsStopWord(token)) return;
    if (std::find(out.begin(), out.end(), token) == out.end()) {
      out.push_back(token);
    }
  };
  std::string display_name = table.name();
  std::replace(display_name.begin(), display_name.end(), '_', ' ');
  for (const std::string& t : text::Tokenize(display_name)) add(t);
  for (int c = 0; c < table.num_columns(); ++c) {
    for (const std::string& t : table.schema().column(c).DisplayTokens()) {
      add(t);
    }
  }
  const int rows = std::min(table.num_rows(), max_rows);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < table.num_columns(); ++c) {
      for (const std::string& t : text::Tokenize(table.Cell(r, c).ToString())) {
        add(t);
      }
    }
  }
  return out;
}

}  // namespace

SchemaRegistry::SchemaRegistry(
    std::shared_ptr<const text::EmbeddingProvider> provider,
    const SchemaRegistryOptions& options)
    : provider_(std::move(provider)), options_(options) {}

void SchemaRegistry::FillDerived(const sql::Table& table,
                                 TableStatsEntry& entry) const {
  const int ncols = table.num_columns();
  entry.name_embeddings.resize(ncols);
  entry.centroid.assign(provider_->dim(), 0.0f);
  int contributing = 0;
  for (int c = 0; c < ncols; ++c) {
    entry.name_embeddings[c] =
        provider_->PhraseVector(table.schema().column(c).DisplayTokens());
    const std::vector<float>* sources[2] = {&entry.name_embeddings[c],
                                            &entry.stats[c].embedding};
    for (const std::vector<float>* vec : sources) {
      if (vec->size() != entry.centroid.size()) continue;
      for (size_t d = 0; d < entry.centroid.size(); ++d) {
        entry.centroid[d] += (*vec)[d];
      }
      ++contributing;
    }
  }
  if (contributing > 0) {
    for (float& v : entry.centroid) v /= static_cast<float>(contributing);
  }
}

const TableStatsEntry& SchemaRegistry::Intern(
    std::unique_ptr<TableStatsEntry> entry) const {
  MutexLock lock(mu_);
  auto [it, inserted] = entries_.emplace(entry->fingerprint, nullptr);
  if (inserted) it->second = std::move(entry);
  // A racing thread may have computed the same content first; both
  // computed identical values (pure function of content), so either
  // entry serves.
  return *it->second;
}

TableId SchemaRegistry::RegisteredId(const sql::Table& table) const {
  auto it = name_to_id_.find(table.name());
  if (it == name_to_id_.end() ||
      tables_[static_cast<size_t>(it->second)].table.get() != &table) {
    return kInvalidTableId;
  }
  return it->second;
}

const TableStatsEntry& SchemaRegistry::EntryFor(const sql::Table& table) const {
  SchemaCounters& counters = SchemaCounters::Get();
  {
    // A registered table is read as it was at Register.
    MutexLock lock(mu_);
    const TableId id = RegisteredId(table);
    if (id != kInvalidTableId) {
      counters.stats_hits.Increment();
      return *tables_[static_cast<size_t>(id)].entry;
    }
  }
  const uint64_t fp = TableFingerprint(table);
  {
    MutexLock lock(mu_);
    auto it = entries_.find(fp);
    if (it != entries_.end()) {
      counters.stats_hits.Increment();
      return *it->second;
    }
  }
  // Miss: build the entry outside the lock — statistics are a pure
  // function of (table content, provider), so concurrent misses on
  // different tables proceed in parallel.
  counters.stats_computed.Increment();
  auto entry = std::make_unique<TableStatsEntry>();
  entry->fingerprint = fp;
  {
    trace::TraceSpan span("schema.stats_compute");
    entry->stats =
        sql::ComputeTableStatistics(table, *provider_, &entry->cells);
  }
  FillDerived(table, *entry);
  return Intern(std::move(entry));
}

StatusOr<TableId> SchemaRegistry::Register(
    std::shared_ptr<const sql::Table> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("cannot register a null table");
  }
  const auto duplicate = [&table] {
    return Status::FailedPrecondition("table '" + table->name() +
                                      "' is already registered");
  };
  // A known duplicate is rejected before any entry is computed for it.
  if (Find(table->name()) != kInvalidTableId) return duplicate();
  // Compute the entry to bind before taking mu_ (EntryFor locks
  // internally).
  const TableStatsEntry& entry = EntryFor(*table);
  std::vector<std::string> index_tokens =
      IndexTokens(*table, kMaxIndexRows);

  MutexLock lock(mu_);
  // Two concurrent registrations of one name can both pass the check
  // above; the loser's entry stays resident as an ad-hoc entry.
  if (name_to_id_.count(table->name()) > 0) return duplicate();
  const TableId id = static_cast<TableId>(tables_.size());
  name_to_id_.emplace(table->name(), id);
  tables_.push_back({std::move(table), &entry, entry.centroid});
  for (const std::string& token : index_tokens) {
    postings_[token].push_back(id);
  }
  SchemaCounters::Get().registered.Increment();
  return id;
}

TableId SchemaRegistry::Find(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = name_to_id_.find(name);
  return it == name_to_id_.end() ? kInvalidTableId : it->second;
}

const sql::Table* SchemaRegistry::table(TableId id) const {
  MutexLock lock(mu_);
  if (id < 0 || id >= static_cast<TableId>(tables_.size())) return nullptr;
  return tables_[static_cast<size_t>(id)].table.get();
}

int SchemaRegistry::num_tables() const {
  MutexLock lock(mu_);
  return static_cast<int>(tables_.size());
}

std::vector<RouteCandidate> SchemaRegistry::Route(
    const std::vector<std::string>& tokens, int limit) const {
  SchemaCounters& counters = SchemaCounters::Get();
  counters.route_queries.Increment();
  const std::vector<std::string> content = ContentTokens(tokens);
  // Provider calls (its own lock) stay outside mu_ so the registry
  // never nests lock classes.
  const std::vector<float> question_vec = provider_->PhraseVector(content);

  MutexLock lock(mu_);
  const size_t n = tables_.size();
  if (n == 0 || limit <= 0) return {};
  std::vector<float> lexical(n, 0.0f);
  bool any_hit = false;
  // Each distinct content token contributes its idf weight to every
  // table whose index contains it: rare tokens dominate, tokens shared
  // by most tables contribute little.
  std::vector<std::string> seen;
  for (const std::string& token : content) {
    if (std::find(seen.begin(), seen.end(), token) != seen.end()) continue;
    seen.push_back(token);
    auto it = postings_.find(token);
    if (it == postings_.end()) continue;
    const float idf = std::log(
        1.0f + static_cast<float>(n) / static_cast<float>(it->second.size()));
    for (TableId id : it->second) {
      lexical[static_cast<size_t>(id)] += idf;
      any_hit = true;
    }
  }
  if (!any_hit) counters.route_fallback_scan.Increment();

  std::vector<RouteCandidate> ranked(n);
  const float norm = 1.0f + static_cast<float>(content.size());
  for (size_t i = 0; i < n; ++i) {
    ranked[i].id = static_cast<TableId>(i);
    ranked[i].name = tables_[i].table->name();
    // Lexical evidence dominates when present; the centroid cosine
    // breaks ties and carries the no-lexical-hit fallback (a full
    // centroid scan still ranks every table).
    ranked[i].score = lexical[i] / norm +
                      text::EmbeddingProvider::Cosine(question_vec,
                                                      tables_[i].centroid);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RouteCandidate& a, const RouteCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  if (static_cast<int>(ranked.size()) > limit) {
    ranked.resize(static_cast<size_t>(limit));
  }
  return ranked;
}

std::vector<int> SchemaRegistry::ShortlistColumns(
    const std::vector<std::string>& tokens, const sql::Table& table,
    const TableStatsEntry& entry) const {
  SchemaCounters& counters = SchemaCounters::Get();
  counters.shortlist_queries.Increment();
  const int ncols = table.num_columns();
  std::vector<int> all(static_cast<size_t>(ncols));
  for (int c = 0; c < ncols; ++c) all[static_cast<size_t>(c)] = c;
  if (ncols <= options_.shortlist_k) return all;

  const std::vector<std::string> content = ContentTokens(tokens);
  std::vector<const std::vector<float>*> token_vecs;
  token_vecs.reserve(content.size());
  for (const std::string& t : content) {
    token_vecs.push_back(&provider_->Vector(t));
  }

  std::vector<std::pair<float, int>> scored(static_cast<size_t>(ncols));
  for (int c = 0; c < ncols; ++c) {
    const sql::ColumnDef& def = table.schema().column(c);
    const std::vector<std::string> name_tokens = def.DisplayTokens();
    float score = 0.0f;
    // Exact lexical hit on a name token outranks any embedding signal:
    // a literally mentioned column must survive the shortlist.
    for (const std::string& t : content) {
      if (std::find(name_tokens.begin(), name_tokens.end(), t) !=
          name_tokens.end()) {
        score += 2.0f;
        break;
      }
    }
    float best_name = 0.0f;
    float best_cell = 0.0f;
    for (const std::vector<float>* vec : token_vecs) {
      best_name = std::max(best_name, text::EmbeddingProvider::Cosine(
                                          *vec, entry.name_embeddings[c]));
      best_cell = std::max(best_cell, text::EmbeddingProvider::Cosine(
                                          *vec, entry.stats[c].embedding));
    }
    score += best_name + 0.5f * best_cell;
    scored[static_cast<size_t>(c)] = {score, c};
  }
  std::sort(scored.begin(), scored.end(),
            [](const std::pair<float, int>& a, const std::pair<float, int>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  scored.resize(static_cast<size_t>(options_.shortlist_k));
  std::vector<int> shortlist;
  shortlist.reserve(scored.size());
  for (const auto& [score, c] : scored) shortlist.push_back(c);
  std::sort(shortlist.begin(), shortlist.end());
  counters.shortlist_pruned_columns.Increment(ncols - options_.shortlist_k);
  return shortlist;
}

StatusOr<Resolution> SchemaRegistry::Resolve(
    const SchemaRef& ref, const std::vector<std::string>& tokens) const {
  Resolution resolution;
  switch (ref.kind()) {
    case SchemaRef::Kind::kUnset:
      return Status::InvalidArgument(
          "QueryRequest has no schema reference: set schema_ref");
    case SchemaRef::Kind::kTable: {
      if (ref.table() == nullptr) {
        return Status::InvalidArgument("SchemaRef::Table is null");
      }
      resolution.table = ref.table();
      // Report the handle when this exact table is also registered.
      MutexLock lock(mu_);
      resolution.id = RegisteredId(*ref.table());
      return resolution;
    }
    case SchemaRef::Kind::kName: {
      MutexLock lock(mu_);
      auto it = name_to_id_.find(ref.name());
      if (it == name_to_id_.end()) {
        return Status::NotFound("no registered table named '" + ref.name() +
                                "'");
      }
      resolution.id = it->second;
      resolution.table = tables_[static_cast<size_t>(it->second)].table.get();
      return resolution;
    }
    case SchemaRef::Kind::kId:
      resolution.id = ref.id();
      resolution.table = table(ref.id());
      if (resolution.table == nullptr) {
        return Status::NotFound("no registered table with id " +
                                std::to_string(ref.id()));
      }
      return resolution;
    case SchemaRef::Kind::kRoute: {
      if (tokens.empty()) {
        return Status::InvalidArgument(
            "routing requires a non-empty tokenized question");
      }
      resolution.candidates = Route(tokens, kRouteLimit);
      if (resolution.candidates.empty()) {
        return Status::FailedPrecondition(
            "cannot route: no tables registered");
      }
      resolution.id = resolution.candidates.front().id;
      resolution.table = table(resolution.id);
      return resolution;
    }
  }
  return Status::Internal("unhandled SchemaRef kind");
}

Status SchemaRegistry::CheckResolvable(const SchemaRef& ref) const {
  // Every kind but kRoute resolves in constant time without the question.
  if (ref.kind() != SchemaRef::Kind::kRoute) return Resolve(ref, {}).status();
  return num_tables() == 0 ? Status::FailedPrecondition(
                                 "cannot route: no tables registered")
                           : Status::Ok();
}

}  // namespace schema
}  // namespace nlidb
