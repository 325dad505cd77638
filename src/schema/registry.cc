#include "schema/registry.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "common/file_io.h"
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
  metrics::Counter& stats_loaded;
  metrics::Counter& route_queries;
  metrics::Counter& route_fallback_scan;
  metrics::Counter& shortlist_queries;
  metrics::Counter& shortlist_pruned_columns;

  static SchemaCounters& Get() {
    auto& reg = metrics::MetricsRegistry::Global();
    static SchemaCounters c{reg.GetCounter("schema.registered"),
                            reg.GetCounter("schema.stats_hits"),
                            reg.GetCounter("schema.stats_computed"),
                            reg.GetCounter("schema.stats_loaded"),
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

// ---- Persistence ("NLSR" v1) ------------------------------------------
//
// [4B magic "NLSR"][u32 version=1][u32 entry count]
//   per entry: [u64 fingerprint][u32 ncols]
//     per column: [u32 name len][name bytes][u8 type][f32 avg_tokens]
//                 [i32 distinct][f64 min][f64 max][f64 mean]
//                 [u32 dim][dim × f32 embedding]
// [u32 CRC32C of everything above]
//
// Fixed-width little-endian fields appended via memcpy; the footer CRC
// (AtomicFileWriter's running CRC) makes truncation and bit rot
// detectable before any parsing is trusted.

constexpr char kMagic[4] = {'N', 'L', 'S', 'R'};
constexpr uint32_t kFormatVersion = 1;

template <typename T>
void AppendPod(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t old = out.size();
  out.resize(old + sizeof(T));
  std::memcpy(&out[old], &value, sizeof(T));
}

/// Bounds-checked sequential reader over a loaded byte buffer.
class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}

  template <typename T>
  bool ReadPod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadBytes(std::string* out, size_t n) {
    if (data_.size() - pos_ < n) return false;
    out->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

void SerializeEntry(std::string& out, uint64_t fingerprint,
                    const std::vector<sql::ColumnStatistics>& stats) {
  AppendPod(out, fingerprint);
  AppendPod(out, static_cast<uint32_t>(stats.size()));
  for (const sql::ColumnStatistics& col : stats) {
    AppendPod(out, static_cast<uint32_t>(col.column_name.size()));
    out.append(col.column_name);
    AppendPod(out, static_cast<uint8_t>(col.type));
    AppendPod(out, col.avg_tokens_per_cell);
    AppendPod(out, static_cast<int32_t>(col.distinct_count));
    AppendPod(out, col.min_value);
    AppendPod(out, col.max_value);
    AppendPod(out, col.mean_value);
    AppendPod(out, static_cast<uint32_t>(col.embedding.size()));
    for (float v : col.embedding) AppendPod(out, v);
  }
}

bool ParseEntry(Reader& reader, uint64_t* fingerprint,
                std::vector<sql::ColumnStatistics>* stats) {
  uint32_t ncols = 0;
  if (!reader.ReadPod(fingerprint) || !reader.ReadPod(&ncols)) return false;
  // A column record is at least 38 bytes; reject counts the buffer
  // cannot possibly hold before resizing anything.
  if (ncols > reader.remaining() / 38) return false;
  stats->clear();
  stats->reserve(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    sql::ColumnStatistics col;
    uint32_t name_len = 0;
    if (!reader.ReadPod(&name_len)) return false;
    if (!reader.ReadBytes(&col.column_name, name_len)) return false;
    uint8_t type = 0;
    int32_t distinct = 0;
    uint32_t dim = 0;
    if (!reader.ReadPod(&type) || !reader.ReadPod(&col.avg_tokens_per_cell) ||
        !reader.ReadPod(&distinct) || !reader.ReadPod(&col.min_value) ||
        !reader.ReadPod(&col.max_value) || !reader.ReadPod(&col.mean_value) ||
        !reader.ReadPod(&dim)) {
      return false;
    }
    if (type > static_cast<uint8_t>(sql::DataType::kReal)) return false;
    if (dim > reader.remaining() / sizeof(float)) return false;
    col.type = static_cast<sql::DataType>(type);
    col.distinct_count = distinct;
    col.embedding.resize(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      if (!reader.ReadPod(&col.embedding[d])) return false;
    }
    stats->push_back(std::move(col));
  }
  return true;
}

}  // namespace

SchemaRegistry::SchemaRegistry(
    std::shared_ptr<const text::EmbeddingProvider> provider,
    const SchemaRegistryOptions& options)
    : provider_(std::move(provider)),
      options_(options),
      mode_(static_cast<int>(ScanMode::kShortlist)) {}

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

const TableStatsEntry& SchemaRegistry::EntryFor(const sql::Table& table) const {
  SchemaCounters& counters = SchemaCounters::Get();
  const uint64_t fp = TableFingerprint(table);
  std::vector<sql::ColumnStatistics> warm;
  bool have_warm = false;
  {
    MutexLock lock(mu_);
    auto it = entries_.find(fp);
    if (it != entries_.end()) {
      counters.stats_hits.Increment();
      return *it->second;
    }
    auto warm_it = loaded_stats_.find(fp);
    if (warm_it != loaded_stats_.end() &&
        static_cast<int>(warm_it->second.size()) == table.num_columns()) {
      warm = warm_it->second;
      have_warm = true;
    }
  }
  // Miss: build the entry outside the lock — statistics are a pure
  // function of (table content, provider), so concurrent misses on
  // different tables proceed in parallel.
  auto entry = std::make_unique<TableStatsEntry>();
  entry->fingerprint = fp;
  if (have_warm) {
    counters.stats_loaded.Increment();
    entry->stats = std::move(warm);
  } else {
    counters.stats_computed.Increment();
    trace::TraceSpan span("schema.stats_compute");
    entry->stats = sql::ComputeTableStatistics(table, *provider_);
  }
  FillDerived(table, *entry);
  return Intern(std::move(entry));
}

const std::vector<sql::ColumnStatistics>& SchemaRegistry::StatsFor(
    const sql::Table& table) const {
  return EntryFor(table).stats;
}

StatusOr<TableId> SchemaRegistry::Register(
    std::shared_ptr<const sql::Table> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("cannot register a null table");
  }
  // Warm the content-keyed store and grab the centroid before taking
  // mu_ (EntryFor locks internally).
  const TableStatsEntry& entry = EntryFor(*table);
  std::vector<float> centroid = entry.centroid;
  std::vector<std::string> index_tokens =
      IndexTokens(*table, kMaxIndexRows);

  MutexLock lock(mu_);
  if (name_to_id_.count(table->name()) > 0) {
    return Status::FailedPrecondition("table '" + table->name() +
                                      "' is already registered");
  }
  const TableId id = static_cast<TableId>(tables_.size());
  name_to_id_.emplace(table->name(), id);
  tables_.push_back(std::move(table));
  centroids_.push_back(std::move(centroid));
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
  return tables_[static_cast<size_t>(id)].get();
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
    ranked[i].name = tables_[i]->name();
    // Lexical evidence dominates when present; the centroid cosine
    // breaks ties and carries the no-lexical-hit fallback (a full
    // centroid scan still ranks every table).
    ranked[i].score = lexical[i] / norm +
                      text::EmbeddingProvider::Cosine(question_vec,
                                                      centroids_[i]);
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
    const std::vector<std::string>& tokens, const sql::Table& table) const {
  SchemaCounters& counters = SchemaCounters::Get();
  counters.shortlist_queries.Increment();
  const int ncols = table.num_columns();
  std::vector<int> all(static_cast<size_t>(ncols));
  for (int c = 0; c < ncols; ++c) all[static_cast<size_t>(c)] = c;
  if (ncols <= options_.shortlist_k) return all;

  const TableStatsEntry& entry = EntryFor(table);
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
      auto it = name_to_id_.find(ref.table()->name());
      if (it != name_to_id_.end() &&
          tables_[static_cast<size_t>(it->second)].get() == ref.table()) {
        resolution.id = it->second;
      }
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
      resolution.table = tables_[static_cast<size_t>(it->second)].get();
      return resolution;
    }
    case SchemaRef::Kind::kId: {
      MutexLock lock(mu_);
      if (ref.id() < 0 || ref.id() >= static_cast<TableId>(tables_.size())) {
        return Status::NotFound("no registered table with id " +
                                std::to_string(ref.id()));
      }
      resolution.id = ref.id();
      resolution.table = tables_[static_cast<size_t>(ref.id())].get();
      return resolution;
    }
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
      {
        MutexLock lock(mu_);
        resolution.table = tables_[static_cast<size_t>(resolution.id)].get();
      }
      return resolution;
    }
  }
  return Status::Internal("unhandled SchemaRef kind");
}

Status SchemaRegistry::CheckResolvable(const SchemaRef& ref) const {
  switch (ref.kind()) {
    case SchemaRef::Kind::kUnset:
      return Status::InvalidArgument(
          "QueryRequest has no schema reference: set schema_ref");
    case SchemaRef::Kind::kTable:
      return ref.table() == nullptr
                 ? Status::InvalidArgument("SchemaRef::Table is null")
                 : Status::Ok();
    case SchemaRef::Kind::kName:
      return Find(ref.name()) == kInvalidTableId
                 ? Status::NotFound("no registered table named '" +
                                    ref.name() + "'")
                 : Status::Ok();
    case SchemaRef::Kind::kId:
      return table(ref.id()) == nullptr
                 ? Status::NotFound("no registered table with id " +
                                    std::to_string(ref.id()))
                 : Status::Ok();
    case SchemaRef::Kind::kRoute:
      return num_tables() == 0 ? Status::FailedPrecondition(
                                     "cannot route: no tables registered")
                               : Status::Ok();
  }
  return Status::Internal("unhandled SchemaRef kind");
}

Status SchemaRegistry::Save(const std::string& path) const {
  // Snapshot every known (fingerprint, stats) pair — materialized
  // entries plus warm loaded ones not touched yet — sorted by
  // fingerprint for a deterministic file.
  std::vector<std::pair<uint64_t, std::vector<sql::ColumnStatistics>>> rows;
  {
    MutexLock lock(mu_);
    rows.reserve(entries_.size() + loaded_stats_.size());
    for (const auto& [fp, entry] : entries_) {
      rows.emplace_back(fp, entry->stats);
    }
    for (const auto& [fp, stats] : loaded_stats_) {
      if (entries_.count(fp) == 0) rows.emplace_back(fp, stats);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::string payload;
  payload.append(kMagic, sizeof(kMagic));
  AppendPod(payload, kFormatVersion);
  AppendPod(payload, static_cast<uint32_t>(rows.size()));
  for (const auto& [fp, stats] : rows) {
    SerializeEntry(payload, fp, stats);
  }

  io::AtomicFileWriter writer(path, "schema_registry");
  NLIDB_RETURN_IF_ERROR(writer.Append(payload));
  const uint32_t crc = writer.crc();
  NLIDB_RETURN_IF_ERROR(writer.Append(&crc, sizeof(crc)));
  return writer.Commit();
}

Status SchemaRegistry::Load(const std::string& path) {
  StatusOr<std::string> contents = io::ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  const std::string& data = contents.value();

  // Validate the envelope before trusting a single parsed byte: the
  // footer CRC covers everything, so truncation, bit rot and torn
  // writes all fail here and the registry stays untouched.
  constexpr size_t kHeaderSize = sizeof(kMagic) + 2 * sizeof(uint32_t);
  if (data.size() < kHeaderSize + sizeof(uint32_t)) {
    return Status::ParseError("schema store too short: " + path);
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, data.data() + data.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  const uint32_t actual_crc =
      io::Crc32c(data.data(), data.size() - sizeof(uint32_t));
  if (stored_crc != actual_crc) {
    return Status::ParseError("schema store checksum mismatch: " + path);
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("schema store bad magic: " + path);
  }

  const std::string body(data.data(), data.size() - sizeof(uint32_t));
  Reader reader(body);
  std::string magic;
  uint32_t version = 0;
  uint32_t count = 0;
  if (!reader.ReadBytes(&magic, sizeof(kMagic)) || !reader.ReadPod(&version) ||
      !reader.ReadPod(&count)) {
    return Status::ParseError("schema store truncated header: " + path);
  }
  if (version != kFormatVersion) {
    return Status::ParseError("schema store unsupported version " +
                              std::to_string(version) + ": " + path);
  }
  // Staged parse: everything lands in `parsed` first; the registry is
  // only mutated after the whole file decodes.
  std::unordered_map<uint64_t, std::vector<sql::ColumnStatistics>> parsed;
  parsed.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t fp = 0;
    std::vector<sql::ColumnStatistics> stats;
    if (!ParseEntry(reader, &fp, &stats)) {
      return Status::ParseError("schema store truncated entry " +
                                std::to_string(i) + ": " + path);
    }
    parsed[fp] = std::move(stats);
  }
  if (reader.remaining() != 0) {
    return Status::ParseError("schema store trailing bytes: " + path);
  }

  MutexLock lock(mu_);
  for (auto& [fp, stats] : parsed) {
    loaded_stats_[fp] = std::move(stats);
  }
  return Status::Ok();
}

}  // namespace schema
}  // namespace nlidb
