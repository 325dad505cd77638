#ifndef NLIDB_SCHEMA_REGISTRY_H_
#define NLIDB_SCHEMA_REGISTRY_H_

// Schema registry (DESIGN.md §15 "Schema-scale architecture").
//
// `SchemaRegistry` is the single owner of schema-resolution state for a
// pipeline: the set of registered tables, their column statistics and
// cell indexes, and the token index and centroids behind table routing.
//
// Registered tables are snapshots: a registered table's statistics,
// cell index and routing data are bound at `Register`, so to change a
// table, register it under a new name. Ad-hoc tables (a
// `SchemaRef::Table` to a table that is not registered) are content-
// keyed instead: their entry is keyed by a CRC32C content fingerprint
// (schema/fingerprint.h), so an ad-hoc table that mutates in place, or
// a fresh one allocated at a recycled address, can never be served
// another table's (or its own stale) statistics.
//
// Thread model: all public const methods are safe to call concurrently
// (serving workers share one registry). Registration is also
// thread-safe but is expected at setup time. Statistics are computed
// outside the lock on an ad-hoc miss (they are a pure function of table
// content and the embedding provider), so misses of different tables do
// not serialize; returned entry references stay valid for the registry
// lifetime because entries are heap-allocated and never erased. The
// price: every distinct ad-hoc table content the registry ever sees
// stays resident, statistics and cell index included, for the
// registry's lifetime (perfbench's catalog_large computes about 0.086
// entries per query). Bounding the store needs a design that keeps
// this reference contract, which callers rely on.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "schema/fingerprint.h"
#include "schema/schema_ref.h"
#include "sql/cell_index.h"
#include "sql/statistics.h"
#include "sql/table.h"
#include "text/embedding_provider.h"

namespace nlidb {
namespace schema {

/// Everything the registry precomputes for one table content
/// fingerprint. `stats` is the paper's per-column s_c metadata; `cells`
/// is the exact-value index the annotator looks question n-grams up in,
/// built in the same pass over the cells; `centroid` is the mean of the
/// columns' name and content embeddings (routing tiebreak).
struct TableStatsEntry {
  uint64_t fingerprint = 0;
  std::vector<sql::ColumnStatistics> stats;
  sql::CellIndex cells;
  std::vector<float> centroid;
};

/// One ranked table from the router.
struct RouteCandidate {
  TableId id = kInvalidTableId;
  std::string name;
  float score = 0.0f;
};

/// The outcome of resolving a `SchemaRef`: the concrete table to run
/// against, its registry handle when registered (ad-hoc `Table` refs
/// may not be), and — for routed requests — the ranked candidate list
/// (at most five tables) the winner was drawn from.
struct Resolution {
  const sql::Table* table = nullptr;
  TableId id = kInvalidTableId;
  std::vector<RouteCandidate> candidates;
};

class SchemaRegistry {
 public:
  explicit SchemaRegistry(
      std::shared_ptr<const text::EmbeddingProvider> provider);
  SchemaRegistry(const SchemaRegistry&) = delete;
  SchemaRegistry& operator=(const SchemaRegistry&) = delete;

  /// Registers `table` under its name, computes its statistics entry
  /// and indexes it for routing, all from its content now: later
  /// mutations of `*table` are not seen. Duplicate names are
  /// FailedPrecondition, found before any entry is computed; a null
  /// table is InvalidArgument. Thread-safe.
  StatusOr<TableId> Register(std::shared_ptr<const sql::Table> table);

  /// Handle of the registered table named `name`; kInvalidTableId when
  /// absent.
  TableId Find(const std::string& name) const;

  /// The registered table behind `id`; nullptr when out of range.
  const sql::Table* table(TableId id) const;

  int num_tables() const;

  /// The entry for `table`. For a registered table (this exact object,
  /// under its registered name) it is the entry bound at `Register`,
  /// whatever the table holds now. Any other table is content-keyed: it
  /// is fingerprinted on every call, so a mutated ad-hoc table gets
  /// fresh statistics, and its entry is computed and retained on first
  /// sight. The reference stays valid for the registry's lifetime. Each
  /// call advances exactly one of the `schema.stats_hits` /
  /// `schema.stats_computed` counters.
  const TableStatsEntry& EntryFor(const sql::Table& table) const;

  /// Resolves `ref` to a concrete table. `tokens` (the tokenized
  /// question) is only consulted for `SchemaRef::Route()` refs.
  StatusOr<Resolution> Resolve(const SchemaRef& ref,
                               const std::vector<std::string>& tokens) const;

  /// Admission-time resolvability check (serving): `Resolve`'s status
  /// for every kind but routed refs, which only need a non-empty
  /// registry (routing itself waits for the question).
  Status CheckResolvable(const SchemaRef& ref) const;

  /// Ranks registered tables against a tokenized question: inverted-
  /// index token hits (idf-weighted) blended with question/table-
  /// centroid cosine. Deterministic; ties break toward the lower id.
  std::vector<RouteCandidate> Route(const std::vector<std::string>& tokens,
                                    int limit) const;

  const text::EmbeddingProvider& provider() const { return *provider_; }

 private:
  /// Builds the centroid of an entry from its stats.
  /// Pure; called outside mu_ (it takes the provider's lock).
  void FillDerived(const sql::Table& table, TableStatsEntry& entry) const;

  /// Inserts `entry` under mu_ unless another thread won the race, and
  /// returns the resident entry either way.
  const TableStatsEntry& Intern(std::unique_ptr<TableStatsEntry> entry) const;

  /// Id of `table` when this exact object is registered under its name;
  /// kInvalidTableId otherwise (a matching name alone never counts).
  TableId RegisteredId(const sql::Table& table) const
      NLIDB_EXCLUSIVE_LOCKS_REQUIRED(mu_);

  /// One registered table and what `Register` bound for it.
  struct Registered {
    std::shared_ptr<const sql::Table> table;
    const TableStatsEntry* entry = nullptr;
    /// Copy of entry->centroid: Route scans every table, and reading it
    /// through `entry` costs a cold pointer chase per table.
    std::vector<float> centroid;
  };

  const std::shared_ptr<const text::EmbeddingProvider> provider_;
  mutable Mutex mu_;
  /// Registered tables by id; ids are dense and never reused.
  std::vector<Registered> tables_ NLIDB_GUARDED_BY(mu_);
  std::unordered_map<std::string, TableId> name_to_id_ NLIDB_GUARDED_BY(mu_);
  /// Routing inverted index: token -> ids of tables whose name, column
  /// names, or sampled cells contain it (each id at most once).
  std::unordered_map<std::string, std::vector<TableId>> postings_
      NLIDB_GUARDED_BY(mu_);
  /// Statistics store keyed by content fingerprint. Entries are heap-
  /// allocated and never erased, so references returned by EntryFor (and
  /// the entries `tables_` binds) stay valid across later insertions and
  /// rehashes.
  mutable std::unordered_map<uint64_t, std::unique_ptr<TableStatsEntry>>
      entries_ NLIDB_GUARDED_BY(mu_);
};

}  // namespace schema
}  // namespace nlidb

#endif  // NLIDB_SCHEMA_REGISTRY_H_
