#ifndef NLIDB_SCHEMA_SCHEMA_REF_H_
#define NLIDB_SCHEMA_SCHEMA_REF_H_

#include <string>
#include <utility>

#include "sql/table.h"

namespace nlidb {
namespace schema {

/// Dense registry handle for a registered table. Stable for the
/// registry's lifetime (tables are never unregistered).
using TableId = int;
inline constexpr TableId kInvalidTableId = -1;

/// How a `QueryRequest` names the table it runs against — the schema
/// half of the redesigned resolution API (DESIGN.md "Schema-scale
/// architecture"). Exactly one of four shapes:
///
///   SchemaRef::Table(&t)   ad-hoc table the caller owns; statistics are
///                          content-keyed, unless `t` is itself a
///                          registered table, whose statistics, cell
///                          index and routing data are bound at
///                          Register (to change a table, register it
///                          under a new name)
///   SchemaRef::Name("x")   registered table, resolved by name
///   SchemaRef::Id(id)      registered table, resolved by handle
///   SchemaRef::Route()     no table at all: the registry's router picks
///                          the best-matching registered table from the
///                          question itself
///
/// A default-constructed ref is unset; resolving it is InvalidArgument.
class SchemaRef {
 public:
  enum class Kind { kUnset, kTable, kName, kId, kRoute };

  SchemaRef() = default;

  static SchemaRef Table(const sql::Table* table) {
    SchemaRef ref;
    ref.kind_ = Kind::kTable;
    ref.table_ = table;
    return ref;
  }

  static SchemaRef Name(std::string name) {
    SchemaRef ref;
    ref.kind_ = Kind::kName;
    ref.name_ = std::move(name);
    return ref;
  }

  static SchemaRef Id(TableId id) {
    SchemaRef ref;
    ref.kind_ = Kind::kId;
    ref.id_ = id;
    return ref;
  }

  static SchemaRef Route() {
    SchemaRef ref;
    ref.kind_ = Kind::kRoute;
    return ref;
  }

  Kind kind() const { return kind_; }
  bool unset() const { return kind_ == Kind::kUnset; }

  /// Valid only for the matching kind (callers switch on kind() first).
  const sql::Table* table() const { return table_; }
  const std::string& name() const { return name_; }
  TableId id() const { return id_; }

 private:
  Kind kind_ = Kind::kUnset;
  const sql::Table* table_ = nullptr;
  std::string name_;
  TableId id_ = kInvalidTableId;
};

}  // namespace schema
}  // namespace nlidb

#endif  // NLIDB_SCHEMA_SCHEMA_REF_H_
