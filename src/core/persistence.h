#ifndef NLIDB_CORE_PERSISTENCE_H_
#define NLIDB_CORE_PERSISTENCE_H_

#include <string>

#include "common/status.h"
#include "core/pipeline.h"

namespace nlidb {
namespace core {

/// Saves a trained pipeline into `dir` (created if absent) as a new
/// snapshot directory `snapshot-NNNNNN/` holding one checkpoint per
/// learned component plus the word vocabularies, then atomically
/// rewrites the `MANIFEST` file (newest snapshot first). Every file is
/// written temp-file → fsync → rename, so a crash at any point leaves
/// the previous snapshot loadable; the two most recent snapshots are
/// kept and older ones garbage-collected.
Status SavePipeline(const NlidbPipeline& pipeline, const std::string& dir);

/// Restores a pipeline previously saved with SavePipeline. Snapshots
/// listed in MANIFEST are validated (CRC + structural parse) newest
/// first and the first complete one is loaded — a partial or corrupt
/// save falls back to the previous snapshot (counted in
/// `persistence.fallback_loads`). A directory without a MANIFEST is
/// NotFound. The receiving pipeline must have
/// been constructed with the same ModelConfig and an
/// equivalently-configured EmbeddingProvider; mismatched architectures
/// fail with FailedPrecondition (no partial loads).
Status LoadPipeline(NlidbPipeline& pipeline, const std::string& dir);

/// Writes / reads a vocabulary (specials omitted). The format is one
/// header line `NLIDB-VOCAB v2 crc=<hex> count=<n>` followed by one
/// token per line; a file without that header is ParseError.
Status SaveVocab(const text::Vocab& vocab, const std::string& path);
StatusOr<std::vector<std::string>> LoadVocabTokens(const std::string& path);

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_PERSISTENCE_H_
